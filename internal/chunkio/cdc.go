package chunkio

// Content-defined chunking (CDC) for the upload path. Fixed-size chunking
// breaks cross-session dedup the moment a buffer shifts: inserting one byte
// re-aligns every later chunk and every content hash changes. A Gear rolling
// hash instead places chunk boundaries where the *content* says so — a
// window-local hash hitting a mask — so an edit only perturbs the cuts in
// its neighbourhood and every chunk outside it keeps its hash, stays in the
// content-addressed index, and is never re-uploaded.
//
// Gear is the simplest of the modern CDC hashes (one shift, one table add
// per byte) and within a few percent of FastCDC's throughput at this chunk
// scale. Boundaries require h&mask == 0 with mask sized to the target
// average; cuts are clamped to [avg/4, avg*4] so pathological content can
// neither shatter a buffer into confetti nor defeat pipelining with one
// giant chunk.

// gearMix generates the 256-entry random table deterministically:
// boundaries must be stable across processes and sessions, or cross-session
// dedup would never match. It is not resilience.SplitMix64 — its second
// multiplier differs — and it cannot become it: every cut point, and so
// every dedup key already in a store, follows from this table
// (TestGearTableDoesNotMove pins it).
func gearMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d4a26d9e3779b9
	return x ^ (x >> 31)
}

var gear = func() (t [256]uint64) {
	for i := range t {
		t[i] = gearMix(uint64(i) + 1)
	}
	return
}()

// nextPow2 rounds up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// cutChunks returns the chunk end-offsets of buf under Gear CDC with the
// given target average size. The last cut is always len(buf); offsets are
// strictly increasing. Each chunk is between avg/4 and avg*4 bytes (except
// the final remainder).
func cutChunks(buf []byte, avg int) []int {
	if avg < 256 {
		avg = 256
	}
	mask := uint64(nextPow2(avg) - 1)
	minC, maxC := avg/4, avg*4
	cuts := make([]int, 0, len(buf)/avg+2)
	start := 0
	var h uint64
	for i := 0; i < len(buf); i++ {
		h = h<<1 + gear[buf[i]]
		n := i - start + 1
		if (n >= minC && h&mask == 0) || n >= maxC {
			cuts = append(cuts, i+1)
			start = i + 1
			h = 0
		}
	}
	if len(cuts) == 0 || cuts[len(cuts)-1] != len(buf) {
		cuts = append(cuts, len(buf))
	}
	return cuts
}

// cutPoints returns the chunk end-offsets a transfer of buf uses: Gear CDC
// when enabled, else fixed cs-sized chunks. Always non-empty for non-empty
// buf, ending at len(buf).
func cutPoints(buf []byte, cs int, cdc bool) []int {
	if cs >= len(buf) {
		// Single chunk — covers unchunked mode (cs == math.MaxInt), where
		// the fixed-cut arithmetic below would overflow.
		return []int{len(buf)}
	}
	if cdc {
		return cutChunks(buf, cs)
	}
	n := (len(buf) + cs - 1) / cs
	if n == 0 {
		n = 1
	}
	cuts := make([]int, n)
	for i := 1; i <= n; i++ {
		end := i * cs
		if end > len(buf) {
			end = len(buf)
		}
		cuts[i-1] = end
	}
	return cuts
}
