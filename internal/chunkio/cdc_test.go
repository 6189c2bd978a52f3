package chunkio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

// TestGearTableDoesNotMove pins the Gear table by a hash of its 256 entries:
// a changed table moves every CDC cut point and strands every dedup key
// already stored.
func TestGearTableDoesNotMove(t *testing.T) {
	h := sha256.New()
	for _, v := range gear {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "db94053bf0644147268f2b9cad13b4ae131b58792c6a4a6d250c7a463d1ae136"; got != want {
		t.Fatalf("Gear table hash %s, want %s", got, want)
	}
}

func TestCutPointsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mixed := make([]byte, 300<<10)
	rng.Read(mixed)
	copy(mixed[100<<10:], compressible(80<<10, 22))

	for _, cdc := range []bool{false, true} {
		for _, buf := range [][]byte{
			compressible(200<<10+37, 23),
			incompressible(200<<10, 24),
			mixed,
			compressible(1000, 25),
		} {
			const avg = 8 << 10
			cuts := cutPoints(buf, avg, cdc)
			if len(cuts) == 0 || cuts[len(cuts)-1] != len(buf) {
				t.Fatalf("cdc=%v: cuts must end at len(buf)=%d, got %v", cdc, len(buf), cuts)
			}
			prev := 0
			for i, c := range cuts {
				if c <= prev {
					t.Fatalf("cdc=%v: cuts not strictly increasing at %d: %v", cdc, i, cuts)
				}
				size := c - prev
				if cdc && len(buf) > avg && i < len(cuts)-1 {
					if size < avg/4 || size > avg*4 {
						t.Fatalf("cdc chunk %d is %d bytes, want within [%d, %d]", i, size, avg/4, avg*4)
					}
				}
				if !cdc && size > avg {
					t.Fatalf("fixed chunk %d is %d bytes, want <= %d", i, size, avg)
				}
				prev = c
			}
			again := cutPoints(buf, avg, cdc)
			if len(again) != len(cuts) {
				t.Fatalf("cdc=%v: cuts not deterministic", cdc)
			}
			for i := range cuts {
				if again[i] != cuts[i] {
					t.Fatalf("cdc=%v: cuts not deterministic at %d", cdc, i)
				}
			}
		}
	}
	// Unchunked mode (negative ChunkSize maps to MaxInt) must not overflow.
	if got := cutPoints(make([]byte, 100), Options{ChunkSize: -1}.chunkSize(), false); len(got) != 1 || got[0] != 100 {
		t.Fatalf("unchunked cutPoints = %v, want [100]", got)
	}
}

// chunkSums hashes every chunk of buf under the given cuts.
func chunkSums(buf []byte, cuts []int) map[[sha256.Size]byte]bool {
	sums := make(map[[sha256.Size]byte]bool, len(cuts))
	lo := 0
	for _, hi := range cuts {
		sums[sha256.Sum256(buf[lo:hi])] = true
		lo = hi
	}
	return sums
}

func TestCDCBoundariesSurviveInsertion(t *testing.T) {
	const avg = 8 << 10
	// Unique (random) content: periodic data degenerates — identical
	// chunks dedup regardless of cuts, proving nothing about boundaries.
	base := incompressible(512<<10, 31)
	// Insert 100 bytes near the front: every fixed-size chunk after the
	// insertion point shifts and re-hashes; CDC boundaries re-synchronize
	// within a few chunks.
	edited := append(append(append([]byte{}, base[:999]...), incompressible(100, 32)...), base[999:]...)

	for _, tc := range []struct {
		cdc     bool
		minKeep float64
	}{
		{cdc: true, minKeep: 0.8},
		{cdc: false, minKeep: 0}, // fixed cuts: expect near-total loss
	} {
		baseSums := chunkSums(base, cutPoints(base, avg, tc.cdc))
		keep := 0
		editedCuts := cutPoints(edited, avg, tc.cdc)
		lo := 0
		for _, hi := range editedCuts {
			if baseSums[sha256.Sum256(edited[lo:hi])] {
				keep++
			}
			lo = hi
		}
		frac := float64(keep) / float64(len(editedCuts))
		if tc.cdc && frac < tc.minKeep {
			t.Errorf("cdc: only %.0f%% of chunks survived a 100-byte insertion, want >= %.0f%%",
				frac*100, tc.minKeep*100)
		}
		if !tc.cdc && frac > 0.2 {
			// Sanity on the premise: fixed cuts really do lose alignment.
			t.Errorf("fixed cuts kept %.0f%% of chunks after an insertion; CDC would be pointless", frac*100)
		}
	}
}

func TestCDCUploadDownloadRoundTrip(t *testing.T) {
	const chunk = 8 << 10
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"compressible", compressible(6*chunk+777, 41)},
		{"incompressible", incompressible(6*chunk+123, 42)},
		{"sub-chunk", compressible(chunk/2, 43)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := storage.NewMemStore()
			o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: chunk, Parallel: 2, CDC: true}
			up, err := Upload(st, "obj", tc.data, o)
			if err != nil {
				t.Fatalf("Upload: %v", err)
			}
			if len(tc.data) > chunk && up.Chunks < 2 {
				t.Fatalf("CDC upload produced %d chunks, want several", up.Chunks)
			}
			back, down, err := download(st, "obj", len(tc.data), o)
			if err != nil {
				t.Fatalf("Download: %v", err)
			}
			if !bytes.Equal(back, tc.data) {
				t.Fatal("CDC round trip mismatch")
			}
			if down.WireBytes != up.TotalWire {
				t.Errorf("WireBytes %d != TotalWire %d", down.WireBytes, up.TotalWire)
			}
		})
	}
}

func TestCDCPipeRoundTrip(t *testing.T) {
	const chunk = 8 << 10
	data := compressible(5*chunk+555, 44)
	dst := make([]byte, len(data))
	st := storage.NewMemStore()
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: chunk, Parallel: 2, CDC: true}
	res, err := Pipe(st, "obj", data, dst, o, nil)
	if err != nil {
		t.Fatalf("Pipe: %v", err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("CDC pipe mismatch")
	}
	if res.Up.Chunks < 2 {
		t.Fatalf("CDC pipe used %d chunks, want several", res.Up.Chunks)
	}
	// The stored object stays readable by the plain download path.
	back, _, err := download(st, "obj", len(data), o)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("CDC-piped object unreadable by Download: %v", err)
	}
}

// cachedOptions wires a content index the way the offload layer does.
func cachedOptions(chunk int, cdc bool, idx *Index) Options {
	return Options{
		Codec:     xcompress.Codec{MinSize: 1},
		ChunkSize: chunk,
		Parallel:  2,
		CDC:       cdc,
		Index:     idx,
	}
}

func TestCDCDedupResendsOnlyDirtyChunks(t *testing.T) {
	const chunk = 8 << 10
	// Unique content, for the same reason as the boundary test: a
	// repeating pattern would dedup under fixed cuts too.
	base := incompressible(512<<10, 51)
	edited := append(append(append([]byte{}, base[:999]...), incompressible(100, 52)...), base[999:]...)

	resend := func(cdc bool) float64 {
		st := storage.NewMemStore()
		o := cachedOptions(chunk, cdc, NewIndex(st, true))
		if _, err := Upload(st, "v1", base, o); err != nil {
			t.Fatalf("Upload v1: %v", err)
		}
		up, err := Upload(st, "v2", edited, o)
		if err != nil {
			t.Fatalf("Upload v2: %v", err)
		}
		if up.ReusedRaw == 0 && up.Reused > 0 {
			t.Fatal("Reused chunks must report ReusedRaw bytes")
		}
		back, _, err := download(st, "v2", len(edited), o)
		if err != nil || !bytes.Equal(back, edited) {
			t.Fatalf("dedup'd object corrupt: %v", err)
		}
		return float64(int64(len(edited))-up.ReusedRaw) / float64(len(edited))
	}

	cdcResend, fixedResend := resend(true), resend(false)
	if cdcResend > 0.2 {
		t.Errorf("CDC re-sent %.0f%% of an almost-identical buffer, want <= 20%%", cdcResend*100)
	}
	if fixedResend < 0.8 {
		t.Errorf("fixed cuts re-sent only %.0f%%; the CDC premise is broken", fixedResend*100)
	}
}

func TestCDCDedupSecondPassResendsNothing(t *testing.T) {
	const chunk = 8 << 10
	data := compressible(256<<10, 53)
	st := storage.NewMemStore()
	o := cachedOptions(chunk, true, NewIndex(st, true))
	if _, err := Upload(st, "run1", data, o); err != nil {
		t.Fatal(err)
	}

	// "Second session": a fresh index rebuilt from the store, the way the
	// offload plugin primes it under Dedup.
	idx := NewIndex(st, false)
	if _, err := idx.Load(); err != nil {
		t.Fatal(err)
	}
	o2 := cachedOptions(chunk, true, idx)
	up, err := Upload(st, "run2", data, o2)
	if err != nil {
		t.Fatal(err)
	}
	if up.Reused != up.Chunks {
		t.Fatalf("second pass reused %d/%d chunks, want all", up.Reused, up.Chunks)
	}
	if up.ReusedRaw != int64(len(data)) {
		t.Fatalf("ReusedRaw = %d, want %d", up.ReusedRaw, len(data))
	}
	// Only the manifest goes over the wire again.
	if up.SentWire >= int64(len(data))/10 {
		t.Fatalf("second pass sent %d wire bytes for %d raw, want manifest only", up.SentWire, len(data))
	}
	back, _, err := download(st, "run2", len(data), o2)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("second-pass object corrupt: %v", err)
	}
}

// TestChunkSumChaosDetectsCorruptCachedChunk is the dedup x fault-schedule chaos
// case: raw frames carry no checksum, so a bit-rotted content-addressed
// chunk would decode "successfully" into wrong bytes and be served. The
// fetch path's check against the hash the chunk key names must catch it,
// classify it transient, and heal via re-fetch.
func TestChunkSumChaosDetectsCorruptCachedChunk(t *testing.T) {
	const chunk = 8 << 10
	data := incompressible(6*chunk, 61) // raw frames: no CRC of their own
	inner := storage.NewMemStore()
	o := cachedOptions(chunk, true, NewIndex(inner, true))
	if _, err := Upload(inner, "obj", data, o); err != nil {
		t.Fatal(err)
	}

	// The flipped bit lands at payload byte 100 — past the frame tag, so
	// a raw frame still "decodes" cleanly, just wrong.
	const flipBit = 100*8 + 3
	flip := faults.Entry{Op: "get", Key: "cache/c/", Count: 1, Do: faults.Flip, Bit: flipBit}
	o.Parallel = 1 // deterministic fault placement

	// With a retry budget the corruption is detected and the chunk
	// re-fetched rather than served.
	sched := faults.New(1).Add(flip)
	fs := storage.WithFaults(inner, sched)
	o.Retry = resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}}
	got, res, err := download(fs, "obj", len(data), o)
	if err != nil {
		t.Fatalf("ChunkSum download did not heal: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("healed download is not byte-identical")
	}
	if res.Retries < 1 {
		t.Fatalf("Retries = %d, want >= 1 (the detected corruption)", res.Retries)
	}
	if n := sched.Fired(faults.Store); n != 1 {
		t.Fatalf("schedule fired %d faults, want 1", n)
	}

	// Exhausted budget: the corrupt chunk must surface as an error, never
	// as silently-wrong bytes.
	flip.Count = 0
	fs = storage.WithFaults(inner, faults.New(1).Add(flip))
	o.Retry = resilience.Policy{}
	if _, _, err := download(fs, "obj", len(data), o); err == nil {
		t.Fatal("persistent corruption with no retry budget must fail, not serve wrong bytes")
	}
}

// discardStore swallows writes: the PUT-path alloc gate needs a store with
// no defensive copy of its own (MemStore's copy-on-Put is a real allocation,
// but it belongs to the store, not the transfer hot path).
type discardStore struct{}

func (discardStore) Put(string, []byte) error      { return nil }
func (discardStore) Get(string) ([]byte, error)    { return nil, storage.ErrNotFound }
func (discardStore) Delete(string) error           { return nil }
func (discardStore) List(string) ([]string, error) { return nil, nil }
func (discardStore) Stat(string) (int64, error)    { return 0, storage.ErrNotFound }

// allocGateStores are the stores the steady-state gates run against: the bare
// in-process store they were written on, and the loopback stack they are
// deployed on.
func allocGateStores(t *testing.T, mem storage.Store) []gateStore {
	return []gateStore{{"mem", mem}, {"loopback", dialStoraged(t)}}
}

type gateStore struct {
	name string
	st   storage.Store
}

func TestPutUnitSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under -race instrumentation")
	}
	data := compressible(64<<10, 71)
	codec := xcompress.Codec{MinSize: 1}
	for _, store := range allocGateStores(t, discardStore{}) {
		t.Run(store.name, func(t *testing.T) {
			// A compressed chunk is one part, its frame; a raw one is two,
			// the tag and the chunk itself, which a loopback client writes
			// straight to the socket and any other store gets joined in
			// pooled scratch.
			for _, frame := range []struct {
				name    string
				verdict xcompress.Verdict
			}{
				{"gzip", xcompress.VerdictGzip},
				{"raw", xcompress.VerdictRaw},
			} {
				head, body, err := codec.Frame(nil, data, frame.verdict)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(frame.name, func(t *testing.T) {
					o := Options{Codec: codec}
					var retries atomic.Int64
					pu := newPutUnit(store.st, &o, &retries)
					allocs := testing.AllocsPerRun(100, func() {
						if err := pu.put("cache/c/feed", head, body); err != nil {
							t.Fatal(err)
						}
					})
					if allocs > 0 {
						t.Errorf("putUnit.put(%s): %v allocs/run, want 0", frame.name, allocs)
					}
				})
			}
		})
	}
}

func TestGetUnitSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under -race instrumentation")
	}
	raw := compressible(64<<10, 72)
	sum := sha256.Sum256(raw)
	codec := xcompress.Codec{MinSize: 1}
	for _, store := range allocGateStores(t, storage.NewMemStore()) {
		for _, frame := range []struct {
			name    string
			verdict xcompress.Verdict
		}{
			{"raw", xcompress.VerdictRaw},
			{"zero", xcompress.VerdictZero},
			{"gzip", xcompress.VerdictGzip},
		} {
			t.Run(store.name+"/"+frame.name, func(t *testing.T) {
				st := store.st
				enc, err := codec.AppendEncode(nil, raw, frame.verdict)
				if err != nil {
					t.Fatal(err)
				}
				key := ChunkKey(sum)
				if err := st.Put(key, enc); err != nil {
					t.Fatal(err)
				}
				o := Options{Codec: codec}
				var retries atomic.Int64
				gu := newGetUnit(st, &o, &retries)
				dst := make([]byte, len(raw))
				allocs := testing.AllocsPerRun(100, func() {
					if _, _, err := gu.fetch(key, dst); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 0 {
					t.Errorf("getUnit.fetch(%s): %v allocs/run, want 0", frame.name, allocs)
				}
				// The loopback client streams: a raw frame lands in dst off
				// the socket, the others are decoded from pooled scratch.
				if streamed := store.name == "loopback"; gu.stream != streamed {
					t.Errorf("getUnit streaming = %v, want %v", gu.stream, streamed)
				}
			})
		}
	}
}

// TestTransferAllocBudget bounds whole-call allocation for a multi-chunk
// transfer. The per-chunk scratch (encode output, wire bytes) is pooled, so
// total allocation must stay far below the payload size; without the pools
// each chunk allocates its own ~ChunkSize buffers and the total rivals the
// payload.
func TestTransferAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under -race instrumentation")
	}
	const chunk = 128 << 10
	const nChunks = 64
	data := compressible(nChunks*chunk, 73)
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: chunk, Parallel: 2}

	measure := func(f func()) uint64 {
		f() // warm-up: populate pools, grow channels
		f()
		// The steady state is the least of a few calls: a collection that
		// lands inside one empties the sync.Pools, and that call pays for
		// fresh scratch (1 run in 12 failed on that alone).
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}

	upBytes := measure(func() {
		if _, err := Upload(discardStore{}, "obj", data, o); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 1 << 20 // fixed overhead allowance, vs an 8 MiB payload
	if upBytes > budget {
		t.Errorf("Upload allocated %d bytes for %d payload, want <= %d", upBytes, len(data), budget)
	}

	st := storage.NewMemStore()
	if _, err := Upload(st, "obj", data, o); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data))
	downBytes := measure(func() {
		if _, err := DownloadInto(st, "obj", dst, o); err != nil {
			t.Fatal(err)
		}
	})
	// Download re-reads the manifest JSON each call (~chunk-count sized)
	// but must not allocate per-chunk wire buffers.
	if downBytes > budget {
		t.Errorf("Download allocated %d bytes for %d payload, want <= %d", downBytes, len(data), budget)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("round trip mismatch")
	}
}

// TestSingleChunkEncodeDrawsScratch: a compressible buffer of at most one
// chunk is stored in the single layout, one frame at its root key, and that
// frame is encoded into arena scratch like any chunk's. Encoded into a fresh
// slice instead, each upload of this 512 KiB buffer allocates the frame's
// len/2+64 bytes again, grown by doubling.
func TestSingleChunkEncodeDrawsScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under -race instrumentation")
	}
	data := compressible(512<<10, 74)
	upload := func() {
		res, err := Upload(discardStore{}, "obj", data, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Chunks != 1 || res.SentWire >= int64(len(data))/2 {
			t.Fatalf("upload of %d bytes: %d chunks, %d bytes sent; want one compressed frame", len(data), res.Chunks, res.SentWire)
		}
	}
	upload() // warm-up: the arena's scratch class, the gzip writer
	upload()
	const uploads, budget = 20, 16 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range uploads {
		upload()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / uploads
	t.Logf("bytes per upload: %d", per)
	if per > budget {
		t.Errorf("an upload of a %d-byte compressible buffer allocated %d bytes, want <= %d", len(data), per, budget)
	}
}
