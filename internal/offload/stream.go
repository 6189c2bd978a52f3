package offload

import "sync"

// This file is the readiness scheduler behind the plan engine's per-tile
// release policy: the Fig. 1 workflow with its stage barriers dissolved. A
// barriered plan finishes every input's upload and driver fetch before the
// first Spark task starts, and finishes every task before the first output
// byte heads home; released per tile, the four stages form a pipeline over
// tiles instead:
//
//	host chunks  --Pipe-->  driver buffers  --gates-->  Spark tasks
//	     tasks --sink--> in-order reconstruction --OutStream--> host buffers
//
// A tileSched tracks how much of each input is resident on the driver and
// opens per-tile readiness gates (spark.Gated) in index order; finished
// tiles stream through reconstruction in index order and a per-output
// OutStream ships every finalized chunk while later tiles still compute.
// Everything both policies store is laid out identically, so caches,
// cleanup, and readers are shared.

// ivl is a half-open byte interval [lo, hi).
type ivl struct{ lo, hi int64 }

// tileSched is the bounded-concurrency readiness scheduler: chunk-level
// coverage marks come in out of order from the transfer workers, tiles
// unlock in index order as soon as every input covers their windows.
type tileSched struct {
	r     *Region
	tiles int
	gates []chan struct{}

	mu      sync.Mutex
	next    int     // next gate to open; gates open in index order
	water   []int64 // per-input contiguous coverage from byte 0
	pending [][]ivl // per-input coverage above the watermark
	err     error
}

func newTileSched(r *Region, tiles int) *tileSched {
	s := &tileSched{
		r:       r,
		tiles:   tiles,
		gates:   make([]chan struct{}, tiles),
		water:   make([]int64, len(r.Ins)),
		pending: make([][]ivl, len(r.Ins)),
	}
	for i := range s.gates {
		s.gates[i] = make(chan struct{})
	}
	return s
}

// gate exposes tile t's readiness channel (closed = ready) to spark.Gated.
func (s *tileSched) gate(t int) <-chan struct{} { return s.gates[t] }

// mark records that input k's bytes [lo, hi) are resident on the driver.
// Marks arrive concurrently and out of order; the contiguous watermark only
// advances when the gap below an interval has filled.
func (s *tileSched) mark(k int, lo, hi int64) {
	if hi <= lo {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if lo > s.water[k] {
		s.pending[k] = append(s.pending[k], ivl{lo, hi})
		return
	}
	if hi > s.water[k] {
		s.water[k] = hi
	}
	// Absorb any buffered intervals the new watermark now touches. The
	// list is tiny (chunks arrive nearly in order), so a repeated linear
	// scan beats maintaining a sorted structure.
	for absorbed := true; absorbed; {
		absorbed = false
		for i, iv := range s.pending[k] {
			if iv.lo <= s.water[k] {
				if iv.hi > s.water[k] {
					s.water[k] = iv.hi
				}
				last := len(s.pending[k]) - 1
				s.pending[k][i] = s.pending[k][last]
				s.pending[k] = s.pending[k][:last]
				absorbed = true
				break
			}
		}
	}
	s.openReadyLocked()
}

// readyLocked reports whether tile t's input windows are fully resident.
func (s *tileSched) readyLocked(t int) bool {
	_, hi := TileRange(s.r.N, s.tiles, t)
	for k := range s.r.Ins {
		in := &s.r.Ins[k]
		if in.Partitioned() {
			if s.water[k] < hi*in.BytesPerIter {
				return false
			}
		} else if s.water[k] < int64(len(in.Data)) {
			return false
		}
	}
	return true
}

// openReadyLocked opens gates in index order as far as coverage allows.
// Coverage is contiguous from zero, so tile k ready implies tile j < k
// ready — index order loses no parallelism.
func (s *tileSched) openReadyLocked() {
	for s.next < s.tiles && s.readyLocked(s.next) {
		close(s.gates[s.next])
		s.next++
	}
}

// fail aborts the schedule: the first error is kept and every unopened gate
// is released so gated tasks can observe the error and exit instead of
// waiting forever.
func (s *tileSched) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = err
	for ; s.next < s.tiles; s.next++ {
		close(s.gates[s.next])
	}
}

// Err reports the abort error, nil while healthy.
func (s *tileSched) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
