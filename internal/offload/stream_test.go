package offload

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
)

func init() {
	// mix: y[i] = 2*a[i] + bias[0] over a partitioned input plus a
	// broadcast input, with an order-sensitive float sum on the side.
	testRegistry.Register("mix", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		a := data.Floats(in[0])
		bias := data.GetFloat(in[1], 0)
		var s float32
		for i := range a {
			v := 2*a[i] + bias
			data.PutFloat(out[0], i, v)
			s += v
		}
		data.PutFloat(out[1], 0, data.GetFloat(out[1], 0)+s)
		return nil
	})
}

// streamTestRegion builds a region exercising every buffer flavour at once:
// a partitioned input, a broadcast input, a partitioned output, and an
// order-sensitive float sum reduction.
func streamTestRegion(n int64, seed int64) *Region {
	in := data.Generate(1, int(n), data.Sparse, seed)
	bias := data.Generate(1, 4, data.Dense, seed+1)
	return &Region{
		Kernel:   "mix",
		Registry: testRegistry,
		N:        n,
		Ins: []Buffer{
			{Name: "a", Data: in.Bytes(), BytesPerIter: data.FloatSize},
			{Name: "bias", Data: bias.Bytes()},
		},
		Outs: []Buffer{
			{Name: "y", Data: make([]byte, n*data.FloatSize), BytesPerIter: data.FloatSize},
			{Name: "sum", Data: make([]byte, data.FloatSize), Reduce: ReduceSumF32},
		},
	}
}

// gateOpen reports whether a readiness gate has been closed (opened).
func gateOpen(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestTileSchedOutOfOrderMarks feeds chunk coverage out of order and checks
// gates open in index order exactly when every input covers the tile.
func TestTileSchedOutOfOrderMarks(t *testing.T) {
	r := &Region{
		N: 8,
		Ins: []Buffer{
			{Name: "p", Data: make([]byte, 8), BytesPerIter: 1},
			{Name: "u", Data: make([]byte, 6)},
		},
	}
	s := newTileSched(r, 4) // tiles own iterations [0,2) [2,4) [4,6) [6,8)

	// Out-of-order mark on the partitioned input: nothing can open.
	s.mark(0, 4, 8)
	if gateOpen(s.gate(0)) {
		t.Fatal("gate 0 opened with a hole below the marked interval")
	}
	// Filling the hole covers the partitioned input fully.
	s.mark(0, 0, 4)
	if gateOpen(s.gate(0)) {
		t.Fatal("gate 0 opened before the unpartitioned input finished")
	}
	// Unpartitioned inputs need full coverage, partial is not enough.
	s.mark(1, 0, 5)
	if gateOpen(s.gate(0)) {
		t.Fatal("gate 0 opened on partial unpartitioned coverage")
	}
	s.mark(1, 5, 6)
	for tile := 0; tile < 4; tile++ {
		if !gateOpen(s.gate(tile)) {
			t.Fatalf("gate %d still closed after full coverage", tile)
		}
	}
}

// TestTileSchedIndexOrder checks gates open strictly in index order as the
// partitioned watermark advances tile by tile.
func TestTileSchedIndexOrder(t *testing.T) {
	r := &Region{
		N:   6,
		Ins: []Buffer{{Name: "p", Data: make([]byte, 24), BytesPerIter: 4}},
	}
	s := newTileSched(r, 3) // tile windows: bytes [0,8) [8,16) [16,24)
	s.mark(0, 0, 8)
	if !gateOpen(s.gate(0)) || gateOpen(s.gate(1)) {
		t.Fatal("want exactly gate 0 open after first tile's bytes")
	}
	s.mark(0, 8, 16)
	if !gateOpen(s.gate(1)) || gateOpen(s.gate(2)) {
		t.Fatal("want exactly gates 0-1 open after second tile's bytes")
	}
	s.mark(0, 16, 24)
	if !gateOpen(s.gate(2)) {
		t.Fatal("gate 2 should open at full coverage")
	}
}

// TestTileSchedFailReleasesGates checks that an abort opens every pending
// gate (so gated tasks can observe the error instead of blocking) and wins
// over later marks and errors.
func TestTileSchedFailReleasesGates(t *testing.T) {
	r := &Region{
		N:   4,
		Ins: []Buffer{{Name: "p", Data: make([]byte, 4), BytesPerIter: 1}},
	}
	s := newTileSched(r, 4)
	first := bytes.ErrTooLarge
	s.fail(first)
	for tile := 0; tile < 4; tile++ {
		if !gateOpen(s.gate(tile)) {
			t.Fatalf("gate %d still closed after fail", tile)
		}
	}
	if s.Err() != first {
		t.Fatalf("Err() = %v, want the injected error", s.Err())
	}
	s.fail(bytes.ErrTooLarge)
	s.mark(0, 0, 4) // must not panic on already-closed gates
	if s.Err() != first {
		t.Fatal("first error must win")
	}
}

// TestStreamingMatchesBarriered runs the same region through the streaming
// dataflow and the stage-barriered workflow and requires bit-identical
// outputs, including the order-sensitive float reduction.
func TestStreamingMatchesBarriered(t *testing.T) {
	run := func(overlap int) ([]byte, []byte, *CloudPlugin) {
		cfg := memCloudConfig()
		cfg.ChunkBytes = 1024 // several chunks per buffer at n=4096
		cfg.Overlap = overlap
		p, err := NewCloudPlugin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := streamTestRegion(4096, 31)
		if _, err := p.Run(r); err != nil {
			t.Fatalf("overlap=%d: %v", overlap, err)
		}
		return r.Outs[0].Data, r.Outs[1].Data, p
	}
	bY, bSum, bp := run(-1)
	bp.Close()
	sY, sSum, sp := run(0)
	defer sp.Close()
	if !bytes.Equal(bY, sY) {
		t.Fatal("partitioned output differs between barriered and streaming")
	}
	if !bytes.Equal(bSum, sSum) {
		t.Fatal("float sum reduction differs between barriered and streaming")
	}
}

// TestStreamingReportsCriticalPath checks the accountant's overlap
// decomposition: a streaming run derives a critical path strictly under the
// phase sum, a barriered run does not.
func TestStreamingReportsCriticalPath(t *testing.T) {
	cfg := memCloudConfig()
	cfg.ChunkBytes = 1024
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := streamTestRegion(4096, 7)
	rep, err := p.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CriticalPath <= 0 || rep.CriticalPath >= rep.Total() {
		t.Fatalf("streaming critical path %v not in (0, %v)", rep.CriticalPath, rep.Total())
	}
	if rep.WallOverlap != rep.Total()-rep.CriticalPath {
		t.Fatalf("overlap %v inconsistent with total %v - critical %v",
			rep.WallOverlap, rep.Total(), rep.CriticalPath)
	}
	if rep.Effective() != rep.CriticalPath {
		t.Fatalf("Effective() = %v, want the critical path %v", rep.Effective(), rep.CriticalPath)
	}

	cfg2 := memCloudConfig()
	cfg2.ChunkBytes = 1024
	cfg2.Overlap = -1
	p2, err := NewCloudPlugin(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	r2 := streamTestRegion(4096, 7)
	rep2, err := p2.Run(r2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CriticalPath != 0 || rep2.WallOverlap != 0 {
		t.Fatalf("barriered run reported overlap: critical %v overlap %v",
			rep2.CriticalPath, rep2.WallOverlap)
	}
	if rep2.Effective() != rep2.Total() {
		t.Fatal("barriered Effective() must be the phase sum")
	}
}

// TestStreamingInputFailurePropagates kills the input upload permanently and
// checks the streaming workflow reports the transfer error without hanging
// the gated job.
func TestStreamingInputFailurePropagates(t *testing.T) {
	cfg := memCloudConfig()
	cfg.Faults = faults.New(1).Add(faults.Entry{Op: "put", Key: "/in/"})
	cfg.ChunkBytes = 1024
	cfg.RetryMax = 2
	cfg.RetrySleep = func(time.Duration) {}
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := streamTestRegion(4096, 3)
	_, err = p.Run(r)
	if err == nil {
		t.Fatal("permanent input-leg failure must surface")
	}
	if !strings.Contains(err.Error(), "uploading") {
		t.Fatalf("error %q should name the uploading leg", err)
	}
}

// TestStreamingAvoidedGets checks the streaming path counts its skipped
// manifest round trips: the in-process consumers never GET a root manifest.
func TestStreamingAvoidedGets(t *testing.T) {
	cfg := memCloudConfig()
	cfg.ChunkBytes = 1024
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := streamTestRegion(4096, 11)
	if _, err := p.Run(r); err != nil {
		t.Fatal(err)
	}
	// One multipart input pipe plus one multipart output stream; the tiny
	// broadcast input and the 4-byte sum are single-frame objects, which
	// are the data themselves and cannot be skipped.
	if got := p.CacheStats().AvoidedGets; got < 2 {
		t.Fatalf("AvoidedGets = %d, want >= 2 (input pipe + output stream)", got)
	}
}

// TestTileSchedConcurrentFailAndMark races fail() against a storm of marks
// and duplicate fails: every gate must be released exactly once (a double
// close panics under the race detector's eyes too) and the first error must
// win. Regression test for the worker-death-during-streaming abort path.
func TestTileSchedConcurrentFailAndMark(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		r := &Region{
			N:   64,
			Ins: []Buffer{{Name: "p", Data: make([]byte, 64), BytesPerIter: 1}},
		}
		s := newTileSched(r, 16)
		first := errors.New("worker lost")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for lo := int64(g * 16); lo < 64; lo += 4 {
					s.mark(0, lo, lo+4)
				}
			}(g)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g == 0 {
					s.fail(first)
				} else {
					s.fail(errors.New("late error"))
				}
			}(g)
		}
		wg.Wait()
		for tile := 0; tile < 16; tile++ {
			if !gateOpen(s.gate(tile)) {
				t.Fatalf("iter %d: gate %d still closed after concurrent fail", iter, tile)
			}
		}
		if s.Err() == nil {
			t.Fatalf("iter %d: abort error lost", iter)
		}
	}
}

// TestStreamingWorkerDeathFallsBackWithReason is the end-to-end satellite of
// the abort path: every worker's heartbeat lease expires mid-stream, the
// gated job dies with a transient cluster-loss error, and the manager's host
// fallback reruns the region and surfaces the reason.
func TestStreamingWorkerDeathFallsBackWithReason(t *testing.T) {
	cfg := memCloudConfig()
	cfg.ChunkBytes = 1024
	cfg.Heartbeat = time.Millisecond
	cfg.LeaseMisses = 1
	cfg.Faults = faults.New(1).Add(faults.Entry{Layer: faults.Beat, Worker: faults.Any, Do: faults.Drop})
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	host, _ := NewHostPlugin(2)
	m, _ := NewManager(host)
	id := m.Register(p)
	r := streamTestRegion(4096, 7)
	rep, err := m.Run(id, r)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack {
		t.Fatal("full cluster loss during streaming must fall back to the host")
	}
	if rep.FallbackReason == "" {
		t.Fatal("fallback must carry the device's failure reason")
	}
	if !strings.Contains(rep.FallbackReason, "alive") && !strings.Contains(rep.FallbackReason, "worker") {
		t.Fatalf("FallbackReason %q should name the worker loss", rep.FallbackReason)
	}

	// The host pass rewrote the outputs in full: verify against a clean run.
	want := streamTestRegion(4096, 7)
	hostOnly, _ := NewHostPlugin(2)
	if _, err := hostOnly.Run(want); err != nil {
		t.Fatal(err)
	}
	for l := range r.Outs {
		if !bytes.Equal(r.Outs[l].Data, want.Outs[l].Data) {
			t.Fatalf("fallback output %s diverged", r.Outs[l].Name)
		}
	}
}
