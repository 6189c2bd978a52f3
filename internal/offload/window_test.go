package offload

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
)

// twice is scale2 without the decoded input copy: out[i] = 2 * in[i] through
// element reads and writes, so the body allocates nothing.
func twice(_, _ int64, _ []int64, in, out [][]byte) error {
	for i := range len(in[0]) / data.FloatSize {
		data.PutFloat(out[0], i, 2*data.GetFloat(in[0], i))
	}
	return nil
}

// TestTileOutputsLandInPlace is the copy budget of the reconstruction step: a
// streamed region's tiles compute their partitioned outputs in their windows
// of the driver's reconstruction buffer, with no per-tile output beside them
// (which took a buffer's worth), and a repeated region draws the input's
// driver copy and that buffer from the arena again (fresh, they took two). What
// is left is the transfer working set, well under the one buffer a fresh copy
// of either would take.
func TestTileOutputsLandInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("TotalAlloc budgets are meaningless under -race")
	}
	const size = 8 << 20
	n := int64(size / data.FloatSize)
	in := data.Generate(1, int(n), data.Sparse, 17).Bytes()
	want := make([]byte, size)
	twice(0, n, nil, [][]byte{in}, [][]byte{want})
	reg := fatbin.NewRegistry()
	reg.Register("twice", twice)
	cfg := memCloudConfig()
	cfg.Store = storage.NewMemStore()
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, size)
	run := func() uint64 {
		r := scale2Region(n, in, out)
		r.Kernel, r.Registry = "twice", reg
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := p.Run(r); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm the codec and transfer pools
	clear(out)
	if got, budget := run(), uint64(size*3/4); got > budget {
		t.Fatalf("a %d-byte streamed region allocated %d bytes, want at most %d: per-tile outputs or fresh driver buffers are back", size, got, budget)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("output differs from the serial reference")
	}
}

// accumulate3 is shaped like the mm body: it clears its out window, then
// accumulates into it, so a window two writers share, or one a failed attempt
// left dirty and nobody rewrote, shows in the result.
func accumulate3(in, out []byte) {
	clear(out)
	for range 3 {
		for i := range len(in) / data.FloatSize {
			data.PutFloat(out, i, data.GetFloat(out, i)+data.GetFloat(in, i))
		}
	}
}

func fillNaN(b []byte) {
	for i := range len(b) / data.FloatSize {
		data.PutFloat(b, i, float32(math.NaN()))
	}
}

// windowProbe runs accumulate3 and records, for every invocation of one
// victim tile, whether the body was handed a window of the reconstruction
// buffer (a window of a larger buffer has spare capacity; a private output
// has none). hook, when set, runs first on the victim and may fail it;
// computed, when set, runs once the victim's body has computed its tile.
type windowProbe struct {
	victimLo int64
	hook     func(call int, inPlace bool, out []byte) error
	computed func(inPlace bool)

	mu      sync.Mutex
	inPlace []bool
}

func (w *windowProbe) body(lo, _ int64, _ []int64, in, out [][]byte) error {
	if lo == w.victimLo {
		inPlace := cap(out[0]) > len(out[0])
		w.mu.Lock()
		call := len(w.inPlace)
		w.inPlace = append(w.inPlace, inPlace)
		w.mu.Unlock()
		if w.hook != nil {
			if err := w.hook(call, inPlace, out[0]); err != nil {
				return err
			}
		}
	}
	accumulate3(in[0], out[0])
	if lo == w.victimLo && w.computed != nil {
		w.computed(cap(out[0]) > len(out[0]))
	}
	return nil
}

// TestWindowOwnership runs a tile twice in each way the engine can — a
// speculative backup racing a straggler that holds the window, a retry after
// a body that dirtied its window and failed, a retry after a fault before the
// body, a retry after a crash that lost a finished result — in both dataflow
// modes. Every run must be bit-identical to the serial reference, give back
// every arena buffer it drew, and the victim tile's invocations must have
// claimed the window exactly as stated.
func TestWindowOwnership(t *testing.T) {
	const n, tiles, victim = 4096, 8, 2
	in := data.Generate(1, n, data.Dense, 41).Bytes()
	want := make([]byte, len(in))
	accumulate3(in, want)
	victimLo, _ := TileRange(n, tiles, victim)

	cases := []struct {
		name string
		arm  func(cfg *CloudConfig, w *windowProbe)
		// calls is the victim's invocations, true where the body computed
		// in place; nil checks only that the first did and the second not.
		calls []bool
	}{
		{
			// The original copy parks inside its body, holding the window,
			// until a backup has computed the tile privately; then it
			// scribbles NaN over the window and dies. The backup's result
			// must reach the window only after the straggler left it.
			name: "straggler-holds-window",
			arm: func(cfg *CloudConfig, w *windowProbe) {
				back := make(chan struct{})
				var once sync.Once
				cfg.Speculate, cfg.SpeculateQuantile = true, 0.5
				w.computed = func(inPlace bool) {
					if !inPlace {
						once.Do(func() { close(back) })
					}
				}
				parked := false // read and written only by the window's holder
				w.hook = func(_ int, inPlace bool, out []byte) error {
					if !inPlace || parked {
						return nil
					}
					parked = true
					select {
					case <-back:
					case <-time.After(10 * time.Second):
						return errors.New("no backup copy ever computed the tile")
					}
					// Time for a reconstruct that did not wait for the window to
					// copy the backup in before the scribble; a pass does not
					// depend on it.
					time.Sleep(20 * time.Millisecond)
					fillNaN(out)
					return errors.New("straggler died after scribbling its window")
				}
			},
		},
		{
			name: "nan-then-transient",
			arm: func(_ *CloudConfig, w *windowProbe) {
				w.hook = func(call int, _ bool, out []byte) error {
					if call > 0 {
						return nil
					}
					fillNaN(out)
					return resilience.MarkTransient(errors.New("executor lost mid-body"))
				}
			},
			calls: []bool{true, true}, // the retry reclaims the dirty window and rewrites it
		},
		{
			name:  "fail-partition-attempts",
			arm:   func(cfg *CloudConfig, _ *windowProbe) { cfg.Faults = failAttempts(victim, 2) },
			calls: []bool{true},
		},
		{
			name: "crash-after-success",
			arm: func(cfg *CloudConfig, _ *windowProbe) {
				cfg.Faults = faults.New(1).Add(faults.Entry{Layer: faults.After, Partition: victim, Worker: faults.Any, To: 1})
			},
			calls: []bool{true, false}, // the window is whole already: the retry computes privately
		},
	}
	for _, tc := range cases {
		for _, barriered := range []bool{false, true} {
			name := tc.name + "/stream"
			if barriered {
				name = tc.name + "/barrier"
			}
			t.Run(name, func(t *testing.T) {
				settled := arenaSettles(t)
				w := &windowProbe{victimLo: victimLo}
				reg := fatbin.NewRegistry()
				reg.Register("acc3", w.body)
				cfg := CloudConfig{
					Spec:            spark.ClusterSpec{Workers: 4, CoresPerWorker: 2},
					Store:           storage.NewMemStore(),
					ChunkBytes:      4096,
					RetrySleep:      func(time.Duration) {},
					RealParallelism: 4,
					Fallback:        FallbackFail,
				}
				if barriered {
					cfg.Overlap = -1
				}
				tc.arm(&cfg, w)
				p, err := NewCloudPlugin(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				out := make([]byte, len(in))
				r := scale2Region(n, in, out)
				r.Kernel, r.Registry, r.Tiles = "acc3", reg, tiles
				rep, err := p.Run(r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, want) {
					t.Fatal("output differs from the serial reference")
				}
				settled()
				w.mu.Lock()
				calls := w.inPlace
				w.mu.Unlock()
				if tc.calls != nil {
					if !slices.Equal(calls, tc.calls) {
						t.Fatalf("victim invocations computed in place: %v, want %v", calls, tc.calls)
					}
					return
				}
				if len(calls) < 2 || !calls[0] || calls[1] {
					t.Fatalf("victim invocations computed in place: %v, want the straggler in place and its backup private", calls)
				}
				if rep.SpeculativeWins+rep.SpeculativeLosses == 0 {
					t.Fatal("no backup copy was launched")
				}
			})
		}
	}
}
