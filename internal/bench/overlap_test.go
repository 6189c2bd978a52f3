package bench

import (
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/storage"
)

// overlapTestPlugin builds a small chunked cloud device with the overlap
// knob set and fast, sleepless retries.
func overlapTestPlugin(st storage.Store, overlap int) (*offload.CloudPlugin, error) {
	return offload.NewCloudPlugin(offload.CloudConfig{
		Spec:       ClusterFor(chaosCores),
		Store:      st,
		ChunkBytes: 4096,
		Overlap:    overlap,
		RetryMax:   4,
		RetrySleep: func(time.Duration) {},
	})
}

// runKernelOverlap runs one benchmark on a fresh device and returns its
// output snapshot.
func runKernelOverlap(t *testing.T, b *kernels.Benchmark, st storage.Store, n int, seed int64, overlap int) [][]float32 {
	t.Helper()
	rt, err := omp.NewRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	plugin, err := overlapTestPlugin(st, overlap)
	if err != nil {
		t.Fatal(err)
	}
	defer plugin.Close()
	w := b.Prepare(n, data.Dense, seed)
	if _, err := w.Run(rt, rt.RegisterDevice(plugin)); err != nil {
		t.Fatalf("%s overlap=%d: %v", b.Name, overlap, err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("%s overlap=%d: %v", b.Name, overlap, err)
	}
	return snapshotOutputs(w)
}

// TestStreamingBitIdenticalAllKernels is the tentpole's correctness gate:
// every one of the paper's eight kernels must produce bit-identical outputs
// in the streaming dataflow and the stage-barriered workflow — and again
// streaming under the storage fault schedule of the chaos suite.
func TestStreamingBitIdenticalAllKernels(t *testing.T) {
	const n, seed = 64, 9
	for _, b := range kernels.All {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			barriered := runKernelOverlap(t, b, storage.NewMemStore(), n, seed, -1)
			streaming := runKernelOverlap(t, b, storage.NewMemStore(), n, seed, 0)
			if err := compareOutputs(barriered, streaming); err != nil {
				t.Fatalf("%s: streaming vs barriered: %v", b.Name, err)
			}

			sched := chaosFaults()
			chaotic := runKernelOverlap(t, b, storage.WithFaults(storage.NewMemStore(), sched), n, seed, 0)
			if err := compareOutputs(barriered, chaotic); err != nil {
				t.Fatalf("%s: streaming under chaos vs barriered: %v", b.Name, err)
			}
			if sched.Fired(faults.Store) == 0 {
				t.Fatalf("%s: chaos schedule never fired", b.Name)
			}
		})
	}
}

// TestOverlapBenchSmall smoke-tests the overlap benchmark end to end at a
// size small enough for CI, checking shape rather than speedup.
func TestOverlapBenchSmall(t *testing.T) {
	res, err := RunOverlapBench(OverlapConfig{
		MiBs:      []int{1},
		WANMbps:   2000,
		LatencyMs: 0.1,
		Tiles:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 {
		t.Fatalf("want sparse+dense cases, got %d", len(res.Cases))
	}
	for _, c := range res.Cases {
		if !c.Identical {
			t.Fatalf("%s %d MiB: outputs not identical", c.Kind, c.MiB)
		}
		if c.BarrierWallS <= 0 || c.StreamWallS <= 0 {
			t.Fatalf("%s %d MiB: missing wall times", c.Kind, c.MiB)
		}
	}
	if res.Chaos == nil || !res.Chaos.Identical || res.Chaos.FaultsFired == 0 {
		t.Fatalf("chaos cross-check incomplete: %+v", res.Chaos)
	}
}
