package kernels

import (
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
)

// TestRegionSteadyStateAlloc pins what one region op allocates once warm,
// with two whole collections between ops — a benchmark harness's forced
// collection and one the result check's allocation triggers. The region is
// a 16-row slice of a sparse GEMM at N=600 on the cloud device over a
// loopback storage.Serve: B (1.44 MB) is probed once (its gzip size probe
// and zero-run trial) and moves as two zero-run chunks, each encoded into
// and received into scratch, while the 16-row A and C stay under the
// codec's size threshold and move raw. So each op draws the same recycled
// state — the driver's buffers and the store's objects, encode, frame and
// probe scratch, one gzip writer (~1.3 MB) — and that state must outlive the
// collections: after warm-up each op allocates no more than its working set
// and no op more than 64 KiB above the median, where a re-created gzip
// writer or chunk buffer shows as an op a megabyte over.
func TestRegionSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("TotalAlloc budgets are meaningless under -race")
	}
	srv, err := storage.Serve("127.0.0.1:0", storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := storage.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	plugin, err := offload.NewCloudPlugin(offload.CloudConfig{
		Spec:  spark.ClusterSpec{Workers: 1, CoresPerWorker: 4},
		Store: cli,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plugin.Close()
	rt, err := omp.NewRuntime(2)
	if err != nil {
		t.Fatal(err)
	}
	dev := rt.RegisterDevice(plugin)
	openConns(t, cli)

	const n, rows = 600, 16
	a := data.Generate(rows, n, data.Sparse, 5)
	b := data.Generate(n, n, data.Sparse, 6)
	c0 := data.Generate(rows, n, data.Sparse, 7)
	c := c0.Clone()
	gemm, err := fatbin.Lookup("gemm")
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]byte, rows*n*data.FloatSize)
	if err := gemm.Body(0, rows, []int64{n}, [][]byte{a.Bytes(), b.Bytes(), c0.Bytes()}, [][]byte{ref}); err != nil {
		t.Fatal(err)
	}
	want, _ := data.FloatView(ref)
	op := func() uint64 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		copy(c.V, c0.V)
		_, err := rt.Target(dev,
			omp.To("A", a).Partition(n),
			omp.To("B", b),
			omp.ToFrom("C", c).Partition(n),
		).ParallelFor(rows, "gemm", n)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareExact("gemm C", c.V, want); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for range 3 {
		op() // warm the arena and the connections
	}
	const ops = 12
	per := make([]uint64, ops)
	for i := range per {
		per[i] = op()
	}
	sorted := slices.Clone(per)
	slices.Sort(sorted)
	median := sorted[ops/2]
	t.Logf("bytes per op: %v (median %d)", per, median)
	const workingSet, spread = 256 << 10, 64 << 10
	for i, b := range per {
		if b > workingSet || b > median+spread {
			t.Fatalf("op %d allocated %d bytes (median %d): over the %d-byte working set or %d bytes above the median; recycled state did not outlive the collections between ops",
				i, b, median, workingSet, spread)
		}
	}
}

// openConns has the client dial every connection it may keep (a
// RemoteStore keeps up to 8): eight readers each hold one inside GetStream
// until all eight have one, or a second has passed, so no op dials a
// connection — and allocates its buffers — of its own.
func openConns(t *testing.T, cli *storage.RemoteStore) {
	t.Helper()
	if err := cli.Put("warm", []byte{1}); err != nil {
		t.Fatal(err)
	}
	const conns = 8
	var (
		wg   sync.WaitGroup
		in   atomic.Int32
		all  = make(chan struct{})
		errs = make(chan error, conns)
	)
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cli.GetStream("warm", func(_ int64, r io.Reader) error {
				if _, err := io.Copy(io.Discard, r); err != nil {
					return err
				}
				if in.Add(1) == conns {
					close(all)
				}
				select {
				case <-all:
				case <-time.After(time.Second):
				}
				return nil
			})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
