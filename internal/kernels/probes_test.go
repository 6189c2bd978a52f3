package kernels

import (
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

// TestAutoProbeWork counts the auto codec's verdict work per op at N=512,
// dense, on the benchmark's device (1 worker x 16 cores, default codec and
// chunking) over a loopback storage.Serve. Every mapped buffer is 1 MiB, so
// each probe is three 64 KiB deflate samples (one deflate block each), all
// over SkipRatio:
//   - a GEMM region probes its three uploads (A, B, C) and C's download;
//   - a 3MM environment probes its four uploads (A-D), the three loop
//     outputs sampleResident prices (E, F, G; the inputs keep the ratio
//     their upload measured) and G's download.
func TestAutoProbeWork(t *testing.T) {
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
		Spec:  spark.ClusterSpec{Workers: 1, CoresPerWorker: 16},
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

	const n, sample = 512, 64 << 10
	for _, tc := range []struct {
		bench  *Benchmark
		probes int64
	}{
		{GEMM, 4},
		{ThreeMM, 8},
	} {
		t.Run(tc.bench.Name, func(t *testing.T) {
			w := tc.bench.Prepare(n, data.Dense, 11)
			for op := range 2 {
				m := span.Metrics()
				probes, encoded := m.Counter("xcompress.probes"), m.Counter("xcompress.probe_bytes")
				p0, b0 := probes.Value(), encoded.Value()
				if _, err := w.Run(rt, dev); err != nil {
					t.Fatal(err)
				}
				if err := w.Verify(); err != nil {
					t.Fatal(err)
				}
				gotP, gotB := probes.Value()-p0, encoded.Value()-b0
				if wantB := tc.probes * 3 * sample; gotP != tc.probes || gotB != wantB {
					t.Errorf("op %d: %d probes encoding %d bytes, want %d probes and %d bytes", op, gotP, gotB, tc.probes, wantB)
				}
			}
		})
	}
}
