package kernels_test

import (
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/perf"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

func TestOpsAndBytesFormulas(t *testing.T) {
	for _, b := range kernels.All {
		if ops := b.Ops(128); ops <= 0 {
			t.Fatalf("%s: non-positive op count", b.Name)
		}
		// Cubic growth: doubling n must scale ops by ~8.
		r := b.Ops(256) / b.Ops(128)
		if r < 7 || r > 9 {
			t.Fatalf("%s: ops growth ratio %f, want ~8 (cubic)", b.Name, r)
		}
		prog, err := perf.Lower(b, 128)
		if err != nil {
			t.Fatal(err)
		}
		if prog.In <= 0 || prog.Out <= 0 {
			t.Fatalf("%s: the program maps (%d, %d) bytes across the host-target link", b.Name, prog.In, prog.Out)
		}
		if b.PaperN <= 0 || len(prog.Loops) == 0 || b.Suite == "" {
			t.Fatalf("%s: incomplete metadata", b.Name)
		}
	}
}

// TestShapeMetadataConsistency: each benchmark's program, lowered onto
// size-only buffers, has loops whose per-iteration operation counts —
// declared next to each loop body — sum exactly to the benchmark's Ops, at a
// test dimension and at paper scale. The compute model mode charges is
// therefore the program's own.
func TestShapeMetadataConsistency(t *testing.T) {
	for _, b := range kernels.All {
		for _, n := range []int{64, b.PaperN} {
			prog, err := perf.Lower(b, n)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, loop := range prog.Loops {
				if loop.Kernel == "" || loop.N <= 0 {
					t.Fatalf("%s: malformed loop %+v", b.Name, loop)
				}
				ops, err := kernels.IterOps(loop.Kernel, loop.Scalars)
				if err != nil {
					t.Fatal(err)
				}
				sum += float64(loop.N) * ops
			}
			if sum != b.Ops(n) {
				t.Fatalf("%s at n=%d: loops count %g operations, Ops says %g", b.Name, n, sum, b.Ops(n))
			}
		}
	}
	if _, err := kernels.IterOps("no-such-body", nil); err == nil {
		t.Fatal("an unknown loop body should have no operation count")
	}
}

// TestShapeMatchesMeasuredTraffic cross-checks model mode against reality on
// every benchmark: one program, run on a cloud device with compression off
// and priced by the model with DisableCompression, moves the same bytes over
// every link — scattered and broadcast inside the cluster, uploaded and
// downloaded across the host-target link — up to the one tag byte each
// stored buffer's wire form carries.
func TestShapeMatchesMeasuredTraffic(t *testing.T) {
	cal := &perf.Calibration{
		Throughput:   map[string]float64{},
		Probes:       map[data.Kind]xcompress.Probe{data.Dense: {Ratio: 1}},
		HostParallel: 1,
	}
	for _, b := range kernels.All {
		cal.Throughput[b.Name] = 1e9
	}
	for _, b := range kernels.All {
		t.Run(b.Name, func(t *testing.T) {
			n := 48
			rt, err := omp.NewRuntime(2)
			if err != nil {
				t.Fatal(err)
			}
			plugin, err := offload.NewCloudPlugin(offload.CloudConfig{
				Spec:  spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
				Store: storage.NewMemStore(),
				Codec: xcompress.Codec{MinSize: -1}, // raw wire: sizes comparable
			})
			if err != nil {
				t.Fatal(err)
			}
			measured, err := b.Prepare(n, data.Dense, 5).Run(rt, rt.RegisterDevice(plugin))
			if err != nil {
				t.Fatal(err)
			}
			model, err := cal.Predict(perf.Scenario{
				Bench: b, N: n, Kind: data.Dense, Workers: 2, CoresPerWorker: 2,
				DisableCompression: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			const slack = 8
			for _, c := range []struct {
				link            string
				measured, model int64
			}{
				{"scattered", measured.BytesScattered, model.BytesScattered},
				{"broadcast", measured.BytesBroadcast, model.BytesBroadcast},
				{"uploaded", measured.BytesUploaded, model.BytesUploaded},
				{"downloaded", measured.BytesDownloaded, model.BytesDownloaded},
			} {
				if diff := c.measured - c.model; diff < 0 || diff > slack {
					t.Errorf("%s: the cloud device moved %d bytes, the model %d", c.link, c.measured, c.model)
				}
			}
		})
	}
}

// TestSizeOnlyWorkloadsNeverRun: a program prepared with size-only matrices
// has nothing to compute on. The host, the cloud device and the device set
// each refuse it with an error before a single tile runs.
func TestSizeOnlyWorkloadsNeverRun(t *testing.T) {
	rt, err := omp.NewRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	plugin, err := offload.NewCloudPlugin(offload.CloudConfig{
		Spec:  spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
		Store: storage.NewMemStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	devices := map[string]omp.Device{
		"host":  rt.HostDevice(),
		"cloud": rt.RegisterDevice(plugin),
		"multi": rt.RegisterDevice(multiSet(t, 0, false)),
	}
	for _, b := range kernels.All {
		for name, dev := range devices {
			calls := fatbin.Default.Calls()
			if _, err := b.Prepare(32, data.SizeOnly, 1).Run(rt, dev); err == nil {
				t.Errorf("%s on %s: a size-only workload ran", b.Name, name)
			}
			if ran := fatbin.Default.Calls() - calls; ran != 0 {
				t.Errorf("%s on %s: %d tiles ran on size-only buffers", b.Name, name, ran)
			}
		}
	}
}
