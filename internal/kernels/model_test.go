package kernels_test

import (
	"fmt"
	"slices"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/perf"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
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

// planLog records the report of every plan a device runs: each standalone
// region, and the open, every loop and the close of each environment.
type planLog struct {
	offload.EnvPlugin
	reps []*trace.Report
}

func (l *planLog) keep(rep *trace.Report, err error) (*trace.Report, error) {
	if err == nil {
		l.reps = append(l.reps, rep)
	}
	return rep, err
}

func (l *planLog) Run(r *offload.Region) (*trace.Report, error) { return l.keep(l.EnvPlugin.Run(r)) }

func (l *planLog) OpenEnv(bufs []offload.EnvBuffer) (offload.Env, *trace.Report, error) {
	env, rep, err := l.EnvPlugin.OpenEnv(bufs)
	if err != nil {
		return nil, nil, err
	}
	l.keep(rep, nil)
	return &envLog{Env: env, l: l}, rep, nil
}

type envLog struct {
	offload.Env
	l *planLog
}

func (e *envLog) Run(r *offload.Region) (*trace.Report, error) { return e.l.keep(e.Env.Run(r)) }
func (e *envLog) Close() (*trace.Report, error)                { return e.l.keep(e.Env.Close()) }

// TestShapeMatchesMeasuredTraffic checks model mode against the runtime at the
// seam they share, the one cost builder: one program runs on a cloud device
// with compression off and on the pricing device of the same configuration,
// and plan by plan — every standalone region; the open, each loop and the
// close of an environment — both hand the builder the same tile count, the
// same JNI bytes per tile and the same reconstruct volume, and the same
// scatter, broadcast, collect, upload and download volumes up to the one tag
// byte each stored buffer's wire form carries. Only measured seconds differ.
func TestShapeMatchesMeasuredTraffic(t *testing.T) {
	for _, b := range kernels.All {
		t.Run(b.Name, func(t *testing.T) {
			const n = 48
			cfg := offload.CloudConfig{
				Spec:  spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
				Store: storage.NewMemStore(),
				Codec: xcompress.Codec{MinSize: -1}, // raw wire: sizes comparable
			}
			plugin, err := offload.NewCloudPlugin(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pricing, err := offload.NewPricingDevice(cfg, offload.Pricing{
				IterOps: kernels.IterOps, Throughput: 1e9, Probe: xcompress.Probe{Ratio: 1}, HostParallel: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			measured, model := &planLog{EnvPlugin: plugin}, &planLog{EnvPlugin: pricing}
			for _, dev := range []*planLog{measured, model} {
				rt, err := omp.NewRuntime(2)
				if err != nil {
					t.Fatal(err)
				}
				kind := data.Dense
				if dev == model {
					kind = data.SizeOnly
				}
				if _, err := b.Prepare(n, kind, 5).Run(rt, rt.RegisterDevice(dev)); err != nil {
					t.Fatal(err)
				}
			}
			if len(measured.reps) != len(model.reps) {
				t.Fatalf("the cloud device ran %d plans, the pricing device %d", len(measured.reps), len(model.reps))
			}
			for i, m := range measured.reps {
				p := model.reps[i]
				t.Run(fmt.Sprintf("%d-%s", i, m.Kernel), func(t *testing.T) {
					if p.Kernel != m.Kernel || p.Tiles != m.Tiles || len(m.TileBytes) != m.Tiles || !slices.Equal(p.TileBytes, m.TileBytes) || p.BytesReconstructed != m.BytesReconstructed {
						t.Errorf("the cloud device priced %s over %d tiles, JNI bytes %v, %d B reconstructed; the pricing device %s over %d, %v, %d B",
							m.Kernel, m.Tiles, m.TileBytes, m.BytesReconstructed, p.Kernel, p.Tiles, p.TileBytes, p.BytesReconstructed)
					}
					const slack = 8
					for _, c := range []struct {
						link            string
						measured, model int64
					}{
						{"scattered", m.BytesScattered, p.BytesScattered},
						{"broadcast", m.BytesBroadcast, p.BytesBroadcast},
						{"collected", m.BytesCollected, p.BytesCollected},
						{"uploaded", m.BytesUploaded, p.BytesUploaded},
						{"downloaded", m.BytesDownloaded, p.BytesDownloaded},
					} {
						if diff := c.measured - c.model; diff < 0 || diff > slack {
							t.Errorf("%s: the cloud device moved %d bytes, the pricing device %d", c.link, c.measured, c.model)
						}
					}
				})
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
