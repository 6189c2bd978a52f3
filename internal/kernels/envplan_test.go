package kernels

import (
	"math"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/xcompress"
)

// runEnvKernel runs one of the target-data kernels (N=48, dense, seed 7) on
// a 4x2 cloud device with a raw codec, so no measured codec seconds decide a
// transfer leg: each leg is wire-bound and its virtual time is exact.
func runEnvKernel(t *testing.T, name string, mutate func(*offload.CloudConfig)) *trace.Report {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := omp.NewRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := offload.CloudConfig{
		Spec:       spark.ClusterSpec{Workers: 4, CoresPerWorker: 2},
		Store:      storage.NewMemStore(),
		Codec:      xcompress.Codec{Algo: xcompress.AlgoRaw},
		ChunkBytes: 4096,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := offload.NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := b.Prepare(48, data.Dense, 7)
	rep, err := w.Run(rt, rt.RegisterDevice(p))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestEnvVirtualTimeGolden pins the merged environment report of 2MM, 3MM
// and COVAR to the values recorded before open and close moved onto Account:
// routing the hoisted transfer legs through the shared accountant must not
// change what they cost. The transfer phases, every byte volume, tiles and
// cores are exact. The Spark and compute phases carry measured task time, so
// they are bounded instead: Spark overhead is one JobSubmit per loop plus
// small change — a constant charged to the transfer-only open or close plan
// (a job they never submit) would add whole seconds.
func TestEnvVirtualTimeGolden(t *testing.T) {
	golden := []struct {
		kernel                     string
		loops                      int
		upload, download           simtime.Duration
		bytesUp, bytesDown         int64
		scattered, bcast, collects int64
		tiles                      int
	}{
		{"2mm", 2, 41513760, 40378560, 37844, 9464, 27648, 18432, 18432, 16},
		{"3mm", 3, 41513760, 40378560, 37844, 9464, 27648, 27648, 27648, 24},
		{"covar", 2, 40378800, 40378800, 9470, 9470, 0, 18624, 9408, 16},
	}
	for _, g := range golden {
		t.Run(g.kernel, func(t *testing.T) {
			rep := runEnvKernel(t, g.kernel, nil)
			if got := rep.Phases[trace.PhaseUpload]; got != g.upload {
				t.Errorf("upload phase = %d, want %d", got, g.upload)
			}
			if got := rep.Phases[trace.PhaseDownload]; got != g.download {
				t.Errorf("download phase = %d, want %d", got, g.download)
			}
			if rep.BytesUploaded != g.bytesUp || rep.BytesDownloaded != g.bytesDown {
				t.Errorf("WAN bytes = %d up / %d down, want %d / %d",
					rep.BytesUploaded, rep.BytesDownloaded, g.bytesUp, g.bytesDown)
			}
			if rep.BytesScattered != g.scattered || rep.BytesBroadcast != g.bcast || rep.BytesCollected != g.collects {
				t.Errorf("LAN bytes = %d scattered / %d broadcast / %d collected, want %d / %d / %d",
					rep.BytesScattered, rep.BytesBroadcast, rep.BytesCollected, g.scattered, g.bcast, g.collects)
			}
			if rep.Tiles != g.tiles || rep.Cores != 8 {
				t.Errorf("tiles/cores = %d/%d, want %d/8", rep.Tiles, rep.Cores, g.tiles)
			}
			submit := simtime.Duration(g.loops) * spark.DefaultCosts().JobSubmit
			if over := rep.Phases[trace.PhaseSpark] - submit; over <= 0 || over > 500*simtime.Millisecond {
				t.Errorf("spark phase = %v: %v beyond %d job submissions; want a small positive remainder",
					rep.Phases[trace.PhaseSpark], over, g.loops)
			}
			if rep.CriticalPath != 0 || rep.Effective() != rep.Total() {
				t.Errorf("env phases are barriered: Effective %v should be the phase sum %v", rep.Effective(), rep.Total())
			}
		})
	}
}

// The env path prices its plans like every other: 2MM, 3MM and COVAR on a
// priced device used to report CostUSD == 0 while GEMM reported a cost.
func TestEnvKernelsArePriced(t *testing.T) {
	for _, kernel := range []string{"2mm", "3mm", "covar", "gemm"} {
		rep := runEnvKernel(t, kernel, func(c *offload.CloudConfig) {
			c.CostCoreHourUSD = 0.105
			c.CostEgressGiBUSD = 0.09
		})
		want := 0.105*float64(rep.Cores)*rep.Effective().Seconds()/3600 +
			0.09*float64(rep.BytesDownloaded)/(1<<30)
		if rep.CostUSD <= 0 || math.Abs(rep.CostUSD-want) > want*1e-9 {
			t.Errorf("%s: CostUSD = %v, want %v", kernel, rep.CostUSD, want)
		}
	}
}
