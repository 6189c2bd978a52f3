package perf

import (
	"runtime"
	"sync"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/simtime"
	"ompcloud/internal/trace"
	"ompcloud/internal/xcompress"
)

// calOnce calibrates once for the whole test package: real kernel runs at
// n=96 keep the suite fast while exercising the full calibration path.
var (
	calMu   sync.Mutex
	calMemo *Calibration
)

func testCal(t *testing.T) *Calibration {
	t.Helper()
	calMu.Lock()
	defer calMu.Unlock()
	if calMemo == nil {
		cal, err := Calibrate(kernels.All, CalibrateOptions{N: 96, ProbeBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		calMemo = cal
	}
	return calMemo
}

func TestCalibrateMeasuresEverything(t *testing.T) {
	cal := testCal(t)
	for _, b := range kernels.All {
		if cal.Throughput[b.Name] <= 0 {
			t.Fatalf("%s: no throughput", b.Name)
		}
	}
	sparse, dense := cal.Probes[data.Sparse], cal.Probes[data.Dense]
	if sparse.Ratio >= dense.Ratio {
		t.Fatalf("sparse ratio %f must beat dense %f", sparse.Ratio, dense.Ratio)
	}
	if dense.Ratio < 0.8 {
		t.Fatalf("random float32 should be near-incompressible, ratio %f", dense.Ratio)
	}
	if cal.HostParallel != runtime.GOMAXPROCS(0) {
		t.Fatalf("host codec width %d, GOMAXPROCS is %d", cal.HostParallel, runtime.GOMAXPROCS(0))
	}
}

func TestSerialAndHostPrediction(t *testing.T) {
	cal := testCal(t)
	serial, err := cal.SerialSeconds(kernels.GEMM, 1024)
	if err != nil || serial <= 0 {
		t.Fatalf("serial = %v, %v", serial, err)
	}
	h16, err := cal.HostSeconds(kernels.GEMM, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	if h16*15 > serial || h16*17 < serial {
		t.Fatalf("16-thread host prediction %v not ~serial/16 (%v)", h16, serial/16)
	}
	if _, err := cal.HostSeconds(kernels.GEMM, 64, 0); err == nil {
		t.Fatal("0 threads should error")
	}
	unknown := &kernels.Benchmark{Name: "mystery", Ops: func(int) float64 { return 1 }}
	if _, err := cal.SerialSeconds(unknown, 10); err == nil {
		t.Fatal("uncalibrated benchmark should error")
	}
}

func paperScenario(b *kernels.Benchmark, cores int, kind data.Kind) Scenario {
	workers, cpw := 1, cores
	if cores > 16 {
		workers, cpw = cores/16, 16
	}
	return Scenario{Bench: b, Kind: kind, Workers: workers, CoresPerWorker: cpw}
}

func TestPredictProducesFullDecomposition(t *testing.T) {
	cal := testCal(t)
	rep, err := cal.Predict(paperScenario(kernels.GEMM, 64, data.Dense))
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []trace.Phase{trace.PhaseUpload, trace.PhaseSpark, trace.PhaseCompute, trace.PhaseDownload} {
		if rep.Phases[ph] <= 0 {
			t.Fatalf("phase %s empty: %v", ph, rep.Phases)
		}
	}
	if rep.Cores != 64 {
		t.Fatalf("Cores = %d", rep.Cores)
	}
}

func TestComputeSpeedupScalesLinearly(t *testing.T) {
	cal := testCal(t)
	for _, b := range []*kernels.Benchmark{kernels.GEMM, kernels.ThreeMM, kernels.Collinear} {
		_, _, c8, err := cal.Speedups(paperScenario(b, 8, data.Dense))
		if err != nil {
			t.Fatal(err)
		}
		_, _, c256, err := cal.Speedups(paperScenario(b, 256, data.Dense))
		if err != nil {
			t.Fatal(err)
		}
		if c8 < 7 || c8 > 8.5 {
			t.Fatalf("%s: 8-core computation speedup %f, want ~8", b.Name, c8)
		}
		if c256 < 150 || c256 > 260 {
			t.Fatalf("%s: 256-core computation speedup %f, want high but sublinear", b.Name, c256)
		}
	}
}

func TestSpeedupOrderingFullSparkComputation(t *testing.T) {
	// By construction full <= spark <= computation (each strips overhead).
	cal := testCal(t)
	for _, b := range kernels.All {
		for _, cores := range []int{8, 64, 256} {
			full, spk, comp, err := cal.Speedups(paperScenario(b, cores, data.Dense))
			if err != nil {
				t.Fatal(err)
			}
			if !(full <= spk+1e-9 && spk <= comp+1e-9) {
				t.Fatalf("%s@%d: ordering violated: full=%f spark=%f comp=%f",
					b.Name, cores, full, spk, comp)
			}
			if full <= 0 {
				t.Fatalf("%s@%d: non-positive speedup", b.Name, cores)
			}
		}
	}
}

func TestSparseBeatsDenseOnFullTime(t *testing.T) {
	if raceEnabled {
		t.Skip("calibration-sensitive: -race distorts measured gzip economics")
	}
	// Fig. 5: dense data inflates communication, so sparse runs finish
	// sooner end-to-end while computation stays put.
	cal := testCal(t)
	for _, b := range []*kernels.Benchmark{kernels.GEMM, kernels.SYRK} {
		sparse, err := cal.Predict(paperScenario(b, 64, data.Sparse))
		if err != nil {
			t.Fatal(err)
		}
		dense, err := cal.Predict(paperScenario(b, 64, data.Dense))
		if err != nil {
			t.Fatal(err)
		}
		if sparse.HostTargetComm() >= dense.HostTargetComm() {
			t.Fatalf("%s: sparse comm %v should beat dense %v",
				b.Name, sparse.HostTargetComm(), dense.HostTargetComm())
		}
		sc, dc := sparse.ComputeTime().Seconds(), dense.ComputeTime().Seconds()
		if sc/dc > 1.01 || dc/sc > 1.01 {
			t.Fatalf("%s: computation must not depend on data kind: %v vs %v", b.Name, sc, dc)
		}
	}
}

func TestHostTargetCommConstantAcrossCores(t *testing.T) {
	// Fig. 5: the host-target bar stays flat as the cluster grows.
	cal := testCal(t)
	r8, err := cal.Predict(paperScenario(kernels.GEMM, 8, data.Dense))
	if err != nil {
		t.Fatal(err)
	}
	r256, err := cal.Predict(paperScenario(kernels.GEMM, 256, data.Dense))
	if err != nil {
		t.Fatal(err)
	}
	a, b := r8.HostTargetComm().Seconds(), r256.HostTargetComm().Seconds()
	if a/b > 1.05 || b/a > 1.05 {
		t.Fatalf("host-target comm should be core-independent: %v vs %v", a, b)
	}
}

func TestSparkOverheadGrowsWithCores(t *testing.T) {
	// Fig. 4 analysis: the spark-vs-computation gap widens with the
	// cluster (SYRK 17% -> 69% in the paper).
	cal := testCal(t)
	ratio := func(cores int) float64 {
		rep, err := cal.Predict(paperScenario(kernels.SYRK, cores, data.Dense))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Phases[trace.PhaseSpark].Seconds() / rep.SparkTime().Seconds()
	}
	if r8, r256 := ratio(8), ratio(256); r256 <= r8 {
		t.Fatalf("SYRK spark-overhead share must grow: %f at 8 -> %f at 256", r8, r256)
	}
}

func TestCollinearHasTinyCommShare(t *testing.T) {
	cal := testCal(t)
	rep, err := cal.Predict(paperScenario(kernels.Collinear, 256, data.Dense))
	if err != nil {
		t.Fatal(err)
	}
	comm, _, compute := rep.Shares()
	if comm > 0.02 {
		t.Fatalf("collinear-list comm share %f should be negligible", comm)
	}
	if compute < 0.5 {
		t.Fatalf("collinear-list compute share %f should dominate", compute)
	}
}

func TestAblationFlags(t *testing.T) {
	if raceEnabled {
		t.Skip("calibration-sensitive: -race distorts measured gzip economics")
	}
	cal := testCal(t)
	base, err := cal.Predict(paperScenario(kernels.GEMM, 256, data.Dense))
	if err != nil {
		t.Fatal(err)
	}
	// Without Algorithm 1 tiling: one task per iteration, far more JNI
	// crossings and dispatch => slower.
	noTiling := paperScenario(kernels.GEMM, 256, data.Dense)
	noTiling.DisableTiling = true
	nt, err := cal.Predict(noTiling)
	if err != nil {
		t.Fatal(err)
	}
	if nt.Total() <= base.Total() {
		t.Fatalf("untiled run %v should be slower than tiled %v", nt.Total(), base.Total())
	}
	// Without compression: sparse inputs lose their discount.
	noComp := paperScenario(kernels.GEMM, 64, data.Sparse)
	noComp.DisableCompression = true
	nc, err := cal.Predict(noComp)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := cal.Predict(paperScenario(kernels.GEMM, 64, data.Sparse))
	if err != nil {
		t.Fatal(err)
	}
	if nc.HostTargetComm() <= comp.HostTargetComm() {
		t.Fatal("disabling compression should inflate sparse communication")
	}
	// Star broadcast costs at least as much as BitTorrent.
	star := paperScenario(kernels.SYRK, 256, data.Dense)
	star.StarBroadcast = true
	sb, err := cal.Predict(star)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := cal.Predict(paperScenario(kernels.SYRK, 256, data.Dense))
	if err != nil {
		t.Fatal(err)
	}
	if sb.Phases[trace.PhaseSpark] < bt.Phases[trace.PhaseSpark] {
		t.Fatal("star broadcast should not beat BitTorrent")
	}
}

func TestPredictValidation(t *testing.T) {
	cal := testCal(t)
	if _, err := cal.Predict(Scenario{Bench: kernels.GEMM, Workers: 0, CoresPerWorker: 4}); err == nil {
		t.Fatal("invalid topology should error")
	}
	unknown := &kernels.Benchmark{Name: "mystery", Ops: func(int) float64 { return 1 }, PaperN: 8}
	if _, err := cal.Predict(Scenario{Bench: unknown, Workers: 1, CoresPerWorker: 1}); err == nil {
		t.Fatal("uncalibrated benchmark should error")
	}
	noWidth := *cal
	noWidth.HostParallel = 0
	if _, err := noWidth.Predict(paperScenario(kernels.GEMM, 8, data.Dense)); err == nil {
		t.Fatal("a calibration without a host codec width should not price the chunked pipeline")
	}
}

func TestRunOnDriverScenario(t *testing.T) {
	cal := testCal(t)
	laptop, err := cal.Predict(paperScenario(kernels.GEMM, 64, data.Dense))
	if err != nil {
		t.Fatal(err)
	}
	s := paperScenario(kernels.GEMM, 64, data.Dense)
	s.RunOnDriver = true
	driver, err := cal.Predict(s)
	if err != nil {
		t.Fatal(err)
	}
	if driver.HostTargetComm() >= laptop.HostTargetComm() {
		t.Fatalf("driver comm %v should beat laptop %v",
			driver.HostTargetComm(), laptop.HostTargetComm())
	}
	if driver.ComputeTime() != laptop.ComputeTime() {
		t.Fatal("run-on-driver must not change computation")
	}
}

// TestCalibrationProbesArePinnedToGzip: model mode reproduces the paper's
// plugin, which gzips. The runtime's default policy ships sparse float32
// under the zero-run codec, so a calibration that probed with that policy
// would move Fig. 4, Fig. 5 and the §IV statistics off gzip; the probe's
// figure must be the forced-deflate frame's, bit for bit.
func TestCalibrationProbesArePinnedToGzip(t *testing.T) {
	opts := CalibrateOptions{N: 96, ProbeBytes: 1 << 20}.withDefaults()
	cal := testCal(t)
	sample := data.Generate(1, opts.ProbeBytes/data.FloatSize, data.Sparse, opts.Seed).Bytes()
	frame, err := xcompress.Codec{Algo: xcompress.AlgoDeflate}.Encode(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) < 3 || frame[1] != 0x1f || frame[2] != 0x8b {
		t.Fatalf("forced-deflate frame does not carry a gzip stream: % x", frame[:min(len(frame), 4)])
	}
	if got, want := cal.Probes[data.Sparse].Ratio, float64(len(frame)-1)/float64(len(sample)); got != want {
		t.Fatalf("sparse probe ratio %v is not the gzip frame's %v", got, want)
	}
	auto, err := xcompress.Codec{}.Ratio(sample)
	if err != nil {
		t.Fatal(err)
	}
	if auto >= cal.Probes[data.Sparse].Ratio {
		t.Fatalf("the default policy's ratio %v should undercut gzip's %v on sparse float32, or the pin guards nothing", auto, cal.Probes[data.Sparse].Ratio)
	}
}

// TestPredictGolden pins Predict on a fixed Calibration: the model is a
// function of its calibration alone, whatever GOMAXPROCS the test runs at. The
// probes are gzip's (the runtime's zero-run codec does not reach model mode);
// the sparse Spark phase includes the driver's encode of the shipped C, 1 GiB
// at the probe's 400 MB/s.
func TestPredictGolden(t *testing.T) {
	cal := &Calibration{
		Throughput: map[string]float64{kernels.GEMM.Name: 1e9},
		Probes: map[data.Kind]xcompress.Probe{
			data.Sparse: {Ratio: 0.034, CompressBytesPS: 400e6, DecompressBytesP: 1200e6, SampleSize: 4 << 20},
			// As a deflate-pinned probe measures dense data; Effective makes it raw.
			data.Dense: {Ratio: 0.91, CompressBytesPS: 30e6, DecompressBytesP: 150e6, SampleSize: 4 << 20},
		},
		CalN:         256,
		HostParallel: 2,
	}
	for kind, want := range map[data.Kind]struct {
		total, upload, spark, compute, download simtime.Duration
		up, down                                int64
	}{
		data.Sparse: {151427992831, 4026531839, 5758814913, 141195253653, 447392426, 109521666, 36507222},
		data.Dense:  {168892675155, 12904901888, 10477552318, 141195253653, 4314967296, 3221225472, 1073741824},
	} {
		rep, err := cal.Predict(paperScenario(kernels.GEMM, 64, kind))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total() != want.total || rep.Phases[trace.PhaseUpload] != want.upload || rep.Phases[trace.PhaseSpark] != want.spark ||
			rep.Phases[trace.PhaseCompute] != want.compute || rep.Phases[trace.PhaseDownload] != want.download ||
			rep.BytesUploaded != want.up || rep.BytesDownloaded != want.down {
			t.Errorf("%v: total %d phases %v bytes %d/%d, want %+v", kind, rep.Total(), rep.Phases, rep.BytesUploaded, rep.BytesDownloaded, want)
		}
	}
}

// TestPaperScaleLoweringHoldsNoMatrices: model mode lowers each benchmark at
// paper scale (~1 GB matrices) onto size-only buffers, so pricing a figure
// allocates next to nothing.
func TestPaperScaleLoweringHoldsNoMatrices(t *testing.T) {
	for _, b := range kernels.All {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Lower(b, b.PaperN); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("%s: lowering at n=%d allocated %d bytes", b.Name, b.PaperN, got)
		}
	}
}
