// Package bench regenerates the paper's evaluation (§IV): the speedup
// charts of Figure 4, the load-distribution charts of Figure 5, the
// headline statistics quoted in the text, and the ablations of the design
// choices (Algorithm 1 tiling, data partitioning vs broadcast, compression,
// BitTorrent broadcast).
//
// The harness calibrates the machine once (real kernel runs, real gzip
// probes) and predicts the paper-scale configurations through the same
// virtual-time accountant the measured execution path uses. See
// EXPERIMENTS.md for paper-vs-reproduction numbers.
package bench

import (
	"cmp"

	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/perf"
	"ompcloud/internal/spark"
	"ompcloud/internal/trace"
)

// PaperCoreSweep is the x-axis of Figures 4 and 5.
var PaperCoreSweep = []int{8, 16, 32, 64, 128, 256}

// ClusterFor maps a worker-core count onto the paper's topology: clusters
// of c3.8xlarge workers with 16 usable cores each; below one full worker
// the sweep shrinks a single worker (spark.cores.max).
func ClusterFor(cores int) spark.ClusterSpec {
	if cores <= 16 {
		return spark.ClusterSpec{Workers: 1, CoresPerWorker: cores}
	}
	return spark.ClusterSpec{Workers: cores / 16, CoresPerWorker: 16}
}

// Config tunes a harness.
type Config struct {
	// CalN is the calibration dimension (default 256).
	CalN int
	// ProbeBytes is the gzip probe sample size (default 4 MiB).
	ProbeBytes int
	// Benches defaults to kernels.All.
	Benches []*kernels.Benchmark
	// CoreSweep defaults to PaperCoreSweep.
	CoreSweep []int
	// Seed drives input generation.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Benches) == 0 {
		c.Benches = kernels.All
	}
	if len(c.CoreSweep) == 0 {
		c.CoreSweep = append([]int(nil), PaperCoreSweep...)
	}
	c.Seed = cmp.Or(c.Seed, 1)
	return c
}

// Harness is a calibrated experiment runner.
type Harness struct {
	cfg Config
	cal *perf.Calibration
}

// NewHarness calibrates the machine and returns a runner.
func NewHarness(cfg Config) (*Harness, error) {
	cfg = cfg.withDefaults()
	cal, err := perf.Calibrate(cfg.Benches, perf.CalibrateOptions{
		N: cfg.CalN, ProbeBytes: cfg.ProbeBytes, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Harness{cfg: cfg, cal: cal}, nil
}

// Calibration exposes the measured machine constants.
func (h *Harness) Calibration() *perf.Calibration { return h.cal }

// scenario builds the default paper-scale scenario.
func (h *Harness) scenario(b *kernels.Benchmark, cores int, kind data.Kind) perf.Scenario {
	spec := ClusterFor(cores)
	return perf.Scenario{
		Bench: b, Kind: kind,
		Workers: spec.Workers, CoresPerWorker: spec.CoresPerWorker,
	}
}

// --- Figure 4 ----------------------------------------------------------

// Fig4Point is one x-position of one chart: the three OmpCloud speedup
// series at a core count.
type Fig4Point struct {
	Cores       int
	Full        float64 // OmpCloud-full
	Spark       float64 // OmpCloud-spark
	Computation float64 // OmpCloud-computation
}

// Fig4Chart is one of the eight per-benchmark charts.
type Fig4Chart struct {
	Bench     string
	OmpThread map[int]float64 // threads (8, 16) -> speedup
	Points    []Fig4Point
}

// Figure4 regenerates the Figure 4 data: speedup over single-core execution
// for OmpThread (8 and 16 threads — "the largest AWS EC2 instances of type
// c3 has 16 cores") and the three OmpCloud series across the core sweep.
func (h *Harness) Figure4() ([]Fig4Chart, error) {
	charts := make([]Fig4Chart, 0, len(h.cfg.Benches))
	for _, b := range h.cfg.Benches {
		chart := Fig4Chart{Bench: b.Name, OmpThread: make(map[int]float64, 2)}
		serial, err := h.cal.SerialSeconds(b, b.PaperN)
		if err != nil {
			return nil, err
		}
		for _, threads := range []int{8, 16} {
			host, err := h.cal.HostSeconds(b, b.PaperN, threads)
			if err != nil {
				return nil, err
			}
			chart.OmpThread[threads] = serial / host
		}
		for _, cores := range h.cfg.CoreSweep {
			full, spk, comp, err := h.cal.Speedups(h.scenario(b, cores, data.Dense))
			if err != nil {
				return nil, err
			}
			chart.Points = append(chart.Points, Fig4Point{
				Cores: cores, Full: full, Spark: spk, Computation: comp,
			})
		}
		charts = append(charts, chart)
	}
	return charts, nil
}

// --- Figure 5 ----------------------------------------------------------

// Fig5Point is one stacked bar: the load distribution of one benchmark at
// one core count for one data kind.
type Fig5Point struct {
	Bench    string
	Kind     data.Kind
	Cores    int
	CommS    float64 // host-target communication, seconds
	SparkS   float64 // Spark overhead, seconds
	ComputeS float64 // computation, seconds
}

// TotalS is the bar height.
func (p Fig5Point) TotalS() float64 { return p.CommS + p.SparkS + p.ComputeS }

// Figure5 regenerates the Figure 5 data: per-benchmark execution time
// decomposition across the core sweep, for sparse and dense inputs.
func (h *Harness) Figure5() ([]Fig5Point, error) {
	var points []Fig5Point
	for _, b := range h.cfg.Benches {
		for _, kind := range []data.Kind{data.Sparse, data.Dense} {
			for _, cores := range h.cfg.CoreSweep {
				rep, err := h.cal.Predict(h.scenario(b, cores, kind))
				if err != nil {
					return nil, err
				}
				points = append(points, Fig5Point{
					Bench: b.Name, Kind: kind, Cores: cores,
					CommS:    rep.HostTargetComm().Seconds(),
					SparkS:   rep.Phases[trace.PhaseSpark].Seconds(),
					ComputeS: rep.ComputeTime().Seconds(),
				})
			}
		}
	}
	return points, nil
}

// --- Headline statistics (§IV prose) ------------------------------------

// Stats collects the quantitative claims of the evaluation text.
type Stats struct {
	// Overhead of OmpCloud vs OmpThread on 16 cores (one worker),
	// averaged over the benchmarks, in percent. Paper: 1.8 / 8.8 / 13.6.
	Overhead16Computation float64
	Overhead16Spark       float64
	Overhead16Full        float64

	// Peak speedups at 256 cores per benchmark: [full, spark, comp].
	// Paper: 3MM reaches 143/97/86 (comp/spark/full order inverted in
	// the text: "up to 143x/97x/86x respectively ... for 3MM").
	Peak map[string][3]float64

	// SparkOverheadShare is the Spark-overhead share of the Spark job
	// time (spark vs computation) at 8 and 256 cores, percent. Paper:
	// collinear-list 0.1 -> 15 (smallest), SYRK 17 -> 69 (largest).
	SparkOverheadShare map[string][2]float64

	// Runtime8Minutes is the dense 8-core end-to-end runtime per
	// benchmark. Paper buckets: 2 benchmarks in 10-25 min, 5 in 30-60
	// min, 1 at ~1h30.
	Runtime8Minutes map[string]float64
}

// ComputeStats derives the headline statistics.
func (h *Harness) ComputeStats() (*Stats, error) {
	st := &Stats{
		Peak:               make(map[string][3]float64),
		SparkOverheadShare: make(map[string][2]float64),
		Runtime8Minutes:    make(map[string]float64),
	}
	var comp16, spark16, full16 []float64
	for _, b := range h.cfg.Benches {
		host16, err := h.cal.HostSeconds(b, b.PaperN, 16)
		if err != nil {
			return nil, err
		}
		var reps [3]*trace.Report // dense, on 8, 16 and 256 cores
		for i, cores := range []int{8, 16, 256} {
			if reps[i], err = h.cal.Predict(h.scenario(b, cores, data.Dense)); err != nil {
				return nil, err
			}
		}
		r8, r16, r256 := reps[0], reps[1], reps[2]
		comp16 = append(comp16, pct(r16.ComputeTime().Seconds(), host16))
		spark16 = append(spark16, pct(r16.SparkTime().Seconds(), host16))
		full16 = append(full16, pct(r16.Total().Seconds(), host16))

		full, spk, comp, err := h.cal.Speedups(h.scenario(b, 256, data.Dense))
		if err != nil {
			return nil, err
		}
		st.Peak[b.Name] = [3]float64{full, spk, comp}

		share := func(rep *trace.Report) float64 {
			return 100 * rep.Phases[trace.PhaseSpark].Seconds() / rep.SparkTime().Seconds()
		}
		st.SparkOverheadShare[b.Name] = [2]float64{share(r8), share(r256)}
		st.Runtime8Minutes[b.Name] = r8.Total().Seconds() / 60
	}
	st.Overhead16Computation = mean(comp16)
	st.Overhead16Spark = mean(spark16)
	st.Overhead16Full = mean(full16)
	return st, nil
}

func pct(cloud, baseline float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return 100 * (cloud - baseline) / baseline
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// --- Ablations -----------------------------------------------------------

// AblationRow compares a design choice against its baseline at 256 cores.
type AblationRow struct {
	Name     string  // which knob
	Bench    string  // workload
	BaseS    float64 // paper design, seconds
	VariantS float64 // knob flipped, seconds
}

// Slowdown reports variant/base.
func (r AblationRow) Slowdown() float64 {
	if r.BaseS <= 0 {
		return 0
	}
	return r.VariantS / r.BaseS
}

// Ablations quantifies the design choices DESIGN.md calls out: Algorithm 1
// loop tiling, the Listing 2 data-partitioning extension, gzip compression,
// and the BitTorrent broadcast.
func (h *Harness) Ablations() ([]AblationRow, error) {
	var rows []AblationRow
	for _, a := range []struct {
		name string
		b    *kernels.Benchmark
		kind data.Kind
		flip func(*perf.Scenario)
	}{
		{"no-compression", kernels.GEMM, data.Sparse, func(s *perf.Scenario) { s.DisableCompression = true }},
		{"no-partitioning", kernels.GEMM, data.Dense, func(s *perf.Scenario) { s.DisablePartitioning = true }},
		{"no-tiling", kernels.GEMM, data.Dense, func(s *perf.Scenario) { s.DisableTiling = true }},
		{"star-broadcast", kernels.SYRK, data.Dense, func(s *perf.Scenario) { s.StarBroadcast = true }},
	} {
		variant := h.scenario(a.b, 256, a.kind)
		a.flip(&variant)
		baseS, varS, err := h.totals(h.scenario(a.b, 256, a.kind), variant)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Name: a.name, Bench: a.b.Name, BaseS: baseS, VariantS: varS})
	}
	return rows, nil
}

// CachingBenefit quantifies the paper's future-work data caching (which
// this reproduction implements): end-to-end seconds for a cold first
// offload vs a repeat offload of the same inputs with the upload cache hot,
// at the given core count.
func (h *Harness) CachingBenefit(b *kernels.Benchmark, cores int, kind data.Kind) (coldS, warmS float64, err error) {
	warm := h.scenario(b, cores, kind)
	warm.WarmCache = true
	return h.totals(h.scenario(b, cores, kind), warm)
}

// totals predicts the end-to-end seconds of two scenarios.
func (h *Harness) totals(a, b perf.Scenario) (aS, bS float64, err error) {
	ra, err := h.cal.Predict(a)
	if err != nil {
		return 0, 0, err
	}
	rb, err := h.cal.Predict(b)
	if err != nil {
		return 0, 0, err
	}
	return ra.Total().Seconds(), rb.Total().Seconds(), nil
}
