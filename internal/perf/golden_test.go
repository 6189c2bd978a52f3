package perf

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/simtime"
	"ompcloud/internal/trace"
	"ompcloud/internal/xcompress"
)

var update = flag.Bool("update", false, "rewrite testdata/model_golden.json from the current model")

// goldenCal is a fixed Calibration: every model output below is a function of
// it alone, whatever machine runs the test.
func goldenCal() *Calibration {
	return &Calibration{
		Throughput: map[string]float64{
			"syrk": 0.9e9, "syr2k": 1.1e9, "covar": 0.7e9, "gemm": 1e9,
			"2mm": 1.2e9, "3mm": 1.3e9, "mat-mul": 1.05e9, "collinear-list": 0.6e9,
		},
		Probes: map[data.Kind]xcompress.Probe{
			data.Sparse: {Ratio: 0.034, CompressBytesPS: 400e6, DecompressBytesP: 1200e6, SampleSize: 4 << 20},
			data.Dense:  {Ratio: 0.91, CompressBytesPS: 30e6, DecompressBytesP: 150e6, SampleSize: 4 << 20},
		},
		CalN:         256,
		HostParallel: 2,
	}
}

// goldenCase is what the golden pins of one prediction.
type goldenCase struct {
	Upload, Spark, Compute, Download simtime.Duration
	Up, Down                         int64
	Cores                            int
}

func goldenOf(rep *trace.Report) goldenCase {
	return goldenCase{
		Upload: rep.Phases[trace.PhaseUpload], Spark: rep.Phases[trace.PhaseSpark],
		Compute: rep.Phases[trace.PhaseCompute], Download: rep.Phases[trace.PhaseDownload],
		Up: rep.BytesUploaded, Down: rep.BytesDownloaded, Cores: rep.Cores,
	}
}

// goldenScenarios is every paper-scale configuration the figures draw from —
// all eight benchmarks across the core sweep for both data kinds — plus the
// ablation switches on the configurations the ablation table flips them on.
func goldenScenarios() map[string]Scenario {
	out := make(map[string]Scenario)
	for _, b := range kernels.All {
		for _, kind := range []data.Kind{data.Sparse, data.Dense} {
			for _, cores := range []int{8, 16, 32, 64, 128, 256} {
				out[fmt.Sprintf("%s/%s/%d", b.Name, kind, cores)] = paperScenario(b, cores, kind)
			}
		}
	}
	flip := func(name string, b *kernels.Benchmark, cores int, kind data.Kind, mutate func(*Scenario)) {
		s := paperScenario(b, cores, kind)
		mutate(&s)
		out[name] = s
	}
	flip("no-tiling/gemm/dense/256", kernels.GEMM, 256, data.Dense, func(s *Scenario) { s.DisableTiling = true })
	flip("no-compression/gemm/sparse/256", kernels.GEMM, 256, data.Sparse, func(s *Scenario) { s.DisableCompression = true })
	flip("star-broadcast/syrk/dense/256", kernels.SYRK, 256, data.Dense, func(s *Scenario) { s.StarBroadcast = true })
	for _, kind := range []data.Kind{data.Sparse, data.Dense} {
		flip(fmt.Sprintf("warm-cache/gemm/%s/64", kind), kernels.GEMM, 64, kind, func(s *Scenario) { s.WarmCache = true })
		flip(fmt.Sprintf("warm-cache/3mm/%s/64", kind), kernels.ThreeMM, 64, kind, func(s *Scenario) { s.WarmCache = true })
		flip(fmt.Sprintf("sequential/2mm/%s/64", kind), kernels.TwoMM, 64, kind, func(s *Scenario) { s.SequentialTransfer = true })
		flip(fmt.Sprintf("run-on-driver/covar/%s/64", kind), kernels.COVAR, 64, kind, func(s *Scenario) { s.RunOnDriver = true })
	}
	return out
}

// TestModelGolden pins every phase to the nanosecond, the host-link bytes and
// the core count of each golden scenario on a fixed Calibration. Run with
// -update to rewrite the file after a deliberate model change, and state the
// change and its cause in EXPERIMENTS.md.
func TestModelGolden(t *testing.T) {
	cal := goldenCal()
	got := make(map[string]goldenCase)
	for name, s := range goldenScenarios() {
		rep, err := cal.Predict(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = goldenOf(rep)
	}
	path := filepath.Join("testdata", "model_golden.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d cases, the test predicts %d", len(want), len(got))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}
