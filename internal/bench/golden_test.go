package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/perf"
	"ompcloud/internal/xcompress"
)

var update = flag.Bool("update", false, "rewrite testdata/ablations_golden.json from the current model")

// TestAblationsGolden pins the ablation table and the caching benefit on a
// fixed Calibration, so they are a function of it alone. Run with -update to
// rewrite the file after a deliberate model change, and state the change and
// its cause in EXPERIMENTS.md.
func TestAblationsGolden(t *testing.T) {
	h := &Harness{cfg: Config{}.withDefaults(), cal: &perf.Calibration{
		Throughput: map[string]float64{kernels.GEMM.Name: 1e9, kernels.SYRK.Name: 0.9e9},
		Probes: map[data.Kind]xcompress.Probe{
			data.Sparse: {Ratio: 0.034, CompressBytesPS: 400e6, DecompressBytesP: 1200e6, SampleSize: 4 << 20},
			data.Dense:  {Ratio: 0.91, CompressBytesPS: 30e6, DecompressBytesP: 150e6, SampleSize: 4 << 20},
		},
		CalN:         256,
		HostParallel: 2,
	}}
	rows, err := h.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][2]float64{}
	for _, r := range rows {
		got["ablation/"+r.Name] = [2]float64{r.BaseS, r.VariantS}
	}
	for _, kind := range []data.Kind{data.Sparse, data.Dense} {
		cold, warm, err := h.CachingBenefit(kernels.GEMM, 64, kind)
		if err != nil {
			t.Fatal(err)
		}
		got["caching/gemm/64/"+kind.String()] = [2]float64{cold, warm}
	}
	path := filepath.Join("testdata", "ablations_golden.json")
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
	var want map[string][2]float64
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d cases, the test computes %d", len(want), len(got))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: got %v s, want %v s", name, g, w)
		}
	}
}
