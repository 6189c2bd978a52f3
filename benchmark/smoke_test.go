package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"ompcloud/internal/trace/span"
)

// benchmarkJSON mirrors the driver's schema of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkJSON holds spec.go and BENCHMARK.json together:
// the same workloads, the same metrics with the same units, directions and
// bounds, in the same order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go %+v", i, b.Workloads[i], w)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q breaks the name rule", w.Name)
		}
	}
	check := func(kind string, js []jsonMetric, defs []metricDef) {
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(js), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			got := js[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, spec.go %+v", kind, i, got, d)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q breaks the name rule", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs all five workloads, untraced and traced, at the quick
// sizes, and checks what the driver would: every defined metric emitted and
// no other, every value finite, every op verified, and every trace file a
// valid Chrome trace.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{workload: w.Name, seed: 1, seconds: 0.3,
				trace: traced, sz: quickSizes, outDir: out})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d ops failed: %v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, res.failures)
			}
			defs := defsFor(traced)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d defined", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s (trace %v): metric %s missing", w.Name, traced, d.Name)
					continue
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s (trace %v): metric %s = %v %s", w.Name, traced, d.Name, v.Value, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, v.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s (trace %v): result line: %v", w.Name, traced, err)
			}
		}
		raw, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := span.ValidateChrome(raw); err != nil {
			t.Errorf("%s: trace: %v", w.Name, err)
		}
	}
}
