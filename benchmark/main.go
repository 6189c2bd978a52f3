// Command benchmark is this repository's benchmark: five workloads over the
// offload runtime, end-to-end metrics on two clocks, and a traced run that
// budgets every layer from outside. See README.md.
//
// The driver's form is
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints one JSON object as the last line of standard output. Without
// --workload every workload runs in turn; -repeat 2 runs two sets and checks
// that they agree within the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// value is one metric on the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's result line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	samples  int      // timed ops behind every timing
	failures []string // first reasons, printed to standard error
	scale    float64  // untraced runs: what the wall-clock metrics were scaled by (host.go)
}

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string // where the traced run writes its trace file
}

// runWorkload measures one workload: the end-to-end metrics untraced, or the
// per-layer metrics traced.
func runWorkload(cfg runConfig) (*result, error) {
	host.tickets = cfg.sz.probeTickets
	if cfg.trace {
		return runTraced(cfg)
	}
	var blocks []block
	var err error
	if cfg.workload == "daemon-smalljobs" {
		blocks, err = measureDaemon(cfg.sz, cfg.seed, cfg.seconds)
	} else {
		blocks, err = measureRegion(cfg.workload, cfg.sz, cfg.seed, cfg.seconds)
	}
	if err != nil {
		return nil, err
	}
	m, samples, ops, scale := endToEndMetrics(blocks)
	r, err := newResult(endToEnd, m, samples, ops)
	if err == nil {
		r.scale = scale
	}
	return r, err
}

// newResult checks that exactly the defined metrics were measured and that
// every value is a finite number.
func newResult(defs []metricDef, m map[string]float64, samples int, ops tally) (*result, error) {
	r := &result{Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed,
		Metrics: make(map[string]value, len(defs)), samples: samples, failures: ops.failures}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v (%d timed ops of %d attempted; %v)", d.Name, v, samples, ops.attempted, ops.failures)
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(m) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(m), len(defs))
	}
	return r, nil
}

// printTable writes every metric by name with its unit and clock, and the
// sample count beside the timings, to standard error.
func printTable(workload string, defs []metricDef, r *result) {
	fmt.Fprintf(os.Stderr, "%s: %d ops attempted, %d failed, %d timed samples\n", workload, r.Attempted, r.Failed, r.samples)
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-28s %16.6g %-8s %-7s n=%d\n", d.Name, r.Metrics[d.Name].Value, d.Unit, d.Clock, r.samples)
	}
	if r.scale != 0 {
		fmt.Fprintf(os.Stderr, "  wall-clock seconds are scaled by %.4f: the host probe's median was %.1f ms, %.0f ms is the reference\n",
			r.scale, probeRefS/r.scale*1e3, probeRefS*1e3)
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "  FAILED %s\n", f)
	}
}

// verbose prints every timed region op, for looking at the host's noise.
var verbose bool

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "1: the traced run, printing the per-layer metrics")
		quick    = flag.Bool("quick", false, "tiny sizes (the smoke test's)")
		repeat   = flag.Int("repeat", 1, "run this many sets and check that they agree within the bounds")
	)
	flag.BoolVar(&verbose, "verbose", false, "print every timed region op and its host probes to standard error")
	flag.Parse()
	sz := fullSizes
	if *quick {
		sz = quickSizes
	}
	var names []string
	if *workload != "all" {
		names = []string{*workload}
	} else {
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	defs := defsFor(*trace == 1)

	sets := make([]map[string]*result, *repeat)
	ok := true
	for s := range sets {
		sets[s] = make(map[string]*result)
		for _, name := range names {
			r, err := runWorkload(runConfig{workload: name, seed: *seed, seconds: *seconds,
				trace: *trace == 1, sz: sz, outDir: "out"})
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(2)
			}
			printTable(name, defs, r)
			sets[s][name] = r
			ok = ok && r.Correct
			// The result line: the last line of standard output when
			// one workload was asked for.
			line, err := json.Marshal(r)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(2)
			}
			fmt.Println(string(line))
		}
	}
	if *repeat > 1 && !agree(names, sets) {
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

// agree prints, per end-to-end metric × workload, the value of every set,
// their relative difference and the bound, and reports whether every
// difference is within its bound.
func agree(names []string, sets []map[string]*result) bool {
	within := true
	for _, name := range names {
		for _, d := range endToEnd {
			var vals []float64
			for _, set := range sets {
				if v, ok := set[name].Metrics[d.Name]; ok {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			diff := (sorted[len(sorted)-1] - sorted[0]) / sorted[0]
			verdict := "ok"
			if diff > d.Bound {
				verdict = "UNRESOLVED: spread exceeds the bound"
				within = false
			}
			fmt.Fprintf(os.Stderr, "%-18s %-20s %v  diff %.2f%%  bound %.0f%%  %s\n",
				name, d.Name, vals, 100*diff, 100*d.Bound, verdict)
		}
	}
	return within
}
