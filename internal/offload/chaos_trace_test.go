package offload

import (
	"bytes"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

// spansNamed filters a recorder snapshot by span name.
func spansNamed(spans []span.Span, name string) []span.Span {
	var out []span.Span
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestChaosRunTraceCarriesResilienceEvents runs a faulty workload with
// tracing on and asserts the exported trace tells the whole recovery story:
// injected faults, the retries that absorbed them, the breaker trip when a
// second store dies for good, every Fig. 1 leg, and every tile.
func TestChaosRunTraceCarriesResilienceEvents(t *testing.T) {
	rec := span.Enable(span.Options{})
	defer span.Disable()

	// Phase 1: transient faults on the job objects; retries recover.
	cfg, sched := faultyConfig(
		faults.Entry{Op: "put", Key: "jobs/", Count: 2},
		faults.Entry{Op: "get", Key: "jobs/", Count: 1})
	cfg.BreakerFailures = 2
	cfg.Overlap = -1 // barriered workflow: the four Fig. 1 legs appear as spans
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(1000)
	in := data.Generate(1, int(n), data.Dense, 31)
	out := make([]byte, 4*n)
	rep, err := p.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatalf("chaos run must recover: %v", err)
	}

	// Phase 2: the store dies permanently; two failed runs trip the breaker.
	sched.Clear()
	sched.Add(deadJobs)
	for i := 0; i < 2; i++ {
		if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err == nil {
			t.Fatal("dead store must fail the run")
		}
	}
	if p.Breaker().State() != resilience.BreakerOpen {
		t.Fatalf("breaker must be open, got %v", p.Breaker().State())
	}

	spans := rec.Spans()
	if len(spansNamed(spans, "storage.retry")) == 0 {
		t.Error("trace must carry storage.retry events")
	}
	if len(spansNamed(spans, "storage.fault")) == 0 {
		t.Error("trace must carry storage.fault events")
	}
	breaker := spansNamed(spans, "breaker")
	if len(breaker) == 0 {
		t.Fatal("trace must carry breaker state-change events")
	}
	tripped := false
	for _, b := range breaker {
		if b.Attr("to") == "open" {
			tripped = true
		}
	}
	if !tripped {
		t.Error("breaker events must include the trip to open")
	}
	for _, leg := range []string{"leg.upload", "leg.fetch", "leg.spark", "leg.store", "leg.download"} {
		if len(spansNamed(spans, leg)) == 0 {
			t.Errorf("trace must carry the %s leg span", leg)
		}
	}
	// The successful run laid its virtual phases and one span per tile.
	for _, phase := range []string{spanUpload, spanSpark, spanCompute, spanDownload} {
		if len(spansNamed(spans, phase)) == 0 {
			t.Errorf("trace must carry the virtual %s phase span", phase)
		}
	}
	tiles := 0
	for _, sp := range spans {
		if sp.Cat == "tile" {
			tiles++
		}
	}
	if tiles != rep.Tiles {
		t.Errorf("trace has %d tile spans, want one per tile (%d)", tiles, rep.Tiles)
	}

	// The whole chaos trace must export as loadable Chrome JSON.
	var buf bytes.Buffer
	if err := span.WriteChrome(&buf, spans, rec.Dropped()); err != nil {
		t.Fatal(err)
	}
	if err := span.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("chaos trace does not validate: %v", err)
	}

	// The always-on metrics saw the same story.
	m := span.Metrics()
	if m.Counter("storage.retries").Value() == 0 {
		t.Error("storage.retries counter must be non-zero")
	}
	if m.Counter("storage.faults.injected").Value() == 0 {
		t.Error("storage.faults.injected counter must be non-zero")
	}
	if m.Counter("resilience.breaker.transitions").Value() == 0 {
		t.Error("breaker transition counter must be non-zero")
	}
}

// TestStreamedRunTraceCarriesPipelineLegs asserts the streaming dataflow
// emits its overlapping leg spans and the virtual stage spans.
func TestStreamedRunTraceCarriesPipelineLegs(t *testing.T) {
	rec := span.Enable(span.Options{})
	defer span.Disable()

	p, err := NewCloudPlugin(resilientConfig(storage.NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	n := int64(1000)
	in := data.Generate(1, int(n), data.Dense, 32)
	out := make([]byte, 4*n)
	rep, err := p.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CriticalPath == 0 {
		t.Fatal("streamed run must derive a critical path")
	}
	spans := rec.Spans()
	for _, leg := range []string{"leg.transfer.in", "leg.spark", "leg.flush.out"} {
		if len(spansNamed(spans, leg)) == 0 {
			t.Errorf("streamed trace must carry the %s leg span", leg)
		}
	}
	for _, st := range []string{spanUpload, spanSpark, spanCompute, spanDownload} {
		if len(spansNamed(spans, st)) == 0 {
			t.Errorf("streamed trace must carry the virtual %s stage span", st)
		}
	}
	var buf bytes.Buffer
	if err := span.WriteChrome(&buf, spans, rec.Dropped()); err != nil {
		t.Fatal(err)
	}
	if err := span.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("streamed trace does not validate: %v", err)
	}
}
