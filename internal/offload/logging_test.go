package offload

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
)

// logSink collects log lines thread-safely.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (s *logSink) logf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lines = append(s.lines, fmt.Sprintf(format, args...))
}

func (s *logSink) joined() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.lines, "\n")
}

func TestVerboseLoggingSurfacesWorkflowAndSpark(t *testing.T) {
	sink := &logSink{}
	p, err := NewCloudPlugin(CloudConfig{
		Spec:   spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
		Store:  storage.NewMemStore(),
		Log:    sink.logf,
		Faults: failAttempts(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(64)
	in := data.Generate(1, int(n), data.Dense, 31)
	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	got := sink.joined()
	for _, want := range []string{
		"offloading scale2", // plugin workflow line
		"spark: job",        // engine job line
		"submitting",        // job submission
		"attempt 0 failed",  // injected failure surfaced
		"finished",          // completion
		"1 task failures",   // plugin summary
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("log missing %q:\n%s", want, got)
		}
	}
}

func TestNoLoggerMeansSilence(t *testing.T) {
	// The zero-config plugin must not panic on its logf paths.
	p, err := NewCloudPlugin(memCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.logf("this goes nowhere %d", 42)
	n := int64(16)
	in := data.Generate(1, int(n), data.Dense, 32)
	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
}
