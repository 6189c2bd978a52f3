package spark

import (
	"testing"

	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
)

// failAttempts fails the first n attempts of partition in every job.
func failAttempts(partition, n int) faults.Entry {
	return faults.Entry{Layer: faults.Before, Partition: partition, Worker: faults.Any, To: n}
}

// crashAfter loses the computed result of partition's first n attempts.
func crashAfter(partition, n int) faults.Entry {
	return faults.Entry{Layer: faults.After, Partition: partition, Worker: faults.Any, To: n}
}

// withFaults runs a test context under a fresh schedule of es.
func withFaults(es ...faults.Entry) Option { return WithFaults(faults.New(1).Add(es...)) }

func TestCrashAfterSuccessRecovers(t *testing.T) {
	ctx := testContext(t, 4, 1, withFaults(crashAfter(1, 2)))
	r, _ := Range(ctx, 16, 4)
	got, jm, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("collect len = %d", len(got))
	}
	// The partition computed three times: two results lost post-compute,
	// the third delivered.
	if jm.Tasks[1].Attempts != 3 {
		t.Fatalf("partition 1 attempts = %d, want 3", jm.Tasks[1].Attempts)
	}
	if jm.Failures != 2 {
		t.Fatalf("Failures = %d, want 2", jm.Failures)
	}
}

func TestCrashAfterSuccessExhaustedIsTransient(t *testing.T) {
	ctx := testContext(t, 2, 1, WithMaxRetries(1), withFaults(crashAfter(0, 10)))
	r, _ := Range(ctx, 4, 2)
	_, _, err := r.Collect()
	if err == nil {
		t.Fatal("unrecoverable crash-after-success should fail the job")
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("lost-result error must classify transient for host fallback: %v", err)
	}
}

func TestSeededRandomFaultsDeterministic(t *testing.T) {
	schedule := func(seed uint64) []bool {
		s := faults.New(seed).Add(faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: faults.Any, Prob: 0.5})
		outcomes := make([]bool, 64)
		for i := range outcomes {
			outcomes[i] = s.Before(0, i, 0, 0) != nil
		}
		return outcomes
	}
	a, b := schedule(3), schedule(3)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("p=0.5 schedule fired %d/%d; want a mix", fails, len(a))
	}
	c := schedule(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestSeededRandomFaultsMaxFails(t *testing.T) {
	// Count bounds a seeded entry's total, so a schedule can never exhaust
	// a scheduler's retry budget by bad luck.
	s := faults.New(1).Add(faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: faults.Any, Prob: 0.99, Count: 3})
	fails := 0
	for i := 0; i < 10; i++ {
		if s.Before(0, 0, i, 0) != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("Count=3 injected %d faults", fails)
	}
}

func TestChainFaultsComposesBothSides(t *testing.T) {
	s := faults.New(1).Add(
		faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: faults.Any, Every: 2},
		crashAfter(0, 1))
	if err := s.Before(0, 5, 0, 0); err != nil {
		t.Fatalf("first pre-compute draw should pass: %v", err)
	}
	if err := s.Before(0, 5, 1, 0); err == nil {
		t.Fatal("second pre-compute draw should fail (every 2nd)")
	}
	if err := s.After(0, 0, 0, 0); err == nil {
		t.Fatal("crash-after-success entry should fire post-compute")
	}
	if err := s.After(0, 1, 0, 0); err != nil {
		t.Fatalf("non-matching partition failed post-compute: %v", err)
	}
}

func TestChainFaultsEndToEnd(t *testing.T) {
	ctx := testContext(t, 4, 1, withFaults(failAttempts(2, 1), crashAfter(3, 1)))
	r, _ := Range(ctx, 16, 4)
	got, jm, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("collect len = %d", len(got))
	}
	if jm.Failures != 2 {
		t.Fatalf("Failures = %d, want 2 (one per entry)", jm.Failures)
	}
}
