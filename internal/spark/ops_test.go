package spark

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestPersistAvoidsRecompute(t *testing.T) {
	ctx := testContext(t, 2, 2)
	var computations atomic.Int64
	r, _ := Range(ctx, 40, 4)
	expensive := Map(r, func(v int64) (int64, error) {
		computations.Add(1)
		return v * 3, nil
	})
	cached := Persist(expensive)

	first, _, err := cached.Collect()
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := computations.Load()
	if afterFirst != 40 {
		t.Fatalf("first pass computed %d elements", afterFirst)
	}
	second, _, err := cached.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if computations.Load() != afterFirst {
		t.Fatalf("persist recomputed: %d -> %d", afterFirst, computations.Load())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("cached results differ")
		}
	}
	// Downstream transformations reuse the cache too.
	if _, _, err := Map(cached, func(v int64) (int64, error) { return v + 1, nil }).Collect(); err != nil {
		t.Fatal(err)
	}
	if computations.Load() != afterFirst {
		t.Fatal("downstream job recomputed through the persist boundary")
	}
}

func TestPersistIsolation(t *testing.T) {
	// Mutating collected results must not corrupt the cache.
	ctx := testContext(t, 1, 1)
	r, _ := Parallelize(ctx, []int{1, 2, 3}, 1)
	cached := Persist(r)
	a, _, err := cached.Collect()
	if err != nil {
		t.Fatal(err)
	}
	a[0] = 99
	b, _, err := cached.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 {
		t.Fatal("cache was corrupted by caller mutation")
	}
}

func TestPersistWithFaultRetry(t *testing.T) {
	// A fault downstream of a persist re-runs only the downstream part.
	var computations atomic.Int64
	ctx := testContext(t, 2, 1, withFaults(failAttempts(1, 1)))
	r, _ := Range(ctx, 8, 2)
	base := Persist(Map(r, func(v int64) (int64, error) {
		computations.Add(1)
		return v, nil
	}))
	// Warm the cache without faults interfering (job 1 partition 1 will
	// fail once and retry — computations may run 12 times here).
	if _, _, err := base.Collect(); err != nil {
		t.Fatal(err)
	}
	warm := computations.Load()
	// Second job: any retries must hit the cache, not the lineage.
	if _, _, err := Map(base, func(v int64) (int64, error) { return v * 2, nil }).Collect(); err != nil {
		t.Fatal(err)
	}
	if computations.Load() != warm {
		t.Fatalf("retry recomputed above the persist: %d -> %d", warm, computations.Load())
	}
}

func TestForeach(t *testing.T) {
	ctx := testContext(t, 2, 2)
	r, _ := Range(ctx, 100, 8)
	var sum atomic.Int64
	jm, err := r.Foreach(func(v int64) error {
		sum.Add(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("foreach sum = %d", sum.Load())
	}
	if jm.NumTasks != 8 {
		t.Fatalf("tasks = %d", jm.NumTasks)
	}
	_, err = r.Foreach(func(v int64) error {
		if v == 50 {
			return errors.New("foreach boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("foreach error should propagate")
	}
}
