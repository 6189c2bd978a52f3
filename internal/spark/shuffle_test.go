package spark

import (
	"testing"
	"testing/quick"
)

func TestReduceByKeySums(t *testing.T) {
	ctx := testContext(t, 4, 2)
	r, _ := Range(ctx, 1000, 16)
	pairs := Map(r, func(v int64) (KV[int64, int64], error) {
		return KV[int64, int64]{Key: v % 10, Value: v}, nil
	})
	reduced, err := ReduceByKey(pairs, 4, func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if reduced.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", reduced.NumPartitions())
	}
	got, _, err := reduced.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("keys = %d", len(got))
	}
	byKey := map[int64]int64{}
	for _, kv := range got {
		byKey[kv.Key] = kv.Value
	}
	for k := int64(0); k < 10; k++ {
		var want int64
		for v := int64(0); v < 1000; v++ {
			if v%10 == k {
				want += v
			}
		}
		if byKey[k] != want {
			t.Fatalf("key %d: %d, want %d", k, byKey[k], want)
		}
	}
}

// Property: ReduceByKey totals equal a sequential fold, for any input and
// partitioning.
func TestReduceByKeyProperty(t *testing.T) {
	ctx := testContext(t, 3, 2)
	f := func(values []uint8, partsRaw, outPartsRaw uint8) bool {
		parts := int(partsRaw%6) + 1
		outParts := int(outPartsRaw%5) + 1
		pairs := make([]KV[uint8, int64], len(values))
		want := map[uint8]int64{}
		for i, v := range values {
			key := v % 7
			pairs[i] = KV[uint8, int64]{Key: key, Value: int64(v)}
			want[key] += int64(v)
		}
		r, err := Parallelize(ctx, pairs, parts)
		if err != nil {
			return false
		}
		reduced, err := ReduceByKey(r, outParts, func(a, b int64) int64 { return a + b })
		if err != nil {
			return false
		}
		got, _, err := reduced.Collect()
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for _, kv := range got {
			if want[kv.Key] != kv.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceByKeyDeterministicAcrossJobs(t *testing.T) {
	// The shuffled RDD must serve identical partitions on every job
	// (lineage determinism for downstream retries).
	ctx := testContext(t, 2, 2)
	r, _ := Range(ctx, 200, 8)
	pairs := Map(r, func(v int64) (KV[int64, int64], error) {
		return KV[int64, int64]{Key: v % 13, Value: 1}, nil
	})
	reduced, err := ReduceByKey(pairs, 3, func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := reduced.Collect()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := reduced.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shuffle output not deterministic at %d", i)
		}
	}
}

func TestShuffleValidation(t *testing.T) {
	ctx := testContext(t, 1, 1)
	r, _ := Range(ctx, 4, 2)
	pairs := Map(r, func(v int64) (KV[int64, int64], error) {
		return KV[int64, int64]{Key: v, Value: v}, nil
	})
	if _, err := ReduceByKey(pairs, 0, func(a, b int64) int64 { return a + b }); err == nil {
		t.Fatal("0 partitions should error")
	}
}

func TestShuffleWithFaults(t *testing.T) {
	// The shuffle's upstream job tolerates injected failures.
	ctx := testContext(t, 2, 1, withFaults(failAttempts(0, 1)))
	r, _ := Range(ctx, 40, 4)
	pairs := Map(r, func(v int64) (KV[int64, int64], error) {
		return KV[int64, int64]{Key: v % 2, Value: 1}, nil
	})
	reduced, err := ReduceByKey(pairs, 2, func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := reduced.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, kv := range got {
		total += kv.Value
	}
	if total != 40 {
		t.Fatalf("lost elements through faulty shuffle: %d", total)
	}
}
