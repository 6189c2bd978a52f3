package spark

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"ompcloud/internal/faults"
	"ompcloud/internal/simtime"
)

func testContext(t *testing.T, workers, cores int, opts ...Option) *Context {
	t.Helper()
	ctx, err := NewContext(ClusterSpec{Workers: workers, CoresPerWorker: cores}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestClusterSpec(t *testing.T) {
	s := ClusterSpec{Workers: 16, CoresPerWorker: 16}
	if s.TotalCores() != 256 {
		t.Fatalf("TotalCores = %d", s.TotalCores())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (ClusterSpec{Workers: 0, CoresPerWorker: 1}).Validate(); err == nil {
		t.Fatal("invalid spec should fail")
	}
	if _, err := NewContext(ClusterSpec{}); err == nil {
		t.Fatal("NewContext should reject invalid spec")
	}
}

func TestPartitionRangeProperty(t *testing.T) {
	// Eq. 3: the partitions cover [0, n) exactly, disjointly, in order,
	// with sizes differing by at most one.
	f := func(nRaw uint16, partsRaw uint8) bool {
		n := int(nRaw % 5000)
		parts := int(partsRaw%64) + 1
		prevHi := 0
		minSize, maxSize := 1<<30, 0
		for p := 0; p < parts; p++ {
			lo, hi := PartitionRange(n, parts, p)
			if lo != prevHi || hi < lo {
				return false
			}
			size := hi - lo
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			prevHi = hi
		}
		return prevHi == n && maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRangePanics(t *testing.T) {
	for _, bad := range [][3]int{{10, 0, 0}, {10, 4, -1}, {10, 4, 4}, {-1, 4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PartitionRange(%v) should panic", bad)
				}
			}()
			PartitionRange(bad[0], bad[1], bad[2])
		}()
	}
}

func TestRangeCollect(t *testing.T) {
	ctx := testContext(t, 4, 2)
	r, err := Range(ctx, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, jm, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if jm.NumTasks != 8 || jm.Failures != 0 {
		t.Fatalf("metrics: %+v", jm)
	}
	if jm.Virtual() < jm.Submit {
		t.Fatal("virtual time must include submit cost")
	}
}

func TestRangeErrors(t *testing.T) {
	ctx := testContext(t, 1, 1)
	if _, err := Range(ctx, -1, 4); err == nil {
		t.Fatal("negative range should error")
	}
	if _, err := Range(ctx, 10, 0); err == nil {
		t.Fatal("zero partitions should error")
	}
	if _, err := Parallelize(ctx, []int{1}, 0); err == nil {
		t.Fatal("zero partitions should error")
	}
}

func TestParallelizeSnapshotIsolation(t *testing.T) {
	ctx := testContext(t, 2, 2)
	items := []int{1, 2, 3, 4}
	r, err := Parallelize(ctx, items, 2)
	if err != nil {
		t.Fatal(err)
	}
	items[0] = 99 // caller mutation must not affect lineage
	got, _, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("RDD saw caller mutation: %v", got)
	}
}

func TestMapFilterChain(t *testing.T) {
	ctx := testContext(t, 4, 4)
	r, _ := Range(ctx, 50, 5)
	sq := Map(r, func(v int64) (int64, error) { return v * v, nil })
	even := Filter(sq, func(v int64) bool { return v%2 == 0 })
	got, _, err := even.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := int64(0); i < 50; i++ {
		if (i*i)%2 == 0 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("len = %d, want %d", len(got), want)
	}
	if !strings.Contains(even.Name(), "filter(map(range") {
		t.Fatalf("lineage name = %q", even.Name())
	}
}

func TestMapErrorPropagates(t *testing.T) {
	ctx := testContext(t, 2, 2, WithMaxRetries(1))
	r, _ := Range(ctx, 10, 2)
	bad := Map(r, func(v int64) (int64, error) {
		if v == 7 {
			return 0, errors.New("boom at 7")
		}
		return v, nil
	})
	_, jm, err := bad.Collect()
	if err == nil || !strings.Contains(err.Error(), "boom at 7") {
		t.Fatalf("err = %v", err)
	}
	if jm == nil || jm.Failures == 0 {
		t.Fatal("failures should be recorded")
	}
}

func TestMapPartitionsSeesWholePartition(t *testing.T) {
	ctx := testContext(t, 2, 2)
	r, _ := Range(ctx, 10, 3)
	sums := MapPartitions(r, func(p int, items []int64) ([]int64, error) {
		var s int64
		for _, v := range items {
			s += v
		}
		return []int64{s}, nil
	})
	parts, _, err := sums.CollectPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	var total int64
	for _, p := range parts {
		total += p[0]
	}
	if total != 45 {
		t.Fatalf("total = %d", total)
	}
}

func TestReduce(t *testing.T) {
	ctx := testContext(t, 4, 2)
	r, _ := Range(ctx, 101, 7)
	sum, _, err := r.Reduce(func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 5050 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestReduceEmptyErrors(t *testing.T) {
	ctx := testContext(t, 2, 2)
	r, _ := Range(ctx, 0, 4)
	if _, _, err := r.Reduce(func(a, b int64) int64 { return a + b }); err == nil {
		t.Fatal("reduce of empty RDD should error")
	}
}

func TestReduceWithEmptyPartitions(t *testing.T) {
	// More partitions than items: some partitions are empty; reduce must
	// still fold the non-empty ones.
	ctx := testContext(t, 2, 2)
	r, _ := Range(ctx, 3, 8)
	sum, _, err := r.Reduce(func(a, b int64) int64 { return a + b })
	if err != nil || sum != 3 {
		t.Fatalf("sum = %d, %v", sum, err)
	}
}

func TestCount(t *testing.T) {
	ctx := testContext(t, 2, 2)
	r, _ := Range(ctx, 1234, 9)
	n, _, err := r.Count()
	if err != nil || n != 1234 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

// Property: Collect(Map(f)) == map f over Collect for arbitrary inputs.
func TestMapCollectProperty(t *testing.T) {
	ctx := testContext(t, 3, 2)
	f := func(items []int32, partsRaw uint8) bool {
		parts := int(partsRaw%8) + 1
		r, err := Parallelize(ctx, items, parts)
		if err != nil {
			return false
		}
		doubled := Map(r, func(v int32) (int64, error) { return 2 * int64(v), nil })
		got, _, err := doubled.Collect()
		if err != nil {
			return false
		}
		if len(got) != len(items) {
			return false
		}
		for i := range items {
			if got[i] != 2*int64(items[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRetryOnInjectedFault(t *testing.T) {
	ctx := testContext(t, 4, 1, withFaults(failAttempts(2, 2)))
	r, _ := Range(ctx, 16, 4)
	got, jm, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("collect len = %d", len(got))
	}
	if jm.Failures != 2 {
		t.Fatalf("Failures = %d, want 2", jm.Failures)
	}
	if jm.Tasks[2].Attempts != 3 {
		t.Fatalf("partition 2 attempts = %d, want 3", jm.Tasks[2].Attempts)
	}
	// Effective time includes retry penalties.
	if jm.Tasks[2].Effective < jm.Tasks[2].Compute+2*ctx.Costs().TaskRetry {
		t.Fatalf("Effective %v should include 2 retry penalties", jm.Tasks[2].Effective)
	}
	em := ctx.Metrics()
	if em.JobsRun != 1 || em.TasksRun != 4 || em.AttemptsFailed != 2 {
		t.Fatalf("engine metrics: %+v", em)
	}
}

func TestRetriesExhausted(t *testing.T) {
	ctx := testContext(t, 2, 1, WithMaxRetries(2), withFaults(failAttempts(0, 10)))
	r, _ := Range(ctx, 4, 2)
	_, _, err := r.Collect()
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("want exhausted-retries error, got %v", err)
	}
}

func TestWorkerLossReassignment(t *testing.T) {
	ctx := testContext(t, 4, 1)
	ctx.KillWorker(0)
	if ctx.AliveWorkers() != 3 {
		t.Fatalf("AliveWorkers = %d", ctx.AliveWorkers())
	}
	r, _ := Range(ctx, 8, 4) // partition 0 -> worker 0 (dead)
	got, jm, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("len = %d", len(got))
	}
	if jm.Tasks[0].Worker == 0 {
		t.Fatal("partition 0 must have been reassigned off the dead worker")
	}
	ctx.ReviveWorker(0)
	if ctx.AliveWorkers() != 4 {
		t.Fatalf("AliveWorkers after revive = %d", ctx.AliveWorkers())
	}
}

func TestAllWorkersDead(t *testing.T) {
	ctx := testContext(t, 2, 1)
	ctx.KillWorker(0)
	ctx.KillWorker(1)
	r, _ := Range(ctx, 4, 2)
	if _, _, err := r.Collect(); err == nil {
		t.Fatal("job on a fully dead cluster should fail")
	}
}

func TestTaskPanicIsIsolated(t *testing.T) {
	ctx := testContext(t, 2, 2, WithMaxRetries(0))
	r, _ := Range(ctx, 4, 2)
	boom := Map(r, func(v int64) (int64, error) {
		if v == 3 {
			panic("kernel crashed")
		}
		return v, nil
	})
	_, _, err := boom.Collect()
	if err == nil || !strings.Contains(err.Error(), "task panic") {
		t.Fatalf("want task panic error, got %v", err)
	}
}

func TestLineageRecomputationDeterminism(t *testing.T) {
	// The same RDD collected twice (second time with a transient fault
	// forcing recomputation) must produce identical results.
	ctx := testContext(t, 4, 2, withFaults(faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: faults.Any, Every: 3}))
	r, _ := Range(ctx, 64, 8)
	mapped := Map(r, func(v int64) (int64, error) { return v*v + 1, nil })
	a, _, err := mapped.Collect()
	if err != nil {
		t.Fatal(err)
	}
	b, jm, err := mapped.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if jm.Failures == 0 {
		t.Fatal("test needs injected failures to be meaningful")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lineage recomputation diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPartitionWorkerBlockAssignment(t *testing.T) {
	ctx := testContext(t, 4, 4)
	// 8 partitions over 4 workers: 2 per worker, in blocks.
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for p, w := range want {
		if got := ctx.PartitionWorker(p, 8); got != w {
			t.Fatalf("PartitionWorker(%d, 8) = %d, want %d", p, got, w)
		}
	}
	if got := ctx.PartitionWorker(0, 0); got != 0 {
		t.Fatalf("degenerate case = %d", got)
	}
}

func TestVirtualMakespanScalesWithCores(t *testing.T) {
	// The compute makespan is a pure function of the measured per-task
	// durations and the simulated core count: one run's duration vector,
	// scheduled on 1 and on 8 cores, so no second run's host noise enters.
	work := func(v int64) (int64, error) {
		s := int64(0)
		for i := int64(0); i < 200_000; i++ {
			s += (v + i) % 7
		}
		return s, nil
	}
	ctx := testContext(t, 8, 1)
	r, _ := Range(ctx, 32, 32)
	_, jm, err := Map(r, work).Collect()
	if err != nil {
		t.Fatal(err)
	}
	durs := make([]simtime.Duration, len(jm.Tasks))
	var sum, longest simtime.Duration
	for p, tm := range jm.Tasks {
		durs[p] = tm.Compute
		sum += tm.Compute
		longest = max(longest, tm.Compute)
	}
	m1, m8 := simtime.Makespan(durs, 1), simtime.Makespan(durs, 8)
	if jm.ComputeMakespan != m8 {
		t.Fatalf("ComputeMakespan %v, want the 8-core list schedule %v of the job's own task durations", jm.ComputeMakespan, m8)
	}
	if m1 != sum {
		t.Fatalf("1-core makespan %v, want the sum of task durations %v", m1, sum)
	}
	if m8 >= m1 {
		t.Fatalf("8-core makespan %v should beat 1-core %v", m8, m1)
	}
	// Graham's bound for any greedy list schedule.
	if m8 > sum/8+longest {
		t.Fatalf("scaling too weak: 8-core %v > sum/8 %v + longest task %v", m8, sum/8, longest)
	}
}

func TestJobMetricsAccounting(t *testing.T) {
	ctx := testContext(t, 2, 2)
	r, _ := Range(ctx, 16, 4)
	_, jm, err := Map(r, func(v int64) (int64, error) { return v, nil }).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if jm.TotalCompute() <= 0 {
		t.Fatal("TotalCompute must be positive for real execution")
	}
	if jm.SchedulingOverhead() < jm.Submit {
		t.Fatalf("SchedulingOverhead %v must include submit %v", jm.SchedulingOverhead(), jm.Submit)
	}
	if jm.TotalMakespan < jm.ComputeMakespan {
		t.Fatal("total makespan cannot beat pure-compute makespan")
	}
}

func TestBroadcast(t *testing.T) {
	ctx := testContext(t, 4, 2)
	b := NewBroadcast(ctx, []float32{1, 2, 3}, 12)
	if b.SizeBytes() != 12 || b.ID() == 0 {
		t.Fatalf("broadcast meta wrong: %+v", b)
	}
	r, _ := Range(ctx, 8, 4)
	got, _, err := Map(r, func(v int64) (float32, error) {
		vals := b.Value()
		return vals[v%3], nil
	}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 || got[1] != 2 {
		t.Fatalf("broadcast values wrong: %v", got)
	}
	if b.Reads() < 8 {
		t.Fatalf("Reads = %d", b.Reads())
	}
	b2 := NewBroadcast(ctx, "x", 100)
	if b2.ID() == b.ID() {
		t.Fatal("broadcast IDs must be unique per context")
	}
	if BroadcastBytes(ctx) != 112 {
		t.Fatalf("BroadcastBytes = %d", BroadcastBytes(ctx))
	}
}

func TestFaultHelpers(t *testing.T) {
	s := faults.New(1).Add(faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: 3})
	if err := s.Before(1, 0, 0, 3); err == nil {
		t.Fatal("should fail on worker 3")
	}
	if err := s.Before(1, 0, 0, 2); err != nil {
		t.Fatal("should pass on worker 2")
	}
	flaky := faults.New(1).Add(faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: faults.Any, Every: 2})
	errs := 0
	for i := 0; i < 10; i++ {
		if flaky.Before(0, 0, 0, 0) != nil {
			errs++
		}
	}
	if errs != 5 {
		t.Fatalf("every 2nd attempt failed %d of 10", errs)
	}
	var none *faults.Schedule
	if none.Before(0, 0, 0, 0) != nil || none.After(0, 0, 0, 0) != nil {
		t.Fatal("a nil schedule must never fail")
	}
}

func TestDispatchCostGrowsWithTasks(t *testing.T) {
	// Same total work split into many more tasks must show strictly more
	// scheduling overhead: the effect behind the paper's SYRK 17%->69%.
	run := func(parts int) simtime.Duration {
		ctx := testContext(t, 16, 16)
		r, _ := Range(ctx, 4096, parts)
		_, jm, err := Map(r, func(v int64) (int64, error) { return v, nil }).Collect()
		if err != nil {
			t.Fatal(err)
		}
		return jm.SchedulingOverhead()
	}
	few, many := run(16), run(1024)
	if many <= few {
		t.Fatalf("overhead with 1024 tasks (%v) should exceed 16 tasks (%v)", many, few)
	}
}

func TestRealParallelismOption(t *testing.T) {
	ctx := testContext(t, 2, 2, WithRealParallelism(1))
	if cap(ctx.slots) != 1 {
		t.Fatalf("slots cap = %d", cap(ctx.slots))
	}
	ctx2 := testContext(t, 2, 2, WithRealParallelism(-5))
	if cap(ctx2.slots) != 1 {
		t.Fatalf("negative parallelism should clamp to 1, got %d", cap(ctx2.slots))
	}
	r, _ := Range(ctx, 100, 10)
	got, _, err := r.Collect()
	if err != nil || len(got) != 100 {
		t.Fatalf("serial execution broken: %v", err)
	}
}

func TestManyConcurrentJobs(t *testing.T) {
	ctx := testContext(t, 4, 4)
	errCh := make(chan error, 8)
	for j := 0; j < 8; j++ {
		go func(j int) {
			r, _ := Range(ctx, 200, 8)
			sum, _, err := Map(r, func(v int64) (int64, error) { return v + int64(j), nil }).
				Reduce(func(a, b int64) int64 { return a + b })
			if err == nil {
				want := int64(199*200/2 + 200*j)
				if sum != want {
					err = fmt.Errorf("job %d: sum %d want %d", j, sum, want)
				}
			}
			errCh <- err
		}(j)
	}
	for j := 0; j < 8; j++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if ctx.Metrics().JobsRun != 8 {
		t.Fatalf("JobsRun = %d", ctx.Metrics().JobsRun)
	}
}
