package spark

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/simtime"
)

// leaseOpts enables a tight membership clock for tests.
func leaseOpts(misses int) Option {
	return WithLease(LeaseConfig{Heartbeat: simtime.Millisecond, Misses: misses})
}

func TestLeaseExpiryKillsSilentWorker(t *testing.T) {
	// Worker 1 never beats again.
	ctx := testContext(t, 4, 2, leaseOpts(2), withFaults(faults.Entry{Layer: faults.Beat, Worker: 1, Do: faults.Drop}))
	r, _ := Range(ctx, 64, 16)
	got, _, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Fatalf("collect len = %d", len(got))
	}
	em := ctx.Metrics()
	if em.DeadWorkers != 1 {
		t.Fatalf("DeadWorkers = %d, want 1", em.DeadWorkers)
	}
	if ctx.AliveWorkers() != 3 {
		t.Fatalf("AliveWorkers = %d, want 3", ctx.AliveWorkers())
	}
}

func TestDieAtTaskLosesInFlightAttempt(t *testing.T) {
	// Misses=1 guarantees the lease expires between a doomed attempt's
	// launch tick and its completion tick, so the attempt's result is lost
	// and the work re-executes on a survivor.
	// Worker 2 dies when it starts its second task.
	die := faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: 2, Skip: 1, Do: faults.Die}
	ctx := testContext(t, 4, 1, leaseOpts(1), withFaults(die))
	r, _ := Range(ctx, 64, 16)
	got, jm, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Fatalf("collect len = %d", len(got))
	}
	if jm.Reexecuted == 0 {
		t.Fatal("die-at-task-N must force at least one re-execution")
	}
	if jm.DeadWorkers != 1 {
		t.Fatalf("DeadWorkers = %d, want 1", jm.DeadWorkers)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("got[%d] = %d after re-execution", i, v)
		}
	}
}

func TestFlappingRejoin(t *testing.T) {
	// Worker 0 goes silent for 3 beats (budget 2 -> dies), then resumes
	// beating; Rejoin lets it back in two ticks after its death.
	ctx := testContext(t, 2, 1, leaseOpts(2), withFaults(faults.Entry{Layer: faults.Beat, Worker: 0, To: 3, Do: faults.Drop, Rejoin: 2}))
	r, _ := Range(ctx, 128, 32)
	if _, _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	em := ctx.Metrics()
	if em.DeadWorkers == 0 {
		t.Fatal("flapping worker never died")
	}
	if em.Rejoins == 0 {
		t.Fatal("flapping worker never rejoined")
	}
	if ctx.AliveWorkers() != 2 {
		t.Fatalf("AliveWorkers = %d after rejoin, want 2", ctx.AliveWorkers())
	}
}

func TestPartitionWorkerRederivesOverLiveSet(t *testing.T) {
	ctx := testContext(t, 4, 1)
	// Healthy cluster: Eq. 3 block distribution.
	if w := ctx.PartitionWorker(0, 8); w != 0 {
		t.Fatalf("partition 0 -> worker %d, want 0", w)
	}
	if w := ctx.PartitionWorker(7, 8); w != 3 {
		t.Fatalf("partition 7 -> worker %d, want 3", w)
	}
	ctx.KillWorker(0)
	ctx.KillWorker(2)
	// Live set is {1, 3}: the same blocks now spread over the survivors.
	for p := 0; p < 8; p++ {
		w := ctx.PartitionWorker(p, 8)
		if w != 1 && w != 3 {
			t.Fatalf("partition %d assigned to dead worker %d", p, w)
		}
	}
	if ctx.PartitionWorker(0, 8) != 1 || ctx.PartitionWorker(7, 8) != 3 {
		t.Fatal("live-set Eq. 3 must span the survivors")
	}
	ctx.ReviveWorker(0)
	ctx.ReviveWorker(2)
	if w := ctx.PartitionWorker(7, 8); w != 3 {
		t.Fatalf("revived cluster: partition 7 -> worker %d, want 3", w)
	}
}

func TestNoAliveWorkersIsTransient(t *testing.T) {
	ctx := testContext(t, 2, 1)
	ctx.KillWorker(0)
	ctx.KillWorker(1)
	r, _ := Range(ctx, 4, 2)
	_, _, err := r.Collect()
	if err == nil {
		t.Fatal("full cluster loss must fail the job")
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("cluster loss must classify transient for host fallback: %v", err)
	}
}

// runStalled collects a 4x4 cluster's job over n elements in parts
// partitions with partition p's original stalled: the copy on the
// partition's preferred worker (a backup always races on another) hangs
// until a backup has computed the partition, then dies, retries included.
// Only the backup can commit it, so the backup wins by construction and what
// the run exercises is maybeSpeculate finding the straggler (on a commit or
// on its re-arm timer), never a sleep racing the host's scheduler. Sink
// deliveries are counted per partition.
func runStalled(t *testing.T, n int64, parts, p int) ([][]int64, *JobMetrics, map[int]int) {
	t.Helper()
	// A run that never speculates must fail its assertions, not hang.
	stall := faults.Entry{Layer: faults.Before, Partition: p, Do: faults.Hang, Dur: 10 * time.Second, Rescue: true}
	sched := faults.New(1)
	// More real slots than machine cores: the parked original must not
	// starve its own backup of the execution slot (nproc can be 1 in CI).
	ctx := testContext(t, 4, 4,
		WithSpeculation(SpeculationConfig{Enabled: true, Quantile: 0.5, Multiplier: 1.2}),
		WithFaults(sched), WithRealParallelism(4))
	original, retries := stall, stall
	original.Worker, original.To = ctx.PartitionWorker(p, parts), 1
	retries.Worker, retries.From = faults.Any, 1
	sched.Add(original, retries)
	r, _ := Range(ctx, n, parts)
	var mu sync.Mutex
	seen := make(map[int]int)
	got, jm, err := r.CollectPartitionsEach(func(q int, items []int64) {
		mu.Lock()
		seen[q]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, jm, seen
}

func TestSpeculationBackupWinsBitIdentical(t *testing.T) {
	r, _ := Range(testContext(t, 4, 4), 64, 16)
	clean, _, err := r.CollectPartitions()
	if err != nil {
		t.Fatal(err)
	}
	delayed, jm, _ := runStalled(t, 64, 16, 3)
	if jm.SpeculativeWins == 0 {
		t.Fatal("the stalled task's backup copy should have won")
	}
	if !jm.Tasks[3].Speculative {
		t.Fatal("partition 3's committed result should come from the backup copy")
	}
	if !reflect.DeepEqual(clean, delayed) {
		t.Fatalf("speculated run diverged:\n clean %v\n spec  %v", clean, delayed)
	}
}

func TestSpeculationSinkFiresOncePerPartition(t *testing.T) {
	_, jm, seen := runStalled(t, 32, 8, 1)
	if jm.SpeculativeWins == 0 {
		t.Fatal("no speculative copy won")
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("sink fired %d times for partition %d", n, p)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("sink covered %d partitions, want 8", len(seen))
	}
}
