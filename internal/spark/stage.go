package spark

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"ompcloud/internal/resilience"
	"ompcloud/internal/simtime"
	"ompcloud/internal/trace/span"
)

// ErrWorkerLost marks task-attempt failures caused by executor loss (the
// worker was blacklisted or its lease expired while the attempt was in
// flight). Retries after such a failure are re-executions of lost work and
// are counted separately from ordinary fault retries.
var ErrWorkerLost = errors.New("worker lost")

// errCopyAbandoned is returned by a task copy that stopped because another
// copy of the same partition already committed the result.
var errCopyAbandoned = errors.New("copy abandoned: partition already committed")

// TaskMetrics describes one task's execution within a job.
type TaskMetrics struct {
	Partition int
	Worker    int // worker that ran the successful attempt
	Attempts  int
	// Compute is the measured duration of the successful attempt — pure
	// loop-body time, the "OmpCloud-computation" component.
	Compute simtime.Duration
	// Effective additionally includes failed attempts and retry latency;
	// the virtual scheduler places this on the simulated cores.
	Effective simtime.Duration
	// Speculative marks results committed by a backup copy.
	Speculative bool
}

// JobMetrics aggregates one job (= one stage here: the OmpCloud jobs are
// chains of narrow transformations, which Spark pipelines into single-stage
// jobs).
type JobMetrics struct {
	JobID    int
	NumTasks int
	Tasks    []TaskMetrics
	Failures int // failed attempts across all tasks

	// Reexecuted counts attempts re-run because their worker was lost
	// (lease expiry or blacklist), the lineage-recovery path.
	Reexecuted int
	// SpeculativeWins / SpeculativeLosses count backup copies that did /
	// did not commit their partition first.
	SpeculativeWins   int
	SpeculativeLosses int
	// DeadWorkers is how many workers' leases expired during this job.
	DeadWorkers int

	// Submit is the fixed job-submission cost.
	Submit simtime.Duration
	// ComputeMakespan is the virtual makespan of the pure compute
	// durations on the simulated cores, with no scheduling costs.
	ComputeMakespan simtime.Duration
	// TotalMakespan is the virtual makespan including per-task dispatch
	// staggering, failed attempts and retry latency.
	TotalMakespan simtime.Duration
}

// Virtual reports the job's total virtual duration as observed by the
// driver: submission plus the scheduled makespan.
func (jm *JobMetrics) Virtual() simtime.Duration { return jm.Submit + jm.TotalMakespan }

// SchedulingOverhead reports the virtual time lost to everything that is not
// pure computation — the intra-cluster share of the paper's "Spark overhead".
func (jm *JobMetrics) SchedulingOverhead() simtime.Duration {
	return jm.Virtual() - jm.ComputeMakespan
}

// TotalCompute sums the pure compute time across tasks (the serial-
// equivalent work the cluster performed).
func (jm *JobMetrics) TotalCompute() simtime.Duration {
	var sum simtime.Duration
	for _, t := range jm.Tasks {
		sum += t.Compute
	}
	return sum
}

// EngineMetrics accumulates across a Context's lifetime.
type EngineMetrics struct {
	JobsRun        int
	TasksRun       int
	AttemptsFailed int
	ComputeTotal   simtime.Duration

	// Reexecuted counts attempts re-run after executor loss.
	Reexecuted int
	// SpeculativeWins / SpeculativeLosses count speculative backup copies
	// by race outcome.
	SpeculativeWins   int
	SpeculativeLosses int
	// DeadWorkers / Rejoins count lease expiries and flapping rejoins.
	DeadWorkers int
	Rejoins     int
	// Births counts workers added by elastic scale-out (AddWorkers).
	Births int
}

// jobState tracks one job's in-flight task copies: the original copy per
// partition plus any speculative backups, with first-finisher-wins commit.
type jobState[T any] struct {
	ctx      *Context
	r        *RDD[T]
	jobID    int
	numTasks int
	each     func(p int, out []T)
	wg       sync.WaitGroup

	mu       sync.Mutex
	slots    []copySlot
	results  [][]T
	jm       *JobMetrics
	durs     []time.Duration // real durations of committed tasks (speculation baseline)
	done     int             // partitions with a committed outcome (result or failure)
	recheck  *time.Timer     // pending deferred speculation re-check, nil when unarmed
	firstErr error
}

// copySlot is the per-partition commit state.
type copySlot struct {
	outstanding int       // copies still running
	committed   bool      // an outcome (success or final failure) is recorded
	speculated  bool      // a backup copy was launched
	started     time.Time // when the original copy began executing
	copyErr     error     // first copy failure, kept in case every copy fails
}

// runJob executes one job: one task per partition, with per-task retry,
// worker reassignment on failure, straggler speculation, real execution on
// bounded machine-core slots, and virtual-time accounting onto the simulated
// topology.
//
// each, when non-nil, is invoked with every partition's result as soon as
// its task succeeds — while other tasks are still running — so a caller can
// stream results out of the job instead of waiting for the collect barrier.
// It runs on the task's goroutine, fires exactly once per partition even
// when speculative copies race, and must be safe for concurrent calls.
func runJob[T any](r *RDD[T], each func(p int, out []T)) ([][]T, *JobMetrics, error) {
	ctx := r.ctx
	ctx.mu.Lock()
	ctx.jobSeq++
	jobID := ctx.jobSeq
	ctx.activeJobs++
	ctx.mu.Unlock()

	ctx.logf("spark: job %d: submitting %s (%d tasks on %d workers x %d cores)",
		jobID, r.name, r.numPartitions, ctx.spec.Workers, ctx.spec.CoresPerWorker)

	numTasks := r.numPartitions
	jm := &JobMetrics{
		JobID:    jobID,
		NumTasks: numTasks,
		Tasks:    make([]TaskMetrics, numTasks),
		Submit:   ctx.costs.JobSubmit,
	}
	deaths0 := ctx.deaths()
	jobSpan := span.Start(fmt.Sprintf("spark.job %d", jobID), "spark", 0)
	jobSpan.SetAttr("name", r.name)
	jobSpan.SetAttr("tasks", strconv.Itoa(numTasks))

	j := &jobState[T]{
		ctx:      ctx,
		r:        r,
		jobID:    jobID,
		numTasks: numTasks,
		each:     each,
		slots:    make([]copySlot, numTasks),
		results:  make([][]T, numTasks),
		jm:       jm,
	}
	for p := 0; p < numTasks; p++ {
		j.slots[p].outstanding = 1
		j.wg.Add(1)
		go func(p int) {
			defer j.wg.Done()
			j.runCopy(p, false)
		}(p)
	}
	j.wg.Wait()
	j.mu.Lock()
	if j.recheck != nil {
		j.recheck.Stop()
		j.recheck = nil
	}
	j.mu.Unlock()

	computeDurs := make([]simtime.Duration, numTasks)
	effectiveDurs := make([]simtime.Duration, numTasks)
	var computeTotal simtime.Duration
	for p := range jm.Tasks {
		computeDurs[p] = jm.Tasks[p].Compute
		effectiveDurs[p] = jm.Tasks[p].Effective
		computeTotal += jm.Tasks[p].Compute
	}
	cores := ctx.spec.TotalCores()
	jm.ComputeMakespan = simtime.Makespan(computeDurs, cores)
	jm.TotalMakespan = simtime.MakespanStaggered(effectiveDurs, cores, ctx.costs.TaskDispatch)
	jm.DeadWorkers = ctx.deaths() - deaths0

	// The tile-skew histogram: per-task compute durations, whose spread is
	// what speculation exists to fight. A device-keyed sibling keeps two
	// concurrent clusters' distributions separable.
	taskHist := span.Metrics().Histogram("spark.task.compute.seconds")
	var devHist *span.Histogram
	if ctx.metricDev != "" {
		devHist = span.Metrics().Histogram(span.DevKey("spark.task.compute.seconds", ctx.metricDev))
	}
	for p := range jm.Tasks {
		taskHist.Observe(jm.Tasks[p].Compute.Seconds())
		if devHist != nil {
			devHist.Observe(jm.Tasks[p].Compute.Seconds())
		}
	}
	jobSpan.SetAttr("failures", strconv.Itoa(jm.Failures))
	jobSpan.SetAttr("dead_workers", strconv.Itoa(jm.DeadWorkers))
	jobSpan.End()

	ctx.mu.Lock()
	ctx.metrics.JobsRun++
	ctx.metrics.TasksRun += numTasks
	ctx.metrics.AttemptsFailed += jm.Failures
	ctx.metrics.ComputeTotal += computeTotal
	ctx.metrics.Reexecuted += jm.Reexecuted
	ctx.metrics.SpeculativeWins += jm.SpeculativeWins
	ctx.metrics.SpeculativeLosses += jm.SpeculativeLosses
	ctx.activeJobs--
	ctx.mu.Unlock()

	firstErr := j.firstErr
	if firstErr != nil {
		ctx.logf("spark: job %d: FAILED: %v", jobID, firstErr)
		return nil, jm, fmt.Errorf("spark: job %d failed: %w", jobID, firstErr)
	}
	ctx.logf("spark: job %d: finished (compute makespan %v, %d failed attempts)",
		jobID, jm.ComputeMakespan.Real(), jm.Failures)
	return j.results, jm, nil
}

// runCopy executes one copy (original or speculative backup) of a partition
// to completion and feeds its outcome into the commit protocol.
func (j *jobState[T]) runCopy(p int, speculative bool) {
	tm, out, err := j.runAttempts(p, speculative)
	j.finish(p, speculative, tm, out, err)
}

// runAttempts runs one copy of a partition with retries. The returned
// TaskMetrics is meaningful even on error (attempt counts for diagnostics).
func (j *jobState[T]) runAttempts(p int, speculative bool) (TaskMetrics, []T, error) {
	ctx := j.ctx
	tm := TaskMetrics{Partition: p, Speculative: speculative}
	if j.r.gate != nil && !speculative {
		// Tile readiness: wait before acquiring a core slot and before any
		// timing starts, so the wait neither occupies an executor core nor
		// leaks into Compute/Effective. Retries skip the wait — data that
		// arrived once is still resident. Backups are only ever launched
		// for tasks already past their gate.
		<-j.r.gate(p)
	}
	if !speculative {
		j.mu.Lock()
		j.slots[p].started = time.Now()
		j.mu.Unlock()
	}
	assigned := ctx.PartitionWorker(p, j.numTasks)
	if speculative {
		// Race the backup on a different executor than the original's
		// preferred one.
		assigned = (assigned + 1) % ctx.spec.Workers
	}
	var lastErr error
	for attempt := 0; attempt <= ctx.maxRetries; attempt++ {
		if j.abandoned(p) {
			return tm, nil, errCopyAbandoned
		}
		worker, err := ctx.nextWorker(assigned)
		if err != nil {
			return tm, nil, err // cluster lost
		}
		tm.Attempts++
		out, dur, err := executeAttempt(ctx, j.r, j.jobID, p, attempt, worker)
		if err == nil {
			tm.Worker = worker
			tm.Compute = dur
			tm.Effective += dur
			return tm, out, nil
		}
		lastErr = err
		ctx.logf("spark: job %d: task %d attempt %d failed on worker %d: %v",
			j.jobID, p, attempt, worker, err)
		tm.Effective += dur + ctx.costs.TaskRetry
		if errors.Is(err, ErrWorkerLost) && attempt < ctx.maxRetries {
			// The work was lost with its executor; the next attempt is a
			// lineage re-execution on a survivor.
			j.mu.Lock()
			j.jm.Reexecuted++
			j.mu.Unlock()
			span.Event("spark.reexecute", "spark",
				span.Attr{Key: "partition", Val: strconv.Itoa(p)},
				span.Attr{Key: "worker", Val: strconv.Itoa(worker)})
			span.Metrics().Counter("spark.reexecutions").Inc()
		}
		// Reassign: skip past the failing worker on the next attempt.
		assigned = (worker + 1) % ctx.spec.Workers
	}
	return tm, nil, fmt.Errorf("task %d exhausted %d attempts: %w", p, tm.Attempts, lastErr)
}

// abandoned reports whether partition p already has a committed result, so a
// racing copy can stop between attempts.
func (j *jobState[T]) abandoned(p int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.slots[p].committed
}

// finish is the idempotent result commit: the first copy to succeed records
// the partition's result and fires the streaming sink; later finishers are
// discarded. A failure only commits once every copy of the partition has
// failed, so a healthy backup can still rescue a partition whose original
// exhausted its retries.
func (j *jobState[T]) finish(p int, speculative bool, tm TaskMetrics, out []T, err error) {
	j.mu.Lock()
	s := &j.slots[p]
	s.outstanding--
	failed := tm.Attempts
	if err == nil {
		failed--
	}
	j.jm.Failures += failed
	if err == nil && !s.committed {
		s.committed = true
		j.done++
		j.jm.Tasks[p] = tm
		j.results[p] = out
		j.durs = append(j.durs, tm.Compute.Real())
		if speculative {
			j.jm.SpeculativeWins++
			j.ctx.logf("spark: job %d: speculative copy of task %d won on worker %d",
				j.jobID, p, tm.Worker)
			span.Event("spark.speculative.win", "spark",
				span.Attr{Key: "partition", Val: strconv.Itoa(p)},
				span.Attr{Key: "worker", Val: strconv.Itoa(tm.Worker)})
		}
		each := j.each
		j.mu.Unlock()
		if each != nil {
			each(p, out)
		}
		j.maybeSpeculate()
		return
	}
	if err == nil { // late success: another copy already committed
		if speculative {
			j.jm.SpeculativeLosses++
		}
		j.mu.Unlock()
		return
	}
	// This copy failed (or abandoned the race).
	if speculative && !errors.Is(err, errCopyAbandoned) {
		j.jm.SpeculativeLosses++
	}
	if s.copyErr == nil && !errors.Is(err, errCopyAbandoned) {
		s.copyErr = err
	}
	if !s.committed && s.outstanding == 0 {
		// Every copy of this partition failed: commit the failure.
		s.committed = true
		j.done++
		j.jm.Tasks[p] = tm
		e := s.copyErr
		if e == nil {
			e = err
		}
		if j.firstErr == nil {
			j.firstErr = e
		}
	}
	j.mu.Unlock()
}

// maybeSpeculate launches backup copies for stragglers: once the quantile
// of tasks has finished, any running task slower than Multiplier x the
// median finished duration gets exactly one backup. It is evaluated after
// each commit and, when a still-running task sits below the threshold, once
// more after the task could have crossed it — the deferred re-check stands
// in for Spark's periodic speculation thread, covering stragglers that slow
// down only after the stage's final healthy commit.
func (j *jobState[T]) maybeSpeculate() {
	sc := j.ctx.speculation
	if !sc.Enabled {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	quorum := int(math.Ceil(sc.Quantile * float64(j.numTasks)))
	if quorum < 1 {
		quorum = 1
	}
	if j.done < quorum || j.done >= j.numTasks || len(j.durs) == 0 {
		return
	}
	durs := make([]time.Duration, len(j.durs))
	copy(durs, j.durs)
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	median := durs[len(durs)/2]
	threshold := time.Duration(float64(median) * sc.Multiplier)
	now := time.Now()
	// rearm tracks the soonest a still-running task could cross the
	// threshold; -1 means no candidate needs a re-check.
	rearm := time.Duration(-1)
	for p := range j.slots {
		s := &j.slots[p]
		if s.committed || s.speculated {
			continue
		}
		if s.started.IsZero() {
			// Copy goroutine not yet scheduled: unmeasurable now, but it
			// may become a straggler — re-check one threshold from now.
			if rearm < 0 || threshold < rearm {
				rearm = threshold
			}
			continue
		}
		if el := now.Sub(s.started); el <= threshold {
			if rem := threshold - el; rearm < 0 || rem < rearm {
				rearm = rem
			}
			continue
		}
		s.speculated = true
		s.outstanding++
		j.ctx.logf("spark: job %d: task %d running %v > %v threshold, launching backup",
			j.jobID, p, now.Sub(s.started), threshold)
		span.Event("spark.speculate", "spark",
			span.Attr{Key: "partition", Val: strconv.Itoa(p)})
		span.Metrics().Counter("spark.speculations").Inc()
		j.wg.Add(1)
		go func(p int) {
			defer j.wg.Done()
			j.runCopy(p, true)
		}(p)
	}
	if rearm >= 0 && j.recheck == nil {
		// Some task is still below the threshold: re-evaluate once it could
		// have crossed it, even if no further commit event arrives. The
		// grace keeps a borderline elapsed from re-arming a cascade of
		// near-zero timers.
		const grace = 100 * time.Microsecond
		j.recheck = time.AfterFunc(rearm+grace, func() {
			j.mu.Lock()
			j.recheck = nil
			j.mu.Unlock()
			j.maybeSpeculate()
		})
	}
}

// executeAttempt runs the partition computation on a real machine-core slot
// and measures its duration while it exclusively holds the slot, so that
// concurrent tasks do not pollute each other's measurements. Attempt
// boundaries pump the membership clock: one heartbeat tick at launch and one
// at completion, which is what makes a die-at-task-N worker lose the attempt
// it is running.
func executeAttempt[T any](ctx *Context, r *RDD[T], jobID, p, attempt, worker int) (out []T, dur simtime.Duration, err error) {
	ctx.slots <- struct{}{}
	defer func() { <-ctx.slots }()

	// A die entry trips on this start, which the launch tick must see; the
	// schedule's verdict on the attempt lands after the tick.
	ferr := ctx.faults.Before(jobID, p, attempt, worker)
	ctx.tick()
	if ferr != nil {
		return nil, 0, resilience.MarkTransient(ferr)
	}
	if ctx.workerDead(worker) {
		return nil, 0, resilience.MarkTransient(fmt.Errorf("executor %d: %w", worker, ErrWorkerLost))
	}

	defer func() {
		if rec := recover(); rec != nil {
			// A panicking task kills only its attempt, as a crashing
			// executor would; lineage recomputation handles the rest.
			out, err = nil, fmt.Errorf("task panic: %v", rec)
		}
	}()
	start := time.Now()
	out, err = r.compute(p)
	dur = simtime.FromReal(time.Since(start))
	if err != nil {
		return nil, dur, err
	}
	ctx.tick()
	if ctx.workerDead(worker) { // worker died mid-flight: result is lost
		return nil, dur, resilience.MarkTransient(fmt.Errorf("executor %d died during task, result lost: %w", worker, ErrWorkerLost))
	}
	if ferr := ctx.faults.After(jobID, p, attempt, worker); ferr != nil {
		// Crash-after-success: the computation finished but the result
		// never left the executor, so it is discarded and the attempt
		// fails like any lost worker.
		return nil, dur, resilience.MarkTransient(ferr)
	}
	return out, dur, nil
}
