// Package spark is a from-scratch reimplementation of the slice of Apache
// Spark that the OmpCloud paper relies on: Resilient Distributed Datasets
// partitioned over a driver/worker cluster, narrow transformations executed
// as one task per partition, broadcast variables, collect/reduce actions with
// driver-side reconstruction, and lineage-based fault tolerance (a failed
// task is recomputed from its deterministic parent chain, on another worker
// if the original is blacklisted).
//
// The operators are the ones something calls — the offloading plan engine,
// the benchmark, examples/rawspark: Parallelize and Range; Map,
// MapPartitions, Filter, Gated and Persist; one driver-mediated shuffle,
// ReduceByKey; NewBroadcast; and the actions Collect, CollectPartitions,
// CollectPartitionsEach, Reduce, Count and Foreach.
//
// Execution is real: every task runs its closure on a goroutine holding one
// of a bounded set of machine-core slots, and its duration is measured while
// it exclusively holds the slot. Reported times, however, are virtual: the
// scheduler replays the measured (or injected) durations onto the simulated
// cluster topology (W workers x C cores) so that a 256-core EC2 deployment
// is reproducible on a laptop. See DESIGN.md §5.
package spark

import (
	"fmt"
	"runtime"
	"sync"

	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/simtime"
)

// ClusterSpec is the simulated topology: the paper's deployment is
// {Workers: 16, CoresPerWorker: 16} (c3.8xlarge, 2 vCPUs per Spark task).
type ClusterSpec struct {
	Workers        int
	CoresPerWorker int
}

// TotalCores reports the cluster-wide task-slot count.
func (s ClusterSpec) TotalCores() int { return s.Workers * s.CoresPerWorker }

// Validate checks the spec.
func (s ClusterSpec) Validate() error {
	if s.Workers < 1 || s.CoresPerWorker < 1 {
		return fmt.Errorf("spark: invalid cluster spec %+v", s)
	}
	return nil
}

// Costs carries the engine's fixed virtual scheduling overheads, separated
// so ablation benches can zero them individually.
type Costs struct {
	// JobSubmit is charged once per job: driver JVM spin-up, DAG
	// construction, the cost the paper pays when "the runtime submits the
	// job to the Spark cluster".
	JobSubmit simtime.Duration
	// TaskDispatch is the serialized per-task launch cost on the driver;
	// it is what makes Spark overhead grow with the task count.
	TaskDispatch simtime.Duration
	// TaskRetry is the additional latency of detecting a failure and
	// rescheduling (per failed attempt).
	TaskRetry simtime.Duration
}

// DefaultCosts models a warm Spark 2.1 cluster.
func DefaultCosts() Costs {
	return Costs{
		JobSubmit:    1500 * simtime.Millisecond,
		TaskDispatch: 4 * simtime.Millisecond,
		TaskRetry:    100 * simtime.Millisecond,
	}
}

// Logf receives engine log lines when installed via WithLogger — the
// paper's "print the log messages of Spark to the standard output of the
// host computer to check the current state of the computation".
type Logf func(format string, args ...any)

// Context owns a simulated cluster: topology, the real-execution slot pool,
// fault injection, and accumulated metrics. It corresponds to a SparkContext
// connected to the driver of Fig. 2.
type Context struct {
	spec  ClusterSpec
	costs Costs

	slots      chan struct{} // bounds real parallelism to machine cores
	faults     *faults.Schedule
	maxRetries int
	log        Logf
	metricDev  string // keys per-task metrics by device (span.DevKey)

	lease       LeaseConfig
	speculation SpeculationConfig

	mu          sync.Mutex
	deadWorkers map[int]bool
	draining    map[int]bool // elastic scale-in: alive, finishing, no new work
	leases      []resilience.Lease
	vnow        simtime.Duration         // virtual membership clock
	diedAt      map[int]simtime.Duration // lease-expiry death times (for rejoin)
	jobSeq      int
	activeJobs  int // jobs currently inside runJob (gates RemoveDrained)
	metrics     EngineMetrics
}

// Option configures a Context.
type Option func(*Context)

// WithCosts overrides the scheduling cost constants.
func WithCosts(c Costs) Option { return func(ctx *Context) { ctx.costs = c } }

// WithFaults runs the context under a fault schedule: its Before and After
// entries fail, hang or kill task attempts, and its Beat entries silence
// heartbeats of the membership layer.
func WithFaults(s *faults.Schedule) Option { return func(ctx *Context) { ctx.faults = s } }

// WithMaxRetries overrides the per-task retry budget (default 3, Spark's
// spark.task.maxFailures-1).
func WithMaxRetries(n int) Option { return func(ctx *Context) { ctx.maxRetries = n } }

// WithLogger forwards engine events (job/task lifecycle, failures,
// retries) to the given sink.
func WithLogger(l Logf) Option { return func(ctx *Context) { ctx.log = l } }

// WithMetricDevice keys this context's tile-compute histogram
// ("spark.task.compute.seconds") by device name, so two clusters running
// concurrently keep separable skew distributions; the unkeyed histogram
// still receives every sample as the all-device aggregate.
func WithMetricDevice(dev string) Option { return func(ctx *Context) { ctx.metricDev = dev } }

// WithRealParallelism bounds the number of machine cores used for real
// execution (default: runtime.NumCPU()). Tests use 1 for determinism probes.
func WithRealParallelism(n int) Option {
	return func(ctx *Context) {
		if n < 1 {
			n = 1
		}
		ctx.slots = make(chan struct{}, n)
	}
}

// NewContext builds a context for the given simulated topology.
func NewContext(spec ClusterSpec, opts ...Option) (*Context, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx := &Context{
		spec:        spec,
		costs:       DefaultCosts(),
		slots:       make(chan struct{}, runtime.NumCPU()),
		maxRetries:  3,
		deadWorkers: make(map[int]bool),
		draining:    make(map[int]bool),
	}
	for _, o := range opts {
		o(ctx)
	}
	if ctx.lease.Heartbeat > 0 {
		if ctx.lease.Misses < 1 {
			ctx.lease.Misses = DefaultLeaseMisses
		}
		ctx.leases = make([]resilience.Lease, spec.Workers)
		for w := range ctx.leases {
			ctx.leases[w] = resilience.Lease{Interval: ctx.lease.Heartbeat, Misses: ctx.lease.Misses}
		}
		ctx.diedAt = make(map[int]simtime.Duration)
	}
	ctx.speculation = ctx.speculation.normalized()
	return ctx, nil
}

// Spec reports the simulated topology. With elastic membership the worker
// count is the current one — scale events change what later jobs see.
func (c *Context) Spec() ClusterSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spec
}

// logf emits an engine log line when a logger is installed.
func (c *Context) logf(format string, args ...any) {
	if c.log != nil {
		c.log(format, args...)
	}
}

// Costs reports the scheduling cost constants.
func (c *Context) Costs() Costs { return c.costs }

// KillWorker blacklists a simulated worker: its in-flight and future task
// attempts fail and are rescheduled elsewhere, Spark's executor-loss path.
func (c *Context) KillWorker(w int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadWorkers[w] = true
}

// ReviveWorker removes a worker from the blacklist.
func (c *Context) ReviveWorker(w int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.deadWorkers, w)
}

// AliveWorkers reports the non-blacklisted worker count.
func (c *Context) AliveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spec.Workers - len(c.deadWorkers)
}

func (c *Context) workerDead(w int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadWorkers[w]
}

// nextWorker picks the first alive worker at or after w (wrapping), used to
// reassign failed tasks. Draining workers are passed over while any other
// worker is alive — they are finishing what they hold, not taking new
// attempts — but remain a last resort over failing the job.
func (c *Context) nextWorker(w int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < c.spec.Workers; i++ {
		cand := (w + i) % c.spec.Workers
		if !c.deadWorkers[cand] && !c.draining[cand] {
			return cand, nil
		}
	}
	for i := 0; i < c.spec.Workers; i++ {
		cand := (w + i) % c.spec.Workers
		if !c.deadWorkers[cand] {
			return cand, nil
		}
	}
	// Transient: the manager may still recover the region on the host.
	return 0, resilience.MarkTransient(fmt.Errorf("spark: no alive workers"))
}

// Metrics returns a snapshot of the accumulated engine metrics.
func (c *Context) Metrics() EngineMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

// PartitionWorker reports the worker a partition is assigned to on its first
// attempt: the block distribution of Eq. 3 (partition p of P goes to worker
// floor(p*W/P)), re-derived over the live worker set so that unstarted tasks
// of a shrunk cluster spread evenly across survivors instead of piling onto
// the blacklist's neighbors.
func (c *Context) PartitionWorker(p, numPartitions int) int {
	if numPartitions <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	alive := make([]int, 0, c.spec.Workers)
	for w := 0; w < c.spec.Workers; w++ {
		if !c.deadWorkers[w] && !c.draining[w] {
			alive = append(alive, w)
		}
	}
	if len(alive) == 0 {
		// Everyone left is draining (or dead): assign over the draining
		// survivors rather than none.
		for w := 0; w < c.spec.Workers; w++ {
			if !c.deadWorkers[w] {
				alive = append(alive, w)
			}
		}
	}
	if len(alive) == 0 {
		// Cluster lost: return the static map; nextWorker reports the
		// actual error.
		w := p * c.spec.Workers / numPartitions
		if w >= c.spec.Workers {
			w = c.spec.Workers - 1
		}
		return w
	}
	i := p * len(alive) / numPartitions
	if i >= len(alive) {
		i = len(alive) - 1
	}
	return alive[i]
}
