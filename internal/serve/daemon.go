package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ompcloud/internal/offload"
	"ompcloud/internal/resilience"
	"ompcloud/internal/simtime"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

// Registry metric names of the service plane. Queue depth and drop counts
// are gauges so overload is observable while it happens; admission
// outcomes and completions are counters keyed per tenant via
// span.TenantKey.
const (
	MetricQueueDepth    = "serve.queue.depth"
	MetricPoolCores     = "serve.pool.cores"
	MetricWorkersLive   = "serve.workers.live"
	MetricJobsRunning   = "serve.jobs.running"
	metricAdmitted      = "serve.jobs.admitted"
	metricRejectedQuota = "serve.jobs.rejected.quota"
	metricShed          = "serve.jobs.shed"
	metricDone          = "serve.jobs.done"
	metricFailed        = "serve.jobs.failed"
	metricRecovered     = "serve.jobs.recovered"
	metricLatency       = "serve.job.latency.seconds"
)

// Defaults for Config zero values.
const (
	DefaultMaxQueue  = 64
	DefaultFairShare = 4
	DefaultPoolCores = 16
	DefaultRate      = 4 // jobs per virtual second per tenant
	DefaultBurst     = 8 // bucket depth
	defaultMeanJob   = simtime.Second
)

// DefaultWorkerLease is the registered-worker heartbeat interval; a worker
// missing DefaultWorkerMisses consecutive intervals is pruned from the
// pool — the same lease policy spark's executor membership applies inside
// a job, lifted to the service plane.
const (
	DefaultWorkerLease  = 2 * simtime.Second
	DefaultWorkerMisses = 3
)

// Config assembles a Daemon.
type Config struct {
	// MaxQueue is the admission high watermark: once this many jobs are
	// queued (running jobs excluded), further submissions are shed with a
	// retry-after hint instead of growing the queue — the daemon's memory
	// is bounded no matter the offered load. 0 means DefaultMaxQueue.
	MaxQueue int
	// Limits is the default per-tenant admission contract; Overrides
	// replaces it for named tenants.
	Limits    Limits
	Overrides map[string]Limits
	// FairShare bounds concurrently running jobs (dispatch slots).
	// 0 means DefaultFairShare.
	FairShare int
	// PoolCores is the shared executor pool width when no workers are
	// registered; registered workers replace it with the sum of their
	// advertised cores. 0 means DefaultPoolCores; negative means no
	// static fallback at all — the pool is exactly the registered
	// workers, and with every lease expired its width is genuinely zero
	// (dispatch stalls until a worker returns).
	PoolCores int
	// WorkerLease/WorkerMisses set the registered-worker liveness lease.
	// 0 means the defaults.
	WorkerLease  simtime.Duration
	WorkerMisses int
	// Store carries the write-ahead job journal and the tenants/ object
	// namespaces. Required.
	Store storage.Store
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.FairShare <= 0 {
		c.FairShare = DefaultFairShare
	}
	if c.PoolCores == 0 {
		c.PoolCores = DefaultPoolCores
	}
	if c.PoolCores < 0 { // workers-only: no static fallback
		c.PoolCores = 0
	}
	if c.Limits.Rate == 0 {
		c.Limits.Rate = DefaultRate
	}
	if c.Limits.Burst == 0 {
		c.Limits.Burst = DefaultBurst
	}
	if c.Limits.Weight == 0 {
		c.Limits.Weight = 1
	}
	if c.WorkerLease == 0 {
		c.WorkerLease = DefaultWorkerLease
	}
	if c.WorkerMisses == 0 {
		c.WorkerMisses = DefaultWorkerMisses
	}
	return c
}

// Rejection explains a refused submission. It is not an error in the Go
// sense the daemon failed — it is the admission controller doing its job —
// but it implements error for convenient surfacing.
type Rejection struct {
	// Reason is "quota" (tenant token bucket dry), "overload" (queue past
	// the high watermark), "draining" (shutdown in progress), or
	// "invalid" (malformed submission).
	Reason string
	// RetryAfter is the client's backoff hint: for quota, the time until
	// a token accrues; for overload, an estimate of queue drain time.
	RetryAfter simtime.Duration
	// Err carries detail for "invalid".
	Err error
}

func (r *Rejection) Error() string {
	if r.Err != nil {
		return fmt.Sprintf("serve: rejected (%s): %v", r.Reason, r.Err)
	}
	return fmt.Sprintf("serve: rejected (%s), retry after %v", r.Reason, r.RetryAfter)
}

// workerEntry is one registered executor process.
type workerEntry struct {
	addr  string
	cores int
	lease resilience.Lease
}

// Daemon is the service-plane state machine: admission, queueing, fair
// dispatch, completion, drain, and recovery. All methods are safe for
// concurrent use; none block, spawn goroutines, or read clocks — callers
// pass virtual time explicitly, so the wall-driven TCP front and the
// simulated-clock bench share one implementation.
type Daemon struct {
	mu  sync.Mutex
	cfg Config
	wal *journal

	tenants map[string]*tenantState
	order   []string // deterministic tenant iteration

	seq     int
	queued  int
	running map[string]*Job
	granted int // cores currently handed out

	workers  map[string]*workerEntry
	draining bool

	// meanJob is an EWMA of completed-job virtual durations, feeding the
	// overload retry-after estimate.
	meanJob simtime.Duration
}

// New builds a Daemon over its backing store.
func New(cfg Config) (*Daemon, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: config needs a store")
	}
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:     cfg,
		wal:     &journal{store: cfg.Store},
		tenants: make(map[string]*tenantState),
		running: make(map[string]*Job),
		workers: make(map[string]*workerEntry),
		meanJob: defaultMeanJob,
	}
	span.Metrics().Gauge(MetricPoolCores).Set(int64(cfg.PoolCores))
	return d, nil
}

func (d *Daemon) tenant(name string, now simtime.Duration) *tenantState {
	t, ok := d.tenants[name]
	if !ok {
		lim := d.cfg.Limits
		if o, ok := d.cfg.Overrides[name]; ok {
			lim = o.withDefaults(d.cfg.Limits)
		}
		t = newTenantState(name, lim, now)
		d.tenants[name] = t
		d.order = append(d.order, name)
		sort.Strings(d.order)
	}
	return t
}

// Submit runs the admission pipeline at virtual time now: drain check,
// tenant quota, queue watermark, then the durable write-ahead journal
// append, and only then the queue. The returned Rejection is nil iff the
// job was admitted; a non-nil error reports a daemon fault (journal
// write failure) distinct from a policy rejection.
func (d *Daemon) Submit(tenant, client string, spec JobSpec, now simtime.Duration) (*Job, *Rejection, error) {
	if !ValidTenant(tenant) {
		return nil, &Rejection{Reason: "invalid", Err: fmt.Errorf("bad tenant name %q", tenant)}, nil
	}
	if err := spec.Validate(); err != nil {
		return nil, &Rejection{Reason: "invalid", Err: err}, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return nil, &Rejection{Reason: "draining", RetryAfter: d.drainEstimate(now)}, nil
	}
	t := d.tenant(tenant, now)

	// Quota first: a flooding tenant is capped by its own bucket even
	// while the shared queue has room, so its overflow never consumes
	// watermark headroom other tenants paid for.
	if ok, wait := t.takeToken(now); !ok {
		t.rejectedQuota++
		span.Metrics().Counter(span.TenantKey(metricRejectedQuota, tenant)).Inc()
		return nil, &Rejection{Reason: "quota", RetryAfter: wait}, nil
	}
	if d.queued >= d.cfg.MaxQueue {
		t.rejectedLoad++
		span.Metrics().Counter(metricShed).Inc()
		span.Metrics().Counter(span.TenantKey(metricShed, tenant)).Inc()
		return nil, &Rejection{Reason: "overload", RetryAfter: d.drainEstimate(now)}, nil
	}

	d.seq++
	j := &Job{
		ID:        fmt.Sprintf("%08d-%s", d.seq, tenant),
		Tenant:    tenant,
		Client:    client,
		Spec:      spec,
		State:     JobQueued,
		Submitted: now,
	}
	// Write-ahead: the admission is durable before it is acknowledged.
	// If the journal write fails the job is not accepted — the daemon
	// never holds a job it could lose on restart.
	if err := d.wal.append(j); err != nil {
		return nil, nil, err
	}
	t.queue = append(t.queue, j)
	t.admitted++
	d.queued++
	span.Metrics().Gauge(MetricQueueDepth).Set(int64(d.queued))
	span.Metrics().Counter(span.TenantKey(metricAdmitted, tenant)).Inc()
	return j, nil, nil
}

// drainEstimate guesses how long the backlog needs: queue length over
// dispatch slots, times the observed mean job duration. It is a hint for
// Retry-After headers, not a promise. With zero pool capacity (workers-only
// mode, every lease expired) nothing is draining at all, so the slot-based
// figure would send shed clients straight back into a stalled daemon; the
// hint escalates to the worse of a full worker-lease death window (the
// soonest a returning worker could be noticed missing and replaced) and a
// serial one-core drain of the whole backlog.
func (d *Daemon) drainEstimate(now simtime.Duration) simtime.Duration {
	d.pruneWorkers(now) // a dead pool must not masquerade as capacity
	depth := d.queued + len(d.running)
	slots := d.cfg.FairShare
	est := d.meanJob * simtime.Duration(depth/slots+1)
	if d.poolCores() == 0 {
		stall := d.cfg.WorkerLease * simtime.Duration(d.cfg.WorkerMisses)
		serial := d.meanJob * simtime.Duration(depth+1)
		if serial > stall {
			return serial
		}
		return stall
	}
	return est
}

// Dispatch hands out jobs at virtual time now: while a fair-share slot and
// at least one pool core are free, the stride scheduler picks the queued
// tenant with the minimum pass (weighted — a weight-2 tenant is picked
// twice as often under contention), then the whole batch splits the free
// cores by tenant weight through the Eq. 3 partitioner. Jobs already
// running keep the grant they started with; the pool re-partitions at
// every dispatch boundary over what is actually free.
func (d *Daemon) Dispatch(now simtime.Duration) []Grant {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pruneWorkers(now)
	free := d.poolCores() - d.granted
	var picked []*Job
	for len(d.running)+len(picked) < d.cfg.FairShare &&
		len(picked) < free && d.queued > 0 {
		j := d.nextQueued()
		if j == nil {
			break
		}
		picked = append(picked, j)
	}
	if len(picked) == 0 {
		return nil
	}
	weights := make([]float64, len(picked))
	for i, j := range picked {
		weights[i] = d.tenants[j.Tenant].lim.Weight
	}
	shares, err := offload.WeightedShares(int64(free), weights)
	if err != nil {
		// Unreachable with validated weights; fall back to one core each.
		shares = make([]int64, len(picked))
	}
	// Every dispatched job needs at least one core; steal from the
	// largest grant to fix rounding-to-zero (possible when a low-weight
	// tenant shares a small free set with a heavy one).
	for i := range shares {
		if shares[i] > 0 {
			continue
		}
		max := 0
		for k := range shares {
			if shares[k] > shares[max] {
				max = k
			}
		}
		if shares[max] > 1 {
			shares[max]--
		}
		shares[i] = 1
	}
	grants := make([]Grant, len(picked))
	for i, j := range picked {
		cores := int(shares[i])
		j.State = JobRunning
		j.Started = now
		j.Cores = cores
		d.running[j.ID] = j
		d.granted += cores
		grants[i] = Grant{Job: j, Cores: cores}
	}
	d.queued -= len(picked)
	span.Metrics().Gauge(MetricQueueDepth).Set(int64(d.queued))
	span.Metrics().Gauge(MetricJobsRunning).Set(int64(len(d.running)))
	return grants
}

// nextQueued pops the head of the minimum-pass tenant's FIFO.
func (d *Daemon) nextQueued() *Job {
	var best *tenantState
	for _, name := range d.order {
		t := d.tenants[name]
		if len(t.queue) == 0 {
			continue
		}
		if best == nil || t.pass < best.pass {
			best = t
		}
	}
	if best == nil {
		return nil
	}
	j := best.queue[0]
	best.queue = best.queue[1:]
	best.pass += 1 / best.lim.Weight
	return j
}

// Complete retires a dispatched job at virtual time now, releasing its
// cores and its journal entry and folding its latency into the per-tenant
// stream. A failed job still completes — its error is the result.
func (d *Daemon) Complete(j *Job, res Result, now simtime.Duration) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.running[j.ID]; !ok {
		return fmt.Errorf("serve: completing %s, which is not running", j.ID)
	}
	delete(d.running, j.ID)
	d.granted -= j.Cores
	span.Metrics().Gauge(MetricJobsRunning).Set(int64(len(d.running)))
	j.State = JobDone
	j.Finished = now
	j.Err = res.Err
	j.Virtual = res.Virtual
	j.ResumedTiles = res.ResumedTiles
	t := d.tenants[j.Tenant]
	reg := span.Metrics()
	if res.Err != nil {
		t.failed++
		reg.Counter(span.TenantKey(metricFailed, j.Tenant)).Inc()
	} else {
		t.done++
		reg.Counter(span.TenantKey(metricDone, j.Tenant)).Inc()
		if res.Virtual > 0 {
			d.meanJob = (d.meanJob*4 + res.Virtual) / 5
		}
	}
	reg.Histogram(metricLatency).Observe(j.Sojourn().Seconds())
	reg.Histogram(span.TenantKey(metricLatency, j.Tenant)).Observe(j.Sojourn().Seconds())
	if err := d.wal.release(j.ID); err != nil {
		return err
	}
	return nil
}

// BeginDrain stops admission. Queued and running jobs are untouched: the
// driver keeps dispatching and completing until its deadline, and whatever
// remains stays in the journal for the next life of the daemon — that is
// the "finish or journal" guarantee.
func (d *Daemon) BeginDrain() {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
}

// Draining reports whether admission is closed.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Idle reports whether no work is queued or running.
func (d *Daemon) Idle() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queued == 0 && len(d.running) == 0
}

// RunningCount reports the in-flight job count.
func (d *Daemon) RunningCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.running)
}

// QueuedCount reports the queued job count.
func (d *Daemon) QueuedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queued
}

// Recover replays the write-ahead journal into the queue: every job a
// previous life admitted but never completed is re-admitted (bypassing
// quota and watermark — it was already paid for), marked Recovered, and
// will re-run over the same tenant namespace, where the resumable-session
// machinery serves any tiles the dead run already committed. Returns the
// recovered jobs in admission order. A record replay skips stays journaled,
// and the sequence advances past its key, so no new admission overwrites it.
func (d *Daemon) Recover(now simtime.Duration) ([]*Job, error) {
	entries, maxSeq, err := d.wal.replay()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq = max(d.seq, maxSeq)
	jobs := make([]*Job, 0, len(entries))
	for _, e := range entries {
		t := d.tenant(e.Tenant, now)
		j := &Job{
			ID:        e.ID,
			Tenant:    e.Tenant,
			Client:    e.Client,
			Spec:      e.Spec,
			State:     JobQueued,
			Submitted: now,
			Recovered: true,
		}
		t.queue = append(t.queue, j)
		t.admitted++
		d.queued++
		jobs = append(jobs, j)
		span.Metrics().Counter(metricRecovered).Inc()
	}
	span.Metrics().Gauge(MetricQueueDepth).Set(int64(d.queued))
	return jobs, nil
}

func parseSeq(id string) int {
	head, _, ok := strings.Cut(id, "-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(head)
	if err != nil {
		return 0
	}
	return n
}

// --- Worker registry ------------------------------------------------------

// RegisterWorker adds (or refreshes) an executor process at addr
// advertising cores task slots. Registered workers replace the static
// PoolCores sizing: the pool is the sum of live workers' cores, and the
// executor receives their addresses for real remote tile execution.
func (d *Daemon) RegisterWorker(addr string, cores int, now simtime.Duration) error {
	if addr == "" || cores <= 0 {
		return fmt.Errorf("serve: register worker %q with %d cores", addr, cores)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[addr]
	if !ok {
		w = &workerEntry{
			addr:  addr,
			lease: resilience.Lease{Interval: d.cfg.WorkerLease, Misses: d.cfg.WorkerMisses},
		}
		d.workers[addr] = w
	}
	w.cores = cores
	w.lease.Renew(now)
	d.publishPool()
	return nil
}

// WorkerHeartbeat renews a worker's lease; false means the worker is
// unknown (expired or never registered) and should re-register.
func (d *Daemon) WorkerHeartbeat(addr string, now simtime.Duration) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[addr]
	if !ok {
		return false
	}
	w.lease.Renew(now)
	return true
}

// DeregisterWorker removes a worker immediately (clean shutdown).
func (d *Daemon) DeregisterWorker(addr string, now simtime.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.workers, addr)
	d.publishPool()
}

// RetireWorker is the graceful scale-in path: it removes a worker only if
// the remaining pool still covers every core already granted to running
// jobs. This is what lets an autoscaler shrink the fleet without ever
// stranding an in-flight tile — a worker whose cores are spoken for stays
// until enough completions release them, and the caller retries later.
func (d *Daemon) RetireWorker(addr string, now simtime.Duration) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pruneWorkers(now)
	if _, ok := d.workers[addr]; !ok {
		return fmt.Errorf("serve: retire unknown worker %q", addr)
	}
	rest := 0
	for a, o := range d.workers {
		if a != addr {
			rest += o.cores
		}
	}
	if len(d.workers) == 1 {
		rest = d.cfg.PoolCores // back to the static fallback, if any
	}
	if rest < d.granted {
		return fmt.Errorf("serve: retiring %s would strand %d granted cores (%d remain, %d granted)",
			addr, d.granted-rest, rest, d.granted)
	}
	delete(d.workers, addr)
	d.publishPool()
	return nil
}

// GrantedCores reports the cores currently handed out to running jobs.
func (d *Daemon) GrantedCores() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.granted
}

// LiveWorkers reports the addresses of workers with unexpired leases, in
// sorted order.
func (d *Daemon) LiveWorkers(now simtime.Duration) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pruneWorkers(now)
	addrs := make([]string, 0, len(d.workers))
	for a := range d.workers {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs
}

// PoolCores reports the current executor pool width.
func (d *Daemon) PoolCores() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.poolCores()
}

func (d *Daemon) poolCores() int {
	if len(d.workers) == 0 {
		return d.cfg.PoolCores
	}
	sum := 0
	for _, w := range d.workers {
		sum += w.cores
	}
	return sum
}

// pruneWorkers drops expired leases. Callers hold d.mu.
func (d *Daemon) pruneWorkers(now simtime.Duration) {
	changed := false
	for a, w := range d.workers {
		if w.lease.Expired(now) {
			delete(d.workers, a)
			changed = true
		}
	}
	if changed {
		d.publishPool()
	}
}

// publishPool refreshes the pool gauges. Callers hold d.mu.
func (d *Daemon) publishPool() {
	span.Metrics().Gauge(MetricPoolCores).Set(int64(d.poolCores()))
	span.Metrics().Gauge(MetricWorkersLive).Set(int64(len(d.workers)))
}

// --- Introspection --------------------------------------------------------

// TenantStats is one tenant's admission and completion counters.
type TenantStats struct {
	Name          string `json:"name"`
	Admitted      int    `json:"admitted"`
	Done          int    `json:"done"`
	Failed        int    `json:"failed"`
	RejectedQuota int    `json:"rejected_quota"`
	RejectedLoad  int    `json:"rejected_load"`
	Queued        int    `json:"queued"`
}

// Stats is a daemon state snapshot.
type Stats struct {
	Queued      int           `json:"queued"`
	Running     int           `json:"running"`
	Draining    bool          `json:"draining"`
	PoolCores   int           `json:"pool_cores"`
	LiveWorkers int           `json:"live_workers"`
	Tenants     []TenantStats `json:"tenants"`
}

// Snapshot reports current daemon state.
func (d *Daemon) Snapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Stats{
		Queued:      d.queued,
		Running:     len(d.running),
		Draining:    d.draining,
		PoolCores:   d.poolCores(),
		LiveWorkers: len(d.workers),
	}
	for _, name := range d.order {
		t := d.tenants[name]
		s.Tenants = append(s.Tenants, TenantStats{
			Name: name, Admitted: t.admitted, Done: t.done, Failed: t.failed,
			RejectedQuota: t.rejectedQuota, RejectedLoad: t.rejectedLoad,
			Queued: len(t.queue),
		})
	}
	return s
}
