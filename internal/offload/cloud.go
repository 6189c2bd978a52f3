package offload

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ompcloud/internal/chunkio"
	"ompcloud/internal/cloud"
	"ompcloud/internal/faults"
	"ompcloud/internal/netsim"
	"ompcloud/internal/remoteexec"
	"ompcloud/internal/resilience"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
	"ompcloud/internal/xcompress"
)

// CloudConfig assembles the cloud device from its substrates. Every field
// mirrors a knob of the paper's plugin: the Spark cluster topology, the
// storage service, the compression policy, the network profile, and the
// optional EC2-style lifecycle management.
type CloudConfig struct {
	Spec    spark.ClusterSpec
	Profile netsim.Profile
	Codec   xcompress.Codec
	Costs   spark.Costs
	JNI     JNI
	Store   storage.Store

	// DeviceName names this device instance. Non-empty names become the
	// plugin's Name(), prefix its storage keys (so two devices sharing a
	// store never collide), and key its metrics (chunk/tile histograms,
	// net.link gauges) via span.DevKey, which is what keeps per-device
	// rates separable when several cloud plugins are live — the
	// multi-device splitter's refinement source. Empty keeps the legacy
	// single-device behaviour: topology-derived name, global metric names.
	DeviceName string

	// Provider, when non-nil, gives the plugin an infrastructure control
	// plane. With AutoStartStop the workers are started before a job and
	// stopped after it, the paper's pay-per-use mode (§III.A).
	Provider      cloud.Provider
	InstanceType  string
	AutoStartStop bool

	// CostCoreHourUSD / CostEgressGiBUSD price the device: dollars per
	// core-hour of effective region time and dollars per GiB of egress
	// (output bytes downloaded back to the host). A priced device stamps
	// Report.CostUSD on every run — the signal the elastic autoscaler's
	// cost-capped policy trades against makespan. 0 leaves the device
	// unpriced (CostUSD stays 0); the conf knobs are cost-core-hour and
	// cost-gib-egress, and cost-core-hour also accepts "auto" to derive
	// the rate from the configured instance type's catalogue price.
	CostCoreHourUSD  float64
	CostEgressGiBUSD float64

	// WorkerAddrs, when non-empty, executes loop tiles in remote worker
	// processes (cmd/ompcloud-worker) at these addresses instead of
	// in-process goroutines — the paper's real process boundary between
	// the Spark executor and the native loop body. Tile-to-worker
	// affinity follows the simulated placement (Eq. 3).
	WorkerAddrs []string

	// EnableCache turns on the content-addressed upload cache (the
	// paper's future-work data caching): inputs already present in cloud
	// storage are not re-sent across the host-target link. With chunking
	// enabled the cache also works at chunk granularity: a
	// partially-changed buffer only resends its dirty chunks.
	EnableCache bool

	// ChunkBytes sets the transfer chunk size of the pipelined data path
	// (chunkio): buffers larger than this are compressed in parallel
	// chunks that stream into storage while later chunks still compress.
	// 0 means chunkio.DefaultChunkSize (1 MiB); negative restores the
	// paper's sequential single-stream policy (one gzip per buffer,
	// upload after compression finishes) for ablations.
	ChunkBytes int
	// ChunkParallel bounds the chunk-compression workers; 0 means all
	// machine cores.
	ChunkParallel int

	// CDC switches the chunked data path to content-defined (Gear rolling
	// hash) chunk boundaries instead of fixed ChunkBytes-sized cuts. Cuts
	// then follow the content, so an insert or prepend only perturbs the
	// chunks around the edit and every other chunk keeps its content hash —
	// the property chunk-granular caching and Dedup need to recognize
	// shifted data. ChunkBytes becomes the target average chunk size.
	// Requires the chunked data path (ChunkBytes >= 0).
	CDC bool

	// Dedup turns on cross-session chunk dedup: a persistent content-
	// addressed index over the store's "cache/c/" namespace, primed by
	// listing the store at first upload, so chunks any earlier session
	// already shipped are never re-sent. Per-job cleanup leaves "cache/"
	// untouched, which is what makes the index durable across sessions.
	// Works with or without EnableCache (EnableCache adds the in-session
	// whole-buffer layer on top). Requires ChunkBytes >= 0.
	Dedup bool

	// Overlap selects the tile-granular streaming dataflow: the workflow's
	// four stages overlap at tile granularity — the Spark task for tile k
	// launches as soon as tile k's input chunks are resident on the
	// driver, and finished tiles are reconstructed, stored, and
	// host-downloaded while later tiles still compute. 0 (the default)
	// enables it whenever the chunked data path is active and the region
	// has more than one tile; negative forces the stage-barriered workflow
	// (the paper's strict Fig. 1 ordering), which is also what ChunkBytes
	// < 0 implies — the sequential policy has no sub-buffer readiness to
	// stream on. Both modes produce bit-identical outputs.
	Overlap int

	// HealthTTL is how long one storage health probe's verdict is
	// trusted by Available(). 0 means DefaultHealthTTL; negative probes
	// on every call (the pre-TTL behaviour, needed by tests that kill
	// the store mid-session and expect the device to notice instantly).
	HealthTTL time.Duration

	// RetryMax is the per-leg attempt budget of the storage data path
	// (first try included): every chunk PUT of the upload legs and every
	// object/chunk GET of the fetch and download legs retries
	// independently up to this budget. 0 means DefaultRetryMax; negative
	// disables retries (one attempt per operation).
	RetryMax int
	// RetryBase is the backoff before a leg's first retry, doubling per
	// further retry with deterministic jitter. 0 means DefaultRetryBase;
	// negative retries immediately (tests, virtual-time benches).
	RetryBase time.Duration
	// RetryCap bounds a single backoff. 0 means DefaultRetryCap.
	RetryCap time.Duration
	// RetrySleep replaces the backoff clock; nil means time.Sleep.
	RetrySleep func(time.Duration)

	// DeadlineMult derives adaptive per-attempt deadlines for the storage
	// legs from the observed chunk-latency histograms: an attempt is
	// abandoned (and retried) after p99 × DeadlineMult, clamped to
	// [DeadlineFloor, DeadlineCap]. 0 disables attempt deadlines — a stuck
	// stream then holds its chunk until the store gives up on its own.
	DeadlineMult float64
	// DeadlineFloor/DeadlineCap clamp the derived deadline; 0 means
	// DefaultDeadlineFloor/DefaultDeadlineCap.
	DeadlineFloor time.Duration
	DeadlineCap   time.Duration
	// Hedge enables hedged reads on the download legs: a GET stalled past
	// the observed HedgeQuantile latency gets one backup request, first
	// result wins. Off by default — hedging buys tail latency with extra
	// load, a trade the user opts into.
	Hedge bool
	// HedgeQuantile is the observed GET latency quantile past which the
	// backup launches; 0 means DefaultHedgeQuantile.
	HedgeQuantile float64
	// AdaptDegraded enables the degraded-mode transfer ladder: when the
	// store's observed bandwidth (storage.BandwidthObserver) collapses
	// below half the provisioned WAN rate, the adaptive codec re-plans
	// against the observed rate (dense data re-qualifies for compression),
	// chunks shrink for finer re-route granularity, and virtual-time
	// accounting bills the rate transfers actually sustained. Hysteresis
	// (recover past 0.8×) keeps a boundary-hovering link from flapping.
	AdaptDegraded bool

	// BreakerFailures trips the device's circuit breaker after this many
	// consecutive transient workflow failures: Available() then reports
	// false without paying probe round trips or retry timeouts until
	// BreakerCooldown elapses, and one half-open probe decides recovery.
	// 0 means resilience.DefaultBreakerThreshold; negative disables the
	// breaker.
	BreakerFailures int
	// BreakerCooldown is the open period before the half-open probe;
	// 0 means resilience.DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// BreakerNow is the breaker's injected clock (tests); nil means
	// time.Now.
	BreakerNow func() time.Time

	// Fallback selects what the offload manager does when this device
	// fails mid-flight with a transient error: FallbackHost (the
	// default, the paper's dynamic host execution) re-runs the region
	// on the host; FallbackFail surfaces the error to the caller.
	Fallback FallbackPolicy

	// RunOnDriver models the paper's §III.D deployment alternative:
	// "one might run his application directly from the driver node of
	// the Spark cluster, thus removing the overhead of host-target
	// communication". The host's storage legs then ride the intra-
	// cluster LAN instead of the WAN.
	RunOnDriver bool

	// Log, when non-nil, receives the engine and workflow log lines —
	// the paper's option to "print the log messages of Spark to the
	// standard output of the host computer".
	Log spark.Logf

	// Faults, when non-nil, is the fault schedule the device runs under
	// (tests, chaos benches): its task and heartbeat entries reach the Spark
	// engine, and if it holds storage entries when the plugin is built,
	// Store is wrapped with it (storage.WithFaults). Storage entries added
	// later fire only on a store the caller wrapped itself.
	Faults *faults.Schedule
	// RealParallelism bounds the machine cores used for real execution;
	// 0 means all.
	RealParallelism int

	// Heartbeat enables lease-based worker membership: executors renew a
	// lease every Heartbeat of virtual time and a worker that misses
	// LeaseMisses consecutive beats is declared dead, its tasks re-executed
	// on survivors. 0 disables membership (workers never die on their own).
	Heartbeat time.Duration
	// LeaseMisses is the lease budget in missed heartbeats; 0 means
	// spark.DefaultLeaseMisses.
	LeaseMisses int

	// Speculate enables straggler mitigation: tasks running beyond the
	// configured slowdown quantile get one speculative backup copy; the
	// first finisher wins via idempotent result commit.
	Speculate bool
	// SpeculateQuantile is the fraction of a stage's tasks that must have
	// finished before backups launch; 0 means
	// spark.DefaultSpeculationQuantile.
	SpeculateQuantile float64

	// Resume enables resumable offload sessions: a journal persisted
	// through the storage layer records input objects and committed tiles,
	// so a killed-and-restarted run re-executes only uncommitted tiles and
	// (with EnableCache) skips already-uploaded inputs.
	Resume bool
}

// withDefaults fills zero values.
func (c CloudConfig) withDefaults() CloudConfig {
	if c.Profile == (netsim.Profile{}) {
		c.Profile = netsim.DefaultProfile()
	}
	if c.Costs == (spark.Costs{}) {
		c.Costs = spark.DefaultCosts()
	}
	if c.JNI == (JNI{}) {
		c.JNI = DefaultJNI()
	}
	if c.InstanceType == "" {
		c.InstanceType = "c3.8xlarge"
	}
	if c.RunOnDriver {
		c.Profile.WAN = c.Profile.LAN
		c.Profile.WAN.Name = "lan-as-wan"
	}
	return c
}

// pipelined reports whether the chunked streaming engine is active (the
// default). ChunkBytes < 0 selects the paper's original sequential policy.
func (c *CloudConfig) pipelined() bool { return c.ChunkBytes >= 0 }

// validate checks everything about a (defaulted) configuration that can be
// checked without touching its store, its provider or its workers.
func (c CloudConfig) validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	// CDC and Dedup are properties of chunks; the sequential single-stream
	// policy (ChunkBytes < 0) has none, so combining them is a config
	// mistake, not a request for silent no-ops.
	if c.CDC && c.ChunkBytes < 0 {
		return fmt.Errorf("offload: content-defined chunking needs the chunked data path; use chunk-bytes >= 0, not %d", c.ChunkBytes)
	}
	if c.Dedup && c.ChunkBytes < 0 {
		return fmt.Errorf("offload: dedup needs the chunked data path; use chunk-bytes >= 0, not %d", c.ChunkBytes)
	}
	return nil
}

// CloudPlugin is the cloud device: it offloads target regions to the Spark
// engine through the storage service, implementing the eight-step workflow
// of the paper's Fig. 1 with real data movement and virtual-time accounting.
type CloudPlugin struct {
	cfg   CloudConfig
	name  string // fixed at construction: stable across elastic scaling
	sctx  *spark.Context
	index *chunkio.Index   // nil unless EnableCache or Dedup
	pool  *remoteexec.Pool // nil unless WorkerAddrs configured

	// breaker guards the device against consecutive workflow failures
	// (nil when disabled); healthKey is this plugin's private probe key,
	// so concurrent plugins sharing one store never race on a probe
	// object.
	breaker   *resilience.Breaker
	healthKey string

	mu      sync.Mutex
	cluster *cloud.Cluster
	initErr error
	jobSeq  atomic.Int64

	// avoidedGets counts manifest GETs skipped via locally-held frames
	// (see CacheStats.AvoidedGets); independent of the content cache.
	avoidedGets atomic.Int64

	// degraded is the degraded-mode latch (see CloudConfig.AdaptDegraded);
	// it outlives a single run — the link, not the job, is what degraded.
	degraded atomic.Bool

	// Cached health verdict (see Available).
	healthMu sync.Mutex
	healthAt time.Time
	healthOK bool
}

// DefaultHealthTTL is how long Available() trusts one storage health probe.
// Long enough that back-to-back jobs don't pay three storage round trips
// each, short enough that a dead store is noticed within a few seconds.
const DefaultHealthTTL = 5 * time.Second

// Defaults of the storage-leg retry policy: three attempts with 25ms-base
// exponential backoff capped at one second — enough to ride out the blip
// faults object stores throw, short enough that a truly dead store fails
// over to the host in well under the breaker cooldown.
const (
	DefaultRetryMax  = 3
	DefaultRetryBase = 25 * time.Millisecond
	DefaultRetryCap  = time.Second
)

// NewCloudPlugin builds and initializes the cloud device. Construction
// itself never fails on unavailable infrastructure: the paper's runtime
// degrades to host execution, so infrastructure errors surface through
// Available(), not the constructor.
func NewCloudPlugin(cfg CloudConfig) (*CloudPlugin, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("offload: cloud plugin needs a storage backend")
	}
	opts := []spark.Option{spark.WithCosts(cfg.Costs)}
	if cfg.Log != nil {
		opts = append(opts, spark.WithLogger(cfg.Log))
	}
	if cfg.Faults != nil {
		// Only storage entries put the device behind the fault wrapper, which
		// hides the store's zero-copy paths; task and heartbeat faults leave
		// the data path as it is.
		if cfg.Faults.Has(faults.Store) {
			cfg.Store = storage.WithFaults(cfg.Store, cfg.Faults)
		}
		opts = append(opts, spark.WithFaults(cfg.Faults))
	}
	if cfg.RealParallelism > 0 {
		opts = append(opts, spark.WithRealParallelism(cfg.RealParallelism))
	}
	if cfg.DeviceName != "" {
		opts = append(opts, spark.WithMetricDevice(cfg.DeviceName))
	}
	if cfg.Heartbeat > 0 {
		opts = append(opts, spark.WithLease(spark.LeaseConfig{
			Heartbeat: simtime.FromReal(cfg.Heartbeat),
			Misses:    cfg.LeaseMisses,
		}))
	}
	if cfg.Speculate {
		opts = append(opts, spark.WithSpeculation(spark.SpeculationConfig{
			Enabled:  true,
			Quantile: cfg.SpeculateQuantile,
		}))
	}
	sctx, err := spark.NewContext(cfg.Spec, opts...)
	if err != nil {
		return nil, err
	}
	p := &CloudPlugin{cfg: cfg, sctx: sctx, healthKey: "health/" + randomNonce()}
	p.name = cfg.DeviceName
	if p.name == "" {
		p.name = fmt.Sprintf("cloud-spark-%dx%d", cfg.Spec.Workers, cfg.Spec.CoresPerWorker)
	}
	if cfg.BreakerFailures >= 0 {
		p.breaker = &resilience.Breaker{
			Threshold: cfg.BreakerFailures,
			Cooldown:  cfg.BreakerCooldown,
			Now:       cfg.BreakerNow,
			OnStateChange: func(from, to resilience.BreakerState) {
				span.Event("breaker", "resilience",
					span.Attr{Key: "from", Val: from.String()},
					span.Attr{Key: "to", Val: to.String()})
				span.Metrics().Counter("resilience.breaker.transitions").Inc()
			},
		}
	}
	if cfg.EnableCache || cfg.Dedup {
		p.index = chunkio.NewIndex(cfg.Store, cfg.EnableCache)
	}
	p.initErr = p.init()
	if p.initErr == nil && len(cfg.WorkerAddrs) > 0 {
		pool, err := remoteexec.NewPool(cfg.WorkerAddrs)
		if err != nil {
			// Like failed provisioning: the device reports itself
			// unavailable and the manager falls back to the host.
			p.initErr = fmt.Errorf("offload: connecting workers: %w", err)
		} else {
			p.pool = pool
		}
	}
	return p, nil
}

// init provisions the cluster when a provider is configured.
func (p *CloudPlugin) init() error {
	if p.cfg.Provider == nil {
		return nil
	}
	cl, err := cloud.Provision(p.cfg.Provider, p.cfg.InstanceType, p.cfg.Spec.Workers)
	if err != nil {
		return fmt.Errorf("offload: cluster provisioning failed: %w", err)
	}
	p.cluster = cl
	if p.cfg.AutoStartStop {
		// Pay-per-use: park the instances until the first job arrives.
		if err := cl.StopAll(); err != nil {
			return err
		}
	}
	return nil
}

// Name implements Plugin. A configured DeviceName wins; otherwise the name
// is derived from the construction-time topology. Either way it is fixed
// for the plugin's lifetime — metric keys and storage scopes hang off it,
// so elastic scaling must not rename the device.
func (p *CloudPlugin) Name() string { return p.name }

// Cores implements Plugin: the live simulated width — elastic scale events
// change what later regions see (tiling, Eq. 3 seeds, accounting).
func (p *CloudPlugin) Cores() int { return p.sctx.Spec().TotalCores() }

// keyScope is the per-device storage-key segment ("<dev>/" or ""): two named
// devices sharing one store must not collide on job prefixes, since each
// plugin numbers its jobs independently.
func (p *CloudPlugin) keyScope() string {
	if p.cfg.DeviceName == "" {
		return ""
	}
	return p.cfg.DeviceName + "/"
}

// randomNonce returns a short per-plugin identifier for the health-probe
// key. Two plugins over one store must not share a probe object: one's
// Delete would race the other's Get into a spurious "store down" verdict.
func randomNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand is effectively infallible; a distinct fallback
		// string still avoids the shared fixed key.
		return fmt.Sprintf("%p", &b)
	}
	return hex.EncodeToString(b[:])
}

// Available implements Plugin: the device is usable when provisioning
// succeeded, the circuit breaker admits traffic, and the storage service
// answers a health probe. This is what the manager consults for dynamic
// host fallback.
func (p *CloudPlugin) Available() bool { return p.admit(true) }

// admit is the availability gate. The breaker comes first: while open, admit
// reports false without touching storage at all — a tripped device costs
// nothing until the cooldown elapses. With probeStore the storage service
// must also answer a health probe — a full Put/Get/Delete round trip, three
// RTTs against a remote store — whose verdict is cached for HealthTTL:
// back-to-back jobs reuse one probe instead of paying the round trips on
// every call. Without it (a plan that never touches storage) the breaker's
// word is enough, and a half-open breaker is closed or re-opened by the
// plan's own outcome.
func (p *CloudPlugin) admit(probeStore bool) bool {
	p.mu.Lock()
	initErr := p.initErr
	p.mu.Unlock()
	if initErr != nil {
		return false
	}
	if p.breaker != nil && !p.breaker.Allow() {
		return false
	}
	if !probeStore {
		return true
	}
	// A half-open breaker means this call holds its single probe slot:
	// bypass the TTL cache and report the fresh probe's outcome so the
	// breaker can close or re-open.
	halfOpen := p.breaker != nil && p.breaker.State() == resilience.BreakerHalfOpen
	ttl := p.cfg.HealthTTL
	if ttl == 0 {
		ttl = DefaultHealthTTL
	}
	p.healthMu.Lock()
	defer p.healthMu.Unlock()
	if !halfOpen && ttl > 0 && !p.healthAt.IsZero() && time.Since(p.healthAt) < ttl {
		return p.healthOK
	}
	p.healthOK = p.probeHealth()
	p.healthAt = time.Now()
	if halfOpen && p.healthOK {
		p.breaker.Success()
	} else if halfOpen {
		p.breaker.Failure()
	}
	return p.healthOK
}

// probeHealth runs the storage round trip and worker-pool check against
// this plugin's private probe key.
func (p *CloudPlugin) probeHealth() bool {
	if err := p.cfg.Store.Put(p.healthKey, []byte("ok")); err != nil {
		return false
	}
	if _, err := p.cfg.Store.Get(p.healthKey); err != nil {
		return false
	}
	if err := p.cfg.Store.Delete(p.healthKey); err != nil {
		return false
	}
	if p.pool != nil && !p.pool.Healthy() {
		return false
	}
	return true
}

// Breaker exposes the device's circuit breaker (nil when disabled), for
// diagnostics and chaos tests.
func (p *CloudPlugin) Breaker() *resilience.Breaker { return p.breaker }

// FallbackPolicy implements FallbackPolicyProvider: the manager consults it
// to decide between host re-run and error propagation on mid-flight
// transient failures.
func (p *CloudPlugin) FallbackPolicy() FallbackPolicy { return p.cfg.Fallback }

// retryPolicy assembles the per-leg storage retry policy, accumulating
// retry counts into rc for the run's trace report.
func (p *CloudPlugin) retryPolicy(rc *atomic.Int64) resilience.Policy {
	attempts := p.cfg.RetryMax
	switch {
	case attempts == 0:
		attempts = DefaultRetryMax
	case attempts < 0:
		attempts = 1
	}
	base := p.cfg.RetryBase
	switch {
	case base == 0:
		base = DefaultRetryBase
	case base < 0:
		base = 0
	}
	capDelay := p.cfg.RetryCap
	if capDelay == 0 {
		capDelay = DefaultRetryCap
	}
	return resilience.Policy{
		MaxAttempts: attempts,
		BaseDelay:   base,
		CapDelay:    capDelay,
		Sleep:       p.cfg.RetrySleep,
		OnRetry: func(attempt int, err error, backoff time.Duration) {
			if rc != nil {
				rc.Add(1)
			}
			span.Event("storage.retry", "resilience",
				span.Attr{Key: "attempt", Val: strconv.Itoa(attempt)},
				span.Attr{Key: "error", Val: err.Error()},
				span.Attr{Key: "backoff", Val: backoff.String()})
			span.Metrics().Counter("storage.retries").Inc()
			p.logf("offload: storage retry: attempt %d failed (%v), backing off %v", attempt, err, backoff)
		},
	}
}

// Close releases the plugin's external resources (remote worker
// connections). The simulated cluster, if any, is left to its provider.
func (p *CloudPlugin) Close() error {
	if p.pool != nil {
		return p.pool.Close()
	}
	return nil
}

// InitError exposes why provisioning failed, for diagnostics.
func (p *CloudPlugin) InitError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.initErr
}

// Cluster exposes the provisioned cluster (nil without a provider).
func (p *CloudPlugin) Cluster() *cloud.Cluster {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cluster
}

// SparkContext exposes the engine context (metrics, chaos testing).
func (p *CloudPlugin) SparkContext() *spark.Context { return p.sctx }

// CacheStats reports content-index effectiveness at both granularities.
type CacheStats struct {
	chunkio.IndexStats
	// AvoidedGets counts manifest round trips the plugin skipped because
	// it still held the frame it had just written (the barriered output leg
	// downloading a manifest its store half authored, and the per-tile legs,
	// whose in-process consumers never fetch the manifest at all). Filled
	// even when the content index itself is disabled.
	AvoidedGets int64
}

// CacheStats reports the content index's counters (zero without
// EnableCache or Dedup) plus the manifest round trips avoided by frame
// reuse, which accrue regardless of either setting.
func (p *CloudPlugin) CacheStats() CacheStats {
	s := CacheStats{AvoidedGets: p.avoidedGets.Load()}
	if p.index != nil {
		s.IndexStats = p.index.Stats()
	}
	return s
}

// logf emits a workflow log line when a logger is configured.
func (p *CloudPlugin) logf(format string, args ...any) {
	if p.cfg.Log != nil {
		p.cfg.Log(format, args...)
	}
}

// Run implements Plugin: a standalone target region is the plan whose every
// buffer ships — inputs up before the loop, outputs home after it — released
// per tile whenever the streaming dataflow is on.
func (p *CloudPlugin) Run(r *Region) (*trace.Report, error) {
	return p.guard(regionPlan(r, fmt.Sprintf("jobs/%s%06d", p.keyScope(), p.jobSeq.Add(1)), p.streaming()))
}

// streaming reports whether the tile-granular streaming dataflow is active:
// the chunked data path must be on (sub-buffer readiness needs chunks) and
// the overlap knob not forced off.
func (p *CloudPlugin) streaming() bool { return p.cfg.pipelined() && p.cfg.Overlap >= 0 }

// chunkOpts assembles the transfer-engine options, including the per-leg
// retry policy (rs accumulates the run's resilience accounting). withCache
// additionally wires the content index, primed from the store under Dedup,
// so clean chunks of a partially-changed buffer are recognized and not
// re-sent.
func (p *CloudPlugin) chunkOpts(withCache bool, rs *runStats) chunkio.Options {
	o := chunkio.Options{
		Codec:     p.cfg.Codec,
		ChunkSize: p.cfg.ChunkBytes,
		Parallel:  p.cfg.ChunkParallel,
		CDC:       p.cfg.CDC,
		// The adaptive codec weighs compression speed against the
		// host-target link; the upload legs ride the (possibly
		// RunOnDriver-rewritten) WAN.
		WireBytesPerS: p.cfg.Profile.WAN.BitsPerSs / 8,
		Retry:         p.retryPolicy(&rs.retries),
		Ctx:           rs.ctx,
		Stats:         &rs.xfer,
		MetricDevice:  p.cfg.DeviceName,
	}
	o.PutTimeout, o.GetTimeout = p.legDeadlines()
	o.HedgeDelay = p.hedgeDelay()
	// Degraded mode re-plans this leg around the rate the link actually
	// sustains: the codec verdict sees the observed (not provisioned)
	// bandwidth, so dense data re-qualifies for compression, and chunks
	// shrink so a refused or abandoned attempt wastes less.
	if obs := p.updateDegraded(rs); p.cfg.AdaptDegraded && p.degraded.Load() && obs > 0 {
		o.WireBytesPerS = obs
		o.ChunkSize = degradedChunkBytes(p.cfg.ChunkBytes)
	}
	if withCache && p.index != nil {
		if p.cfg.Dedup {
			// A failed Load is non-fatal: an empty index only costs
			// re-uploads.
			_, _ = p.index.Load()
		}
		o.Index = p.index
	}
	return o
}

// cleanup deletes the job's objects, best effort.
func (p *CloudPlugin) cleanup(prefix string) {
	keys, err := p.cfg.Store.List(prefix)
	if err != nil {
		return
	}
	for _, k := range keys {
		_ = p.cfg.Store.Delete(k)
	}
}

// startCluster brings stopped workers back for a job (pay-per-use start).
func (p *CloudPlugin) startCluster() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	insts := append([]*cloud.Instance{p.cluster.Driver}, p.cluster.Workers...)
	for _, inst := range insts {
		if inst.State() == cloud.Stopped {
			if err := p.cfg.Provider.Start(inst); err != nil {
				return fmt.Errorf("offload: starting %s: %w", inst.ID, err)
			}
		}
	}
	return nil
}

// stopCluster parks the instances after a job (pay-per-use stop).
func (p *CloudPlugin) stopCluster() {
	p.mu.Lock()
	defer p.mu.Unlock()
	insts := append([]*cloud.Instance{p.cluster.Driver}, p.cluster.Workers...)
	for _, inst := range insts {
		if inst.State() == cloud.Running {
			// Best effort: a stop failure leaves the instance billable but
			// does not fail the completed job.
			_ = p.cfg.Provider.Stop(inst)
		}
	}
}

// AccumulatedCost reports the cluster cost after the last job (0 without a
// provider).
func (p *CloudPlugin) AccumulatedCost() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cluster == nil {
		return 0
	}
	return p.cluster.Cost()
}

var _ Plugin = (*CloudPlugin)(nil)
