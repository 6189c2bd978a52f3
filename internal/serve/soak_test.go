package serve_test

// The service-plane soaks: simulated clients drive the offload daemon on the
// virtual clock. Jobs execute for real through serve.PoolExecutor (cloud
// plugin, per-tenant storage namespaces, resumable sessions); only their
// durations are virtual. The daemon is clock-free — every method takes `now`
// — so the one discrete-event driver below runs the same code the wall-clock
// Front runs in the binary. External test package: the jobs' kernels and the
// autoscale engine sit above serve.

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ompcloud/internal/faults"
	"ompcloud/internal/offload"
	"ompcloud/internal/serve"
	"ompcloud/internal/simtime"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

// event is one point of a virtual-time schedule.
type event struct {
	at   simtime.Duration
	seq  int // FIFO tie-break: determinism at equal timestamps
	fire func() error
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// sim drives one daemon through an event schedule.
type sim struct {
	d    *serve.Daemon
	exec serve.Executor
	// done, when set, observes each successfully completed job after the
	// daemon released it and before the freed capacity is dispatched again.
	done func(job *serve.Job, res serve.Result) error

	events eventHeap
	seq    int
	now    simtime.Duration
}

// at schedules fire at virtual time t.
func (s *sim) at(t simtime.Duration, fire func() error) {
	heap.Push(&s.events, &event{at: t, seq: s.seq, fire: fire})
	s.seq++
}

// pump dispatches whatever the fair-share scheduler and the capacity allow,
// executing each grant for real and scheduling its completion at now + the
// run's modelled duration.
func (s *sim) pump() {
	for _, g := range s.d.Dispatch(s.now) {
		job, res := g.Job, s.exec.Run(g.Job, g.Cores)
		dur := res.Virtual
		if dur <= 0 {
			dur = simtime.Millisecond
		}
		s.at(s.now+dur, func() error {
			if err := s.d.Complete(job, res, s.now); err != nil {
				return err
			}
			if res.Err != nil {
				return fmt.Errorf("job %s failed: %w", job.ID, res.Err)
			}
			if s.done != nil {
				if err := s.done(job, res); err != nil {
					return err
				}
			}
			s.pump()
			return nil
		})
	}
}

// run consumes the schedule to quiescence.
func (s *sim) run() error {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		if err := e.fire(); err != nil {
			return err
		}
	}
	if !s.d.Idle() {
		return fmt.Errorf("event schedule drained with work still pending")
	}
	return nil
}

// poolExec is the executor every soak job runs through.
func poolExec(st storage.Store) *serve.PoolExecutor {
	return &serve.PoolExecutor{Base: st, ChunkBytes: 4096}
}

// calibrate runs one job on pristine storage at the given grant width.
func calibrate(t *testing.T, spec serve.JobSpec, cores int) serve.Result {
	t.Helper()
	res := poolExec(storage.NewMemStore()).Run(&serve.Job{ID: "cal-" + spec.Bench, Tenant: "cal", Spec: spec}, cores)
	if res.Err != nil {
		t.Fatalf("calibration %s: %v", spec.Bench, res.Err)
	}
	return res
}

func mustMatch(t *testing.T, what string, want, got [][]float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: output count differs: %d vs %d", what, len(want), len(got))
	}
	for i := range want {
		if !slices.Equal(want[i], got[i]) {
			t.Fatalf("%s: output %d differs", what, i)
		}
	}
}

// The service soak at the size CI ran it: 3 tenants x 8 clients submitting a
// mixed-kernel rotation at n=12 against a 16-core pool cut into 4 fair-share
// slots behind a 64-deep queue.
const (
	svcN         = 12
	svcSeed      = 1
	svcTenants   = 3
	svcClients   = 8
	svcPoolCores = 16
	svcFairShare = 4
	svcMaxQueue  = 64
)

var svcKernels = []string{"gemm", "syrk", "mat-mul", "syr2k"}

func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }

// tenantStats is what one tenant saw of one phase.
type tenantStats struct {
	offered, admitted, done     int
	rejectedQuota, rejectedLoad int
	sojourns                    []float64 // seconds, completed jobs
}

// p99 reports the 99th-percentile sojourn of the tenant's completed jobs.
func (ts *tenantStats) p99() float64 {
	if len(ts.sojourns) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(ts.sojourns))
	return s[int(math.Ceil(0.99*float64(len(s))))-1]
}

// svcPhase is one load pattern over a fresh daemon: tenant i offers jobs[i]
// Poisson arrivals at rates[i] jobs per virtual second under a per-tenant
// token rate of quotaRate (negative disables).
type svcPhase struct {
	rates     []float64
	jobs      []int
	quotaRate float64
	seedBase  int64
}

// run drives the phase to quiescence and returns per-tenant outcomes and the
// deepest the queue got.
func (ph svcPhase) run(t *testing.T) (tenants []*tenantStats, queuePeak int) {
	t.Helper()
	st := storage.NewMemStore()
	d, err := serve.New(serve.Config{
		Store:     st,
		MaxQueue:  svcMaxQueue,
		FairShare: svcFairShare,
		PoolCores: svcPoolCores,
		Limits:    serve.Limits{Rate: ph.quotaRate, Burst: 8, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*tenantStats{}
	s := &sim{d: d, exec: poolExec(st)}
	s.done = func(job *serve.Job, _ serve.Result) error {
		ts := byName[job.Tenant]
		ts.done++
		ts.sojourns = append(ts.sojourns, job.Sojourn().Seconds())
		return nil
	}

	// Deterministic arrivals; each is stamped with a rotating client label
	// so the phase models tenants x clients independent submitters.
	rng := rand.New(rand.NewSource(ph.seedBase))
	job := 0
	for ti, rate := range ph.rates {
		tenant, ts := tenantName(ti), &tenantStats{}
		tenants = append(tenants, ts)
		byName[tenant] = ts
		var at float64
		for k := 0; k < ph.jobs[ti]; k++ {
			at += rng.ExpFloat64() / rate
			client := fmt.Sprintf("%s/c%03d", tenant, k%svcClients)
			spec := serve.JobSpec{Bench: svcKernels[job%len(svcKernels)], N: svcN, Seed: ph.seedBase + int64(job)}
			job++
			s.at(simtime.FromSeconds(at), func() error {
				ts.offered++
				_, rej, err := d.Submit(tenant, client, spec, s.now)
				switch {
				case err != nil:
					return err
				case rej == nil:
					ts.admitted++
					queuePeak = max(queuePeak, d.QueuedCount())
					s.pump()
				case rej.RetryAfter <= 0:
					return fmt.Errorf("%s rejection without a retry-after hint", rej.Reason)
				case rej.Reason == "quota":
					ts.rejectedQuota++
				case rej.Reason == "overload":
					ts.rejectedLoad++
				default:
					return fmt.Errorf("unexpected rejection %q", rej.Reason)
				}
				return nil
			})
		}
	}
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	for i, ts := range tenants {
		t.Logf("%s: offered %d admitted %d done %d, rejected %d quota %d overload, p99 %.2fs (queue peak %d)", tenantName(i),
			ts.offered, ts.admitted, ts.done, ts.rejectedQuota, ts.rejectedLoad, ts.p99(), queuePeak)
	}
	return tenants, queuePeak
}

// TestServiceSoak drives the daemon's admission, quota, fair-share, overload
// shedding and kill-recovery machinery, each phase over a fresh daemon, and
// fails unless every one of them engaged.
func TestServiceSoak(t *testing.T) {
	// One job per kernel at the steady-state grant width gives the service
	// time the arrival rates and latency bounds are expressed against.
	var meanV, maxV float64
	for _, k := range svcKernels {
		v := calibrate(t, serve.JobSpec{Bench: k, N: svcN, Seed: svcSeed}, svcPoolCores/svcFairShare).Virtual.Seconds()
		meanV += v / float64(len(svcKernels))
		maxV = max(maxV, v)
	}
	capacity := svcFairShare / meanV // jobs per virtual second
	// The admitted-job latency bound: a full queue's worth of batches plus
	// slack. Shedding exists precisely to keep sojourns under this.
	bound := float64(svcMaxQueue/svcFairShare+2) * maxV

	// Every tenant offers well under capacity (60% in aggregate) and quotas
	// never bind: only scheduling is exercised, and everyone is served.
	t.Run("steady", func(t *testing.T) {
		tenants, _ := svcPhase{
			rates:     slices.Repeat([]float64{0.6 * capacity / svcTenants}, svcTenants),
			jobs:      slices.Repeat([]int{svcClients}, svcTenants),
			quotaRate: capacity,
			seedBase:  svcSeed,
		}.run(t)
		for i, ts := range tenants {
			if rej := ts.rejectedQuota + ts.rejectedLoad; rej > 0 {
				t.Errorf("%s: %d jobs rejected under light load", tenantName(i), rej)
			}
			if ts.done != ts.offered {
				t.Errorf("%s: completed %d of %d", tenantName(i), ts.done, ts.offered)
			}
		}
	})

	// Per-tenant quota at 80% of a fair capacity slice; compliant tenants
	// offer just under it, the first tenant ~20x. The bucket must cap the
	// flooder without one quota rejection landing on a compliant tenant, and
	// completed-job throughput must stay near-even.
	t.Run("flood", func(t *testing.T) {
		quota := 0.8 * capacity / svcTenants
		rates, jobs := slices.Repeat([]float64{0.85 * quota}, svcTenants), slices.Repeat([]int{svcClients}, svcTenants)
		rates[0], jobs[0] = 20*quota, 4*svcClients // offered, mostly rejected
		tenants, _ := svcPhase{rates: rates, jobs: jobs, quotaRate: quota, seedBase: svcSeed + 10_000}.run(t)
		if tenants[0].rejectedQuota == 0 {
			t.Error("flooding tenant was never quota-capped")
		}
		var sum, sq float64
		for i, ts := range tenants {
			sum += float64(ts.done)
			sq += float64(ts.done * ts.done)
			if i == 0 {
				continue
			}
			if ts.rejectedQuota > 0 {
				t.Errorf("compliant %s saw %d quota rejections", tenantName(i), ts.rejectedQuota)
			}
			if p99 := ts.p99(); p99 > bound {
				t.Errorf("%s p99 sojourn %.2fs exceeds bound %.2fs", tenantName(i), p99, bound)
			}
		}
		if jain := sum * sum / (svcTenants * sq); sq == 0 || jain < 0.9 {
			t.Errorf("Jain fairness over per-tenant completions %.3f < 0.9", jain)
		}
	})

	// One tenant (quota disabled) dumps twice the queue watermark in a
	// near-instant burst: the excess must shed with retry-after hints (run
	// fails a rejection without one), and what was admitted must still
	// finish inside the latency bound — bounded queue, bounded promise.
	t.Run("overload", func(t *testing.T) {
		burst := 2 * svcMaxQueue
		tenants, peak := svcPhase{
			rates:     []float64{float64(burst) / (0.01 * meanV)},
			jobs:      []int{burst},
			quotaRate: -1,
			seedBase:  svcSeed + 20_000,
		}.run(t)
		if tenants[0].rejectedLoad == 0 {
			t.Errorf("burst of %d was never shed (queue %d)", burst, svcMaxQueue)
		}
		if p99 := tenants[0].p99(); p99 > bound {
			t.Errorf("admitted-job p99 %.2fs exceeds bound %.2fs", p99, bound)
		}
		if peak > svcMaxQueue {
			t.Errorf("queue peaked at %d past watermark %d", peak, svcMaxQueue)
		}
	})

	t.Run("kill-recover", testKillRecover)
}

// testKillRecover admits a batch of jobs, lets the first dispatch wave die
// mid-run (every started job loses its last tile on every attempt — the
// storage state a SIGKILL mid-job leaves behind, healthy tiles committed
// through the session journal), abandons the daemon without completing
// anything, and brings up a second daemon over the same store, whose read of
// the third journal record comes back torn. The second life must skip that
// record and leave it journaled, recover every other job, resume the
// committed tiles, and produce outputs bit-identical to clean reference
// runs.
func testKillRecover(t *testing.T) {
	const killJobs = 6
	st := storage.NewMemStore()
	cfg := serve.Config{
		Store:     st,
		MaxQueue:  svcMaxQueue,
		FairShare: 2,
		PoolCores: 8,
		Limits:    serve.Limits{Rate: -1},
	}
	d1, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]serve.JobSpec{} // job ID -> what was submitted
	for i := 0; i < killJobs; i++ {
		spec := serve.JobSpec{Bench: svcKernels[i%len(svcKernels)], N: svcN, Seed: svcSeed + 30_000 + int64(i)}
		job, rej, err := d1.Submit(tenantName(i%2), "kill-cli", spec, 0)
		if rej != nil || err != nil {
			t.Fatalf("submit %d: %v %v", i, rej, err)
		}
		specs[job.ID] = spec
	}

	sabotage := &serve.PoolExecutor{Base: st, ChunkBytes: 4096,
		Mutate: func(_ *serve.Job, cfg *offload.CloudConfig) {
			cfg.Faults = faults.New(svcSeed).Add(faults.Entry{Layer: faults.Before,
				Partition: cfg.Spec.TotalCores() - 1, Worker: faults.Any})
			cfg.Fallback = offload.FallbackFail
		}}
	wave := d1.Dispatch(0)
	if len(wave) == 0 {
		t.Fatal("kill phase dispatched nothing")
	}
	for _, g := range wave {
		if g.Cores < 2 {
			t.Fatalf("a grant of %d cores cannot leave committed tiles", g.Cores)
		}
		if res := sabotage.Run(g.Job, g.Cores); res.Err == nil {
			t.Fatalf("sabotaged job %s survived", g.Job.ID)
		}
	}
	if keys, err := st.List(serve.JournalPrefix); err != nil || len(keys) != killJobs {
		t.Fatalf("%d of %d jobs journaled at kill time (%v)", len(keys), killJobs, err)
	}

	torn := faults.New(svcSeed).Add(faults.Entry{Op: "get", Key: serve.JournalPrefix, Skip: 2, Count: 1,
		Do: faults.Truncate, Keep: 7})
	cfg.Store = storage.WithFaults(st, torn)
	d2, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	skipped := span.Metrics().Counter("serve.journal.skipped")
	skipped0 := skipped.Value()
	recovered, err := d2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := skipped.Value() - skipped0; n != 1 || torn.Fired(faults.Store) != 1 {
		t.Fatalf("%d journal records skipped, %d torn; want 1 of each", n, torn.Fired(faults.Store))
	}
	if len(recovered) != killJobs-1 {
		t.Fatalf("recovered %d of the %d journaled jobs whose records read whole", len(recovered), killJobs-1)
	}
	resumed := 0
	outputs := map[string][][]float32{}
	s := &sim{d: d2, exec: poolExec(st)}
	s.done = func(job *serve.Job, res serve.Result) error {
		resumed += res.ResumedTiles
		outputs[job.ID] = res.Outputs
		return nil
	}
	s.pump()
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	if len(outputs) != killJobs-1 {
		t.Fatalf("recovery completed %d of %d jobs", len(outputs), killJobs-1)
	}
	if keys, err := st.List(serve.JournalPrefix); err != nil || len(keys) != 1 {
		t.Fatalf("the torn record's job should stay journaled alone, journal holds %v (%v)", keys, err)
	}
	if resumed == 0 {
		t.Fatal("recovery recomputed everything — no tiles resumed")
	}
	t.Logf("%d of %d journaled jobs recovered, 1 torn record skipped, %d tiles resumed", len(recovered), killJobs, resumed)
	// Every recovered job against a clean run of the spec it was submitted
	// with, at the same grant width, on pristine storage.
	for _, j := range recovered {
		if j.Spec != specs[j.ID] {
			t.Fatalf("job %s recovered as %+v, submitted as %+v", j.ID, j.Spec, specs[j.ID])
		}
		ref := calibrate(t, j.Spec, 4)
		mustMatch(t, "recovered job "+j.ID, ref.Outputs, outputs[j.ID])
	}
}
