package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ompcloud/internal/config"
	"ompcloud/internal/config/configtest"
	"ompcloud/internal/offload"
	"ompcloud/internal/simtime"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

func newTestDaemon(t testing.TB, mutate func(*Config)) (*Daemon, *storage.MemStore) {
	t.Helper()
	st := storage.NewMemStore()
	cfg := Config{Store: st}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, st
}

func spec() JobSpec { return JobSpec{Bench: "gemm", N: 8, Seed: 1} }

func TestSubmitValidation(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	if _, rej, _ := d.Submit("", "c", spec(), 0); rej == nil || rej.Reason != "invalid" {
		t.Fatalf("empty tenant admitted: %+v", rej)
	}
	if _, rej, _ := d.Submit("a/b", "c", spec(), 0); rej == nil || rej.Reason != "invalid" {
		t.Fatalf("slash tenant admitted: %+v", rej)
	}
	if _, rej, _ := d.Submit("t1", "c", JobSpec{Bench: "nope", N: 8}, 0); rej != nil {
		t.Fatalf("unknown bench rejected at admission (should fail at execution): %+v", rej)
	}
	if _, rej, _ := d.Submit("t1", "c", JobSpec{N: 8}, 0); rej == nil || rej.Reason != "invalid" {
		t.Fatal("empty bench admitted")
	}
}

func TestQuotaTokenBucket(t *testing.T) {
	d, _ := newTestDaemon(t, func(c *Config) {
		c.Limits = Limits{Rate: 2, Burst: 3, Weight: 1}
		c.MaxQueue = 1000
	})
	admitted, quotaRejects := 0, 0
	var retryAfter simtime.Duration
	for i := 0; i < 10; i++ {
		_, rej, err := d.Submit("flood", "c", spec(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if rej == nil {
			admitted++
		} else if rej.Reason == "quota" {
			quotaRejects++
			retryAfter = rej.RetryAfter
		} else {
			t.Fatalf("unexpected rejection %+v", rej)
		}
	}
	if admitted != 3 {
		t.Fatalf("burst=3 admitted %d at t=0", admitted)
	}
	if quotaRejects != 7 {
		t.Fatalf("quota rejects = %d", quotaRejects)
	}
	if retryAfter <= 0 {
		t.Fatalf("quota rejection carries no retry-after hint")
	}
	// Rate 2/s: one virtual second later two more tokens have accrued.
	later := simtime.Second
	for i := 0; i < 2; i++ {
		if _, rej, _ := d.Submit("flood", "c", spec(), later); rej != nil {
			t.Fatalf("token %d not refilled: %+v", i, rej)
		}
	}
	if _, rej, _ := d.Submit("flood", "c", spec(), later); rej == nil {
		t.Fatal("third token appeared from nowhere")
	}
}

func TestQuotaIsPerTenant(t *testing.T) {
	d, _ := newTestDaemon(t, func(c *Config) {
		c.Limits = Limits{Rate: 1, Burst: 1}
		c.MaxQueue = 1000
	})
	if _, rej, _ := d.Submit("a", "c", spec(), 0); rej != nil {
		t.Fatalf("a rejected: %+v", rej)
	}
	if _, rej, _ := d.Submit("a", "c", spec(), 0); rej == nil {
		t.Fatal("a's second job admitted past burst")
	}
	// Tenant b has its own bucket, untouched by a's flood.
	if _, rej, _ := d.Submit("b", "c", spec(), 0); rej != nil {
		t.Fatalf("b starved by a's quota: %+v", rej)
	}
}

func TestOverloadWatermark(t *testing.T) {
	d, _ := newTestDaemon(t, func(c *Config) {
		c.MaxQueue = 4
		c.Limits = Limits{Rate: -1} // quota off; isolate the watermark
	})
	span.ResetMetrics()
	shed := 0
	for i := 0; i < 10; i++ {
		_, rej, err := d.Submit("t", "c", spec(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if rej != nil {
			if rej.Reason != "overload" {
				t.Fatalf("want overload, got %+v", rej)
			}
			if rej.RetryAfter <= 0 {
				t.Fatal("overload rejection carries no retry-after")
			}
			shed++
		}
	}
	if shed != 6 {
		t.Fatalf("MaxQueue=4: shed %d of 10", shed)
	}
	if got := d.QueuedCount(); got != 4 {
		t.Fatalf("queue depth %d", got)
	}
	if g := span.Metrics().Gauge(MetricQueueDepth).Value(); g != 4 {
		t.Fatalf("%s gauge = %d", MetricQueueDepth, g)
	}
}

func TestDispatchFairShareAndCores(t *testing.T) {
	d, _ := newTestDaemon(t, func(c *Config) {
		c.FairShare = 3
		c.PoolCores = 12
		c.Limits = Limits{Rate: -1}
		c.Overrides = map[string]Limits{
			"heavy": {Rate: -1, Weight: 2},
		}
	})
	for i := 0; i < 4; i++ {
		if _, rej, err := d.Submit("heavy", "c", spec(), 0); rej != nil || err != nil {
			t.Fatalf("heavy %d: %v %v", i, rej, err)
		}
		if _, rej, err := d.Submit("light", "c", spec(), 0); rej != nil || err != nil {
			t.Fatalf("light %d: %v %v", i, rej, err)
		}
	}
	grants := d.Dispatch(0)
	if len(grants) != 3 {
		t.Fatalf("fair-share 3 dispatched %d", len(grants))
	}
	// Stride with weight 2 vs 1: heavy dispatches twice per light one.
	heavy, light, cores := 0, 0, 0
	heavyCores, lightCores := 0, 0
	for _, g := range grants {
		cores += g.Cores
		if g.Cores < 1 {
			t.Fatalf("grant of %d cores", g.Cores)
		}
		if g.Job.Tenant == "heavy" {
			heavy++
			heavyCores += g.Cores
		} else {
			light++
			lightCores += g.Cores
		}
	}
	if heavy != 2 || light != 1 {
		t.Fatalf("stride picked heavy=%d light=%d", heavy, light)
	}
	if cores != 12 {
		t.Fatalf("grants split %d of 12 cores", cores)
	}
	// Eq. 3 over weights (2,2,1): heavy's two jobs get 4.8→5 each rounded
	// by largest remainder; light gets 2.
	if lightCores >= heavyCores {
		t.Fatalf("weight-2 tenant got %d cores vs light %d", heavyCores, lightCores)
	}
	// No free cores: nothing further dispatches even with a slot-shaped hole.
	d2 := d.Dispatch(0)
	if len(d2) != 0 {
		t.Fatalf("dispatched %d grants with zero free cores", len(d2))
	}
}

func TestCompleteReleasesAndRequeues(t *testing.T) {
	d, st := newTestDaemon(t, func(c *Config) {
		c.FairShare = 1
		c.PoolCores = 4
		c.Limits = Limits{Rate: -1}
	})
	j1, _, _ := d.Submit("t", "c", spec(), 0)
	j2, _, _ := d.Submit("t", "c", spec(), 0)
	g := d.Dispatch(0)
	if len(g) != 1 || g[0].Job != j1 {
		t.Fatalf("dispatch %+v", g)
	}
	if keys, _ := st.List(JournalPrefix); len(keys) != 2 {
		t.Fatalf("journal holds %d entries", len(keys))
	}
	if err := d.Complete(j1, Result{Virtual: simtime.Second}, simtime.Second); err != nil {
		t.Fatal(err)
	}
	if keys, _ := st.List(JournalPrefix); len(keys) != 1 {
		t.Fatalf("journal after complete holds %d entries", len(keys))
	}
	if j1.State != JobDone || j1.Sojourn() != simtime.Second {
		t.Fatalf("job 1 state %v sojourn %v", j1.State, j1.Sojourn())
	}
	g = d.Dispatch(simtime.Second)
	if len(g) != 1 || g[0].Job != j2 {
		t.Fatalf("second dispatch %+v", g)
	}
	if err := d.Complete(j2, Result{Err: errors.New("boom")}, 2*simtime.Second); err != nil {
		t.Fatal(err)
	}
	s := d.Snapshot()
	if s.Tenants[0].Done != 1 || s.Tenants[0].Failed != 1 {
		t.Fatalf("stats %+v", s.Tenants[0])
	}
	if err := d.Complete(j2, Result{}, 0); err == nil {
		t.Fatal("double complete accepted")
	}
}

func TestJournalRecovery(t *testing.T) {
	d, st := newTestDaemon(t, nil)
	j1, _, _ := d.Submit("alice", "c1", spec(), 0)
	j2, _, _ := d.Submit("bob", "c2", JobSpec{Bench: "syrk", N: 16, Seed: 7}, 0)
	j3, _, _ := d.Submit("alice", "c1", spec(), 0)
	// j2 completes; j1 and j3 are in flight when the daemon "dies".
	d.Dispatch(0)
	if err := d.Complete(j2, Result{}, 0); err != nil {
		t.Fatal(err)
	}

	// New daemon over the same store: exactly the unfinished jobs return,
	// in admission order, marked recovered, and the sequence continues
	// past the dead daemon's highest ID.
	d2, _ := newTestDaemon(t, func(c *Config) { c.Store = st })
	jobs, err := d2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs", len(jobs))
	}
	if jobs[0].ID != j1.ID || jobs[1].ID != j3.ID {
		t.Fatalf("recovered %s,%s want %s,%s", jobs[0].ID, jobs[1].ID, j1.ID, j3.ID)
	}
	for _, j := range jobs {
		if !j.Recovered {
			t.Fatalf("%s not marked recovered", j.ID)
		}
	}
	if jobs[1].Spec != j3.Spec || jobs[0].Tenant != "alice" {
		t.Fatalf("recovered spec/tenant mangled: %+v", jobs[0])
	}
	j4, rej, err := d2.Submit("alice", "c1", spec(), 0)
	if rej != nil || err != nil {
		t.Fatalf("post-recovery submit: %v %v", rej, err)
	}
	if !strings.HasPrefix(j4.ID, "00000004-") {
		t.Fatalf("sequence did not continue: %s", j4.ID)
	}
	// Recovered jobs dispatch and complete normally.
	g := d2.Dispatch(0)
	if len(g) == 0 {
		t.Fatal("recovered jobs did not dispatch")
	}
	for _, gr := range g {
		if err := d2.Complete(gr.Job, Result{}, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDrainStopsAdmission(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	if _, rej, _ := d.Submit("t", "c", spec(), 0); rej != nil {
		t.Fatalf("pre-drain submit rejected: %+v", rej)
	}
	d.BeginDrain()
	if _, rej, _ := d.Submit("t", "c", spec(), 0); rej == nil || rej.Reason != "draining" {
		t.Fatalf("drain admitted a job: %+v", rej)
	}
	if !d.Draining() {
		t.Fatal("Draining() false")
	}
}

func TestWorkerRegistryLease(t *testing.T) {
	d, _ := newTestDaemon(t, func(c *Config) {
		c.PoolCores = 8
		c.WorkerLease = simtime.Second
		c.WorkerMisses = 2
	})
	if d.PoolCores() != 8 {
		t.Fatalf("static pool %d", d.PoolCores())
	}
	if err := d.RegisterWorker("w1:1", 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterWorker("w2:1", 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterWorker("", 4, 0); err == nil {
		t.Fatal("empty addr registered")
	}
	// Registered workers replace the static sizing.
	if d.PoolCores() != 6 {
		t.Fatalf("pool with workers = %d", d.PoolCores())
	}
	if got := d.LiveWorkers(0); len(got) != 2 {
		t.Fatalf("live workers %v", got)
	}
	// w1 heartbeats; w2 goes silent and expires after 2 missed beats.
	if !d.WorkerHeartbeat("w1:1", simtime.Second) {
		t.Fatal("w1 heartbeat refused")
	}
	at := 2*simtime.Second + simtime.Millisecond
	if got := d.LiveWorkers(at); len(got) != 1 || got[0] != "w1:1" {
		t.Fatalf("after expiry: %v", got)
	}
	if d.PoolCores() != 4 {
		t.Fatalf("pool after expiry = %d", d.PoolCores())
	}
	if d.WorkerHeartbeat("w2:1", at) {
		t.Fatal("expired worker heartbeat accepted")
	}
	d.DeregisterWorker("w1:1", at)
	// No workers registered again: back to static sizing.
	if d.PoolCores() != 8 {
		t.Fatalf("pool after deregister = %d", d.PoolCores())
	}
}

func TestParseSettings(t *testing.T) {
	f, err := parseConf(`
[service]
max-queue   = 128
tenant-rate = 10
tenant-burst = 20
fair-share  = 6
pool-cores  = 24
drain-ms    = 250

[tenant "analytics"]
rate   = 50
weight = 2

[tenant "batch"]
burst = 4
`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSettings(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.MaxQueue != 128 || s.Config.FairShare != 6 || s.Config.PoolCores != 24 {
		t.Fatalf("%+v", s.Config)
	}
	if s.Config.Limits.Rate != 10 || s.Config.Limits.Burst != 20 {
		t.Fatalf("default limits %+v", s.Config.Limits)
	}
	if s.Drain != 250*simtime.Millisecond {
		t.Fatalf("drain %v", s.Drain)
	}
	a := s.Config.Overrides["analytics"]
	if a.Rate != 50 || a.Weight != 2 || a.Burst != 0 {
		t.Fatalf("analytics %+v", a)
	}
	// Unset override fields inherit the daemon defaults at tenant creation.
	eff := a.withDefaults(Limits{Rate: 10, Burst: 20, Weight: 1})
	if eff.Burst != 20 || eff.Rate != 50 {
		t.Fatalf("effective %+v", eff)
	}
	if _, ok := s.Config.Overrides["batch"]; !ok {
		t.Fatal("batch override missing")
	}
	if _, err := parseConf("[tenant \"a/b\"]\nrate = 1\n"); err == nil {
		if _, err := ParseSettings(mustConf(t, "[tenant \"a/b\"]\nrate = 1\n")); err == nil {
			t.Fatal("bad tenant name accepted")
		}
	}
	empty, err := ParseSettings(mustConf(t, "[cluster]\nworkers = 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Config.MaxQueue != 0 || empty.Drain != DefaultDrain {
		t.Fatalf("no-[service] defaults: %+v", empty)
	}

	// Present means valid: a negative value is an error, not a silent
	// default (queue, slots, deadline) or a bucket that never admits a job
	// (burst); so is a key nothing reads, and a malformed number.
	for text, want := range map[string]string{
		"[service]\ntenant-burst = -8\n":         "service.tenant-burst",
		"[service]\ndrain-ms = -5\n":             "service.drain-ms",
		"[service]\nmax-queue = -1\n":            "service.max-queue",
		"[service]\nfair-share = -2\n":           "service.fair-share",
		"[service]\npool-cores = many\n":         "service.pool-cores",
		"[service]\nmax-queu = 8\n":              "service.max-queu",
		"[tenant \"a\"]\nburst = -1\n":           `tenant "a".burst`,
		"[tenant \"a\"]\nweight = -1\n":          `tenant "a".weight`,
		"[tenant \"a\"]\nrat = 1\n":              `tenant "a".rat`,
		"[tenant \"a\"]\n[tenant a]\n":           "declared by both",
		"[tenant \"a\"]\n[tenant \"a\"]\n":       "declared twice",
		"[tenant \"a/b\"]\nrate = 1\n":           "bad name",
		"[tenant \"\"]\nrate = 1\n":              "empty name",
		"[service]\nmax-queue = -1\nbogus = 1\n": "service.max-queue", // the value error comes first
	} {
		if _, err := ParseSettings(mustConf(t, text)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("config %q: err = %v, want it to name %s", text, err, want)
		}
	}
	// The two negatives the daemon implements on purpose, and 0 = default.
	s, err = ParseSettings(mustConf(t, "[service]\ntenant-rate = -1\npool-cores = -1\nmax-queue = 0\ndrain-ms = 0\n[tenant \"a\"]\nrate = -1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.Limits.Rate != -1 || s.Config.PoolCores != -1 || s.Config.Overrides["a"].Rate != -1 || s.Drain != DefaultDrain {
		t.Fatalf("documented sentinels: %+v", s)
	}
}

// One file serves both programs: each parser checks the sections it reads
// and leaves the other's alone, typos included.
func TestOneFileServesRunAndDaemon(t *testing.T) {
	f := mustConf(t, "[cluster]\nworkers = 2\ncores-per-worker = 2\n[service]\nmax-queue = 8\n[autoscale]\nmin-workers = 1\n")
	if _, err := ParseSettings(f); err != nil {
		t.Errorf("daemon: %v", err)
	}
	if _, err := offload.NewDevicePluginFromConfig(f); err != nil {
		t.Errorf("ompcloud-run: %v", err)
	}
	if _, err := ParseSettings(mustConf(t, "[cluster]\nwokers = 2\n[service]\nmax-queue = 8\n")); err != nil {
		t.Errorf("daemon judged a [cluster] key: %v", err)
	}
	if _, err := offload.NewDevicePluginFromConfig(mustConf(t, "[cluster]\nworkers = 2\n[service]\nmax-queu = 8\n")); err != nil {
		t.Errorf("ompcloud-run judged a [service] key: %v", err)
	}
}

func TestExampleConfIsComplete(t *testing.T) {
	f := configtest.Example(t, "../../ompcloud.conf.example")
	blocks, err := f.Named("tenant")
	if err != nil || len(blocks) == 0 {
		t.Fatalf("example tenants: %v, %v", blocks, err)
	}
	r := f.Reader("")
	readSettings(r, blocks)
	configtest.Complete(t, f, r)
}

func parseConf(text string) (*config.File, error) {
	return config.Parse(strings.NewReader(text))
}

func mustConf(t *testing.T, text string) *config.File {
	t.Helper()
	f, err := parseConf(text)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRejectionError(t *testing.T) {
	r := &Rejection{Reason: "quota", RetryAfter: simtime.Second}
	if !strings.Contains(r.Error(), "quota") {
		t.Fatalf("%q", r.Error())
	}
	r2 := &Rejection{Reason: "invalid", Err: fmt.Errorf("nope")}
	if !strings.Contains(r2.Error(), "nope") {
		t.Fatalf("%q", r2.Error())
	}
}
