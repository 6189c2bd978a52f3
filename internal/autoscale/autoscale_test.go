package autoscale

import (
	"strings"
	"testing"

	"ompcloud/internal/config"
	"ompcloud/internal/config/configtest"
	"ompcloud/internal/simtime"
	"ompcloud/internal/trace/span"
)

func setLoad(depth, running int64) {
	span.Metrics().Gauge("serve.queue.depth").Set(depth)
	span.Metrics().Gauge("serve.jobs.running").Set(running)
}

func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	span.ResetMetrics()
	t.Cleanup(func() { span.ResetMetrics() })
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Reactive: queue pressure launches capacity that serves only after the
// warm-up, and sustained quiet shrinks back to the floor.
func TestReactiveScaleOutInCycle(t *testing.T) {
	e := newEngine(t, Config{
		Policy: PolicyReactive, MinWorkers: 1, MaxWorkers: 4, Step: 1,
		ScaleOutDepth: 2, WarmUp: 10 * simtime.Second,
		ScaleInIdle: 20 * simtime.Second, CoolDown: 5 * simtime.Second,
		CoreHourUSD: 0.105, WorkerCores: 4,
	})
	if got := e.Bootstrap(0); got != 1 {
		t.Fatalf("bootstrap live = %d", got)
	}

	// Pressure: 5 queued against 1 worker (> 2/worker) at t=1s.
	setLoad(5, 1)
	d := e.Tick(simtime.Second)
	if d.Delta != 1 || e.Launched() != 2 || e.Live() != 1 {
		t.Fatalf("scale-out: %+v launched=%d live=%d", d, e.Launched(), e.Live())
	}
	// Not servable before the warm-up elapses; billed regardless.
	if n := e.Ready(5 * simtime.Second); n != 0 {
		t.Fatalf("worker ready %v early", e.cfg.WarmUp)
	}
	if at, ok := e.NextReady(); !ok || at != 11*simtime.Second {
		t.Fatalf("NextReady = %v, %v", at, ok)
	}
	if n := e.Ready(11 * simtime.Second); n != 1 || e.Live() != 2 {
		t.Fatalf("Ready = %d, live = %d", n, e.Live())
	}

	// Still pressured: a scale-out inside the cooldown window is refused
	// (lastOut was t=1s, cooldown 5s).
	setLoad(9, 2)
	if d := e.Tick(3 * simtime.Second); d.Delta != 0 || d.Reason != "cooldown" {
		t.Fatalf("cooldown not enforced: %+v", d)
	}
	if d := e.Tick(12 * simtime.Second); d.Delta != 1 {
		t.Fatalf("post-cooldown scale-out: %+v", d)
	}
	e.Ready(22 * simtime.Second)

	// Quiet: scale-in only after ScaleInIdle of nothing queued or running.
	setLoad(0, 0)
	if d := e.Tick(25 * simtime.Second); d.Delta != 0 {
		t.Fatalf("scaled in after %v idle: %+v", 3*simtime.Second, d)
	}
	if d := e.Tick(46 * simtime.Second); d.Delta != -1 || e.Live() != 2 {
		t.Fatalf("scale-in: %+v live=%d", d, e.Live())
	}
	// Events log both directions.
	ev := e.Events()
	if len(ev) != 3 || ev[0].Delta != 1 || ev[2].Delta != -1 {
		t.Fatalf("events: %+v", ev)
	}
	// Floor: never below MinWorkers.
	e.lastIn = 0
	e.busyAt = 0
	if d := e.Tick(3 * simtime.Minute); d.Delta != -1 || e.Live() != 1 {
		t.Fatalf("second scale-in: %+v live=%d", d, e.Live())
	}
	if d := e.Tick(10 * simtime.Minute); d.Delta != 0 {
		t.Fatalf("shrank below the floor: %+v", d)
	}
}

// Fixed never moves, whatever the pressure.
func TestFixedHolds(t *testing.T) {
	e := newEngine(t, Config{Policy: PolicyFixed, MinWorkers: 2, MaxWorkers: 8})
	e.Bootstrap(0)
	setLoad(100, 50)
	for ts := simtime.Second; ts < simtime.Minute; ts += simtime.Second {
		if d := e.Tick(ts); d.Delta != 0 {
			t.Fatalf("fixed policy scaled: %+v", d)
		}
	}
	if e.Launched() != 2 {
		t.Fatalf("fleet moved to %d", e.Launched())
	}
}

// CostCap denies a launch whose committed spend would cross the budget,
// and the spend meter bills warming capacity from launch, not from ready.
func TestCostCapDeniesOverBudget(t *testing.T) {
	e := newEngine(t, Config{
		Policy: PolicyCostCap, MinWorkers: 1, MaxWorkers: 8, Step: 1,
		WorkerCores: 4, ScaleOutDepth: 1,
		WarmUp: simtime.Minute, CoolDown: simtime.Minute,
		CoreHourUSD:  3.6, // $3.6/core-hour = $0.001/core-second: easy math
		EgressGiBUSD: 0.09,
		BudgetUSD:    0.9,
	})
	e.Bootstrap(0)
	setLoad(10, 0)

	// One worker for 100s = 4 cores × 100s × $0.001 = $0.40.
	if d := e.Tick(100 * simtime.Second); d.Delta != 1 {
		t.Fatalf("first scale-out should fit the budget: %+v", d)
	}
	if got := e.SpentUSD(); got < 0.39 || got > 0.41 {
		t.Fatalf("spend after 100s = $%v", got)
	}
	// 60s later: 2 workers × 60s × 4 × $0.001 = $0.48 more (the warming
	// worker bills from launch). Projected cost of another launch
	// (warmup+cooldown = 120s × 4 × $0.001 = $0.48) crosses $0.9.
	if d := e.Tick(160 * simtime.Second); d.Reason != "budget" || d.Delta != 0 {
		t.Fatalf("over-budget launch not denied: %+v", d)
	}
	if e.DeniedScaleOuts() != 1 {
		t.Fatalf("denied = %d", e.DeniedScaleOuts())
	}

	// Egress feeds the same meter.
	before := e.SpentUSD()
	e.AddEgress(1 << 30)
	if e.SpentUSD() <= before {
		t.Fatal("egress not metered")
	}
}

// Pending launches block scale-in: buying and retiring simultaneously is
// thrash.
func TestNoScaleInWhileWarming(t *testing.T) {
	e := newEngine(t, Config{
		Policy: PolicyReactive, MinWorkers: 1, MaxWorkers: 4, Step: 1,
		ScaleOutDepth: 1, WarmUp: simtime.Minute,
		ScaleInIdle: simtime.Second, CoolDown: simtime.Second,
	})
	e.Bootstrap(0)
	setLoad(5, 0)
	if d := e.Tick(simtime.Second); d.Delta != 1 {
		t.Fatalf("no launch: %+v", d)
	}
	setLoad(0, 0)
	if d := e.Tick(30 * simtime.Second); d.Delta != 0 {
		t.Fatalf("scaled in under a pending launch: %+v", d)
	}
}

func TestExampleConfIsComplete(t *testing.T) {
	f := configtest.Example(t, "../../ompcloud.conf.example")
	if !Enabled(f) {
		t.Fatal("the example file has no [autoscale] section to switch on")
	}
	r := f.Reader("")
	readSettings(r)
	configtest.Complete(t, f, r)
}

func TestParseSettings(t *testing.T) {
	f, err := config.Parse(strings.NewReader(`
[autoscale]
policy = costcap
min-workers = 2
max-workers = 6
worker-cores = 8
scale-out-depth = 3
scale-in-idle-ms = 15000
warmup-ms = 30000
cooldown-ms = 20000
budget-usd = 12.5
cost-core-hour = 0.105
cost-gib-egress = 0.09
`))
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled(f) {
		t.Fatal("section present but Enabled says no")
	}
	cfg, err := ParseSettings(f)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != PolicyCostCap || cfg.MinWorkers != 2 || cfg.MaxWorkers != 6 ||
		cfg.WorkerCores != 8 || cfg.ScaleOutDepth != 3 ||
		cfg.ScaleInIdle != 15*simtime.Second || cfg.WarmUp != 30*simtime.Second ||
		cfg.CoolDown != 20*simtime.Second || cfg.BudgetUSD != 12.5 ||
		cfg.CoreHourUSD != 0.105 || cfg.EgressGiBUSD != 0.09 {
		t.Fatalf("parsed %+v", cfg)
	}

	// warmup-ms = 0 is explicit pre-warmed capacity, not "use default".
	f, err = config.Parse(strings.NewReader("[autoscale]\nwarmup-ms = 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = ParseSettings(f)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WarmUp != 0 {
		t.Fatalf("explicit warmup-ms=0 became %v", cfg.WarmUp)
	}
	// An absent key takes the engine default.
	cfg, err = ParseSettings(config.New())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WarmUp != DefaultWarmUp || cfg.Policy != PolicyReactive {
		t.Fatalf("defaults: %+v", cfg)
	}
	if Enabled(config.New()) {
		t.Fatal("empty file reports autoscaling on")
	}

	for _, bad := range []string{
		"[autoscale]\npolicy = aggressive\n",
		"[autoscale]\nmin-workers = 0\n",
		"[autoscale]\nmin-workers = 4\nmax-workers = 2\n",
		"[autoscale]\nbudget-usd = -1\n",
		"[autoscale]\ncooldown-ms = -5\n",
		"[autoscale]\nscale-in-idle-ms = 0\n",
		"[autoscale]\nwarmup-ms = -1\n",
		"[autoscale]\nstep = 0\n",
		"[autoscale]\ncost-core-hour = 0\n",
		"[autoscale]\nmin-wokers = 2\n", // a key nothing reads
		"[autoscale]\nworkers = 2\n",
	} {
		f, err := config.Parse(strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSettings(f); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}
