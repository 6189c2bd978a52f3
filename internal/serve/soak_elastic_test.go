package serve_test

// The elastic soak: the same seeded traffic spike driven through the daemon
// once per scaling policy. The daemon runs in workers-only mode (no static
// pool); the autoscale engine watches the live queue/running gauges and its
// decisions register and retire lease workers. Capacity bought at t serves at
// t+WarmUp but bills from t, so every policy's cost and makespan land on one
// $/seconds plane:
//
//	fixed-small — MinWorkers forever: cheapest fleet, worst spike makespan.
//	fixed-large — MaxWorkers forever: best makespan money can buy.
//	reactive    — scale out on queue pressure, in after sustained idle.
//	costcap     — reactive under a budget (a fraction of fixed-large's
//	              measured spend): scale-outs that would cross it are denied.

import (
	"fmt"
	"math/rand"
	"testing"

	"ompcloud/internal/autoscale"
	"ompcloud/internal/serve"
	"ompcloud/internal/simtime"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

const (
	elasticN    = 12
	elasticSeed = 1
	elasticJobs = 24 // a sixth trickles in, two thirds spike, a sixth tails off
	elasticMin  = 1
	elasticMax  = 8
	// Single-core workers: fleet throughput is then concurrency-bound and
	// scales exactly with the worker count, which keeps the soak meaningful
	// at kernels this small, where per-core speedup saturates.
	elasticWorkerCores = 1
	// Low enough that the cap bites mid-ramp (scale-outs cluster early in
	// the spike, when little spend has accrued, so only a small budget
	// denies any of them), high enough that the schedule still clears.
	elasticBudgetFrac = 0.15
)

// elasticSchedule builds the spike: a sixth of the jobs trickle in under the
// min fleet's capacity, two thirds arrive in a burst several times over it,
// and a short tail keeps the fleet warm while the backlog drains — the
// makespan gap between policies is the backlog each fleet can absorb. Every
// policy gets the same schedule: determinism is what makes the plane a fair
// comparison.
func elasticSchedule(meanJob simtime.Duration) (at []simtime.Duration, specs []serve.JobSpec) {
	rng := rand.New(rand.NewSource(elasticSeed))
	mean, t := meanJob.Seconds(), 0.0
	add := func(n int, rate float64) {
		for i := 0; i < n; i++ {
			t += rng.ExpFloat64() / rate
			at = append(at, simtime.FromSeconds(t))
			specs = append(specs, serve.JobSpec{Bench: "gemm", N: elasticN, Seed: elasticSeed + int64(len(specs))})
		}
	}
	pre, tail := elasticJobs/6, elasticJobs/6
	add(pre, 0.4/mean)                  // ~1 job per 2.5 mean durations: min fleet keeps up
	add(elasticJobs-pre-tail, 6.0/mean) // 15x the trickle: far past the min fleet
	add(tail, 1.0/mean)
	return at, specs
}

// policyRun is one policy's pass over the schedule.
type policyRun struct {
	name       string
	makespan   float64 // virtual seconds to the last completion
	cost       float64 // spend metered up to the last completion
	onFrontier bool

	done                int
	scaleOuts, scaleIns int
	outputs             [][][]float32 // per schedule index
}

// runPolicy executes one policy over the schedule on a fresh daemon and
// metrics registry. Every control-loop constant derives from the calibrated
// mean job duration, so the soak holds its shape across kernel sizes.
func runPolicy(t *testing.T, name string, cfg autoscale.Config, meanJob simtime.Duration) *policyRun {
	t.Helper()
	cfg.WarmUp = 2 * meanJob // capacity arrives late, not free
	cfg.ScaleInIdle = 3 * meanJob
	cfg.CoolDown = 2 * meanJob
	tickEvery := meanJob / 2
	at, specs := elasticSchedule(meanJob)

	span.ResetMetrics()
	st := storage.NewMemStore()
	d, err := serve.New(serve.Config{
		Store:     st,
		MaxQueue:  2*len(specs) + 1, // the soak must absorb, not shed
		FairShare: elasticMax * elasticWorkerCores,
		PoolCores: -1, // workers-only: capacity IS the elastic fleet
		Limits:    serve.Limits{Rate: -1},
		// The control loop heartbeats on every tick; the lease only needs
		// to outlive the gap between ticks with margin.
		WorkerLease: simtime.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := autoscale.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &sim{d: d, exec: poolExec(st)}
	run := &policyRun{name: name, outputs: make([][][]float32, len(specs))}

	var workers []string // live lease workers; scale-in pops the tail
	launched := 0
	addWorkers := func(n int) error {
		for ; n > 0; n-- {
			addr := fmt.Sprintf("as-w%03d", launched)
			launched++
			if err := d.RegisterWorker(addr, elasticWorkerCores, s.now); err != nil {
				return err
			}
			workers = append(workers, addr)
		}
		return nil
	}
	// decide is one control-loop step: heartbeat the fleet, tick the engine,
	// and actuate its decision against the daemon's worker pool.
	decide := func() error {
		for _, w := range workers {
			d.WorkerHeartbeat(w, s.now)
		}
		switch dec := eng.Tick(s.now); {
		case dec.Delta > 0:
			// Launched, warming: surface it when the boot completes.
			if ready, ok := eng.NextReady(); ok {
				s.at(ready, func() error {
					if err := addWorkers(eng.Ready(s.now)); err != nil {
						return err
					}
					s.pump()
					return nil
				})
			}
		case dec.Delta < 0:
			for i := dec.Delta; i < 0; i++ {
				if len(workers) == 0 {
					return fmt.Errorf("scale-in with no live workers")
				}
				if err := d.RetireWorker(workers[len(workers)-1], s.now); err != nil {
					return err
				}
				workers = workers[:len(workers)-1]
			}
		}
		return nil
	}

	index := map[*serve.Job]int{} // admitted job -> schedule index
	for i := range specs {
		s.at(at[i], func() error {
			j, rej, err := d.Submit("elastic", "spike-cli", specs[i], s.now)
			if err != nil {
				return err
			}
			if rej != nil {
				return fmt.Errorf("job %d shed (%s): the soak queue must hold the whole spike", i, rej.Reason)
			}
			index[j] = i
			if err := decide(); err != nil {
				return err
			}
			s.pump()
			return nil
		})
	}
	s.done = func(job *serve.Job, res serve.Result) error {
		run.outputs[index[job]] = res.Outputs
		if res.Report != nil {
			eng.AddEgress(res.Report.BytesDownloaded)
		}
		if run.done++; run.done == len(specs) {
			run.makespan = s.now.Seconds()
			eng.Tick(s.now) // meter up to the last completion: the makespan's spend
			run.cost = eng.SpentUSD()
		}
		return decide()
	}
	// The control loop ticks while it has a reason to: undone work, or a
	// fleet above the floor that scale-in should reclaim.
	ticks := 0
	var tick func() error
	tick = func() error {
		if ticks++; ticks > 1<<17 {
			return fmt.Errorf("control loop did not converge in %d ticks", ticks)
		}
		if err := decide(); err != nil {
			return err
		}
		s.pump()
		if run.done < len(specs) || !d.Idle() || eng.Launched() > cfg.MinWorkers {
			s.at(s.now+tickEvery, tick)
		}
		return nil
	}
	s.at(tickEvery, tick)

	if err := addWorkers(eng.Bootstrap(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if run.done != len(specs) {
		t.Fatalf("%s: %d of %d jobs completed", name, run.done, len(specs))
	}
	if d.GrantedCores() != 0 {
		t.Fatalf("%s: schedule drained with work stranded (%d cores granted)", name, d.GrantedCores())
	}
	if run.makespan <= 0 || run.cost <= 0 {
		t.Fatalf("%s: makespan %v cost %v", name, run.makespan, run.cost)
	}
	for _, ev := range eng.Events() {
		if ev.Delta > 0 {
			run.scaleOuts++
		} else if ev.Delta < 0 {
			run.scaleIns++
		}
	}
	t.Logf("%-11s makespan %5.1fs  cost $%.4f  scale out/in %d/%d  denied %d",
		name, run.makespan, run.cost, run.scaleOuts, run.scaleIns, eng.DeniedScaleOuts())
	return run
}

// paretoFrontier marks the non-dominated (makespan, cost) points and returns
// their names in ascending makespan.
func paretoFrontier(ps []*policyRun) []string {
	var front []*policyRun
	for _, p := range ps {
		p.onFrontier = true
		for _, q := range ps {
			if q != p && q.makespan <= p.makespan && q.cost <= p.cost &&
				(q.makespan < p.makespan || q.cost < p.cost) {
				p.onFrontier = false
			}
		}
		if !p.onFrontier {
			continue
		}
		i := len(front)
		front = append(front, p)
		for ; i > 0 && front[i].makespan < front[i-1].makespan; i-- {
			front[i], front[i-1] = front[i-1], front[i]
		}
	}
	names := make([]string, len(front))
	for i, p := range front {
		names[i] = p.name
	}
	return names
}

// TestElasticSoak fails unless elasticity engaged and paid off: reactive
// beats fixed-small's makespan, costcap undercuts fixed-large's spend, the
// reactive policy scales out AND back in, no admitted job is lost to a scale
// event (runPolicy: every job completes, nothing stranded), and every
// policy's outputs are bit-identical per job — elasticity must never change
// results.
func TestElasticSoak(t *testing.T) {
	// One real run at a single worker's width gives the mean job duration
	// all rates and control constants derive from.
	span.ResetMetrics()
	meanJob := calibrate(t, serve.JobSpec{Bench: "gemm", N: elasticN, Seed: elasticSeed}, elasticWorkerCores).Virtual

	base := autoscale.Config{
		MinWorkers: elasticMin, MaxWorkers: elasticMax, WorkerCores: elasticWorkerCores,
		CoreHourUSD: 0.105, EgressGiBUSD: 0.09,
	}
	policy := func(name string, p autoscale.Policy, budget float64) *policyRun {
		c := base
		c.Policy, c.BudgetUSD = p, budget
		return runPolicy(t, name, c, meanJob)
	}
	fixed := func(name string, n int) *policyRun {
		c := base
		c.Policy, c.MinWorkers, c.MaxWorkers = autoscale.PolicyFixed, n, n
		return runPolicy(t, name, c, meanJob)
	}
	small, large := fixed("fixed-small", elasticMin), fixed("fixed-large", elasticMax)
	reactive := policy("reactive", autoscale.PolicyReactive, 0)
	costcap := policy("costcap", autoscale.PolicyCostCap, elasticBudgetFrac*large.cost)
	runs := []*policyRun{small, large, reactive, costcap}

	for _, r := range runs[1:] {
		for i := range small.outputs {
			mustMatch(t, fmt.Sprintf("job %d, fixed-small vs %s", i, r.name), small.outputs[i], r.outputs[i])
		}
	}
	if reactive.makespan >= small.makespan {
		t.Errorf("reactive makespan %.1fs did not beat fixed-small %.1fs", reactive.makespan, small.makespan)
	}
	if costcap.cost >= large.cost {
		t.Errorf("costcap $%.4f did not undercut fixed-large $%.4f", costcap.cost, large.cost)
	}
	if reactive.scaleOuts == 0 || reactive.scaleIns == 0 {
		t.Errorf("reactive policy never cycled (out=%d in=%d)", reactive.scaleOuts, reactive.scaleIns)
	}
	// The plane must be non-trivial: at least the two extremes survive.
	if front := paretoFrontier(runs); len(front) < 2 {
		t.Errorf("degenerate frontier: %v", front)
	}
}

// The frontier marks exactly the non-dominated points.
func TestParetoFrontier(t *testing.T) {
	ps := []*policyRun{
		{name: "a", makespan: 10, cost: 5},  // dominated by c
		{name: "b", makespan: 20, cost: 1},  // frontier (cheapest)
		{name: "c", makespan: 8, cost: 4},   // frontier
		{name: "d", makespan: 30, cost: 10}, // dominated by everyone
	}
	names := paretoFrontier(ps)
	if len(names) != 2 || names[0] != "c" || names[1] != "b" {
		t.Fatalf("frontier = %v", names)
	}
	if ps[0].onFrontier || ps[3].onFrontier || !ps[1].onFrontier || !ps[2].onFrontier {
		t.Fatalf("domination flags wrong: %+v", ps)
	}
}
