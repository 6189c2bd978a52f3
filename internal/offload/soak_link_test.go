package offload_test

import (
	"testing"
	"time"

	"ompcloud/internal/faults"
	"ompcloud/internal/kernels"
	"ompcloud/internal/netsim"
	"ompcloud/internal/offload"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

// linkTotals sums the resilience events no single row is obliged to show:
// which attempt a flap stalls and which GET draws jitter depends on how the
// run's concurrent operations interleave on the store counter.
type linkTotals struct {
	deadlineAborts, hedgedGets, hedgeWins int
}

// linkScenario is one deterministic link-fault schedule. run executes the
// faulted side of a row and asserts what that schedule alone must show; it
// returns the faulted run whose virtual makespan the row bounds, or nil when
// the row has no such bound.
type linkScenario struct {
	name string
	run  func(t *testing.T, b *kernels.Benchmark, barriered bool, clean *soakRun, tot *linkTotals) *soakRun
}

// linkPartition: the WAN partitions hard mid-run and never heals, from the
// 7th storage operation — after the 3-op health probe and the first uploads,
// before even the smallest kernel (10 ops end to end) finishes — so the
// failure is always mid-flight and the only exit is host fallback. Each
// refused operation stands for 1 ms of downtime. Only single-region kernels
// get it (see TestStorageFaultSoak).
func linkPartition(t *testing.T, b *kernels.Benchmark, barriered bool, _ *soakRun, _ *linkTotals) *soakRun {
	sched := faults.New(soakSeed).Add(faults.Entry{From: 6, Do: faults.Drop, Dur: time.Millisecond})
	run := mustRun(t, "partitioned", b, soakPlugin(t, soakSpec, storage.NewMemStore(), barriered, func(cfg *offload.CloudConfig) {
		cfg.Faults = sched
	}))
	if !run.rep.FellBack {
		t.Fatal("hard partition should have forced a host fallback")
	}
	if run.rep.FallbackReason == "" {
		t.Fatal("fallback report is missing its reason")
	}
	if sched.Fired(faults.Store) == 0 {
		t.Fatal("partition never refused an operation")
	}
	if sched.Down() <= 0 {
		t.Fatal("partition accrued no downtime")
	}
	t.Logf("%d operations refused, fell back", sched.Fired(faults.Store))
	// The host ran the paper's loops in their serial accumulation order:
	// the clean cloud run's bits are the wrong yardstick for this row, the
	// serial reference is the right one.
	mustMatch(t, "host fallback vs serial reference", [][]float32{run.serial()}, run.outs)
	return nil
}

// The collapse scenario's link: a healthy gigabyte-per-second wire that
// collapses to 1% for the whole deployment. The plugin is provisioned at
// 8 Gbps, so the adaptive codec ships dense chunks raw until the observed
// rate replaces the provisioned one.
const (
	collapseHealthyBPS = 1e9
	collapseFrac       = 0.01
)

// linkCollapse compares a baseline plugin that keeps trusting the provisioned
// rate against one that observes the collapse, enters degraded mode, and
// re-qualifies dense data for compression. Both are priced at the link's true
// rate — the baseline's own virtual accounting still believes the rate it no
// longer gets.
func linkCollapse(t *testing.T, b *kernels.Benchmark, barriered bool, clean *soakRun, _ *linkTotals) *soakRun {
	prof := netsim.DefaultProfile()
	prof.WAN.BitsPerSs = 8e9
	mk := func(adapt bool) *offload.CloudPlugin {
		return soakPlugin(t, soakSpec, storage.NewMemStore(), barriered, func(cfg *offload.CloudConfig) {
			cfg.Faults = faults.New(soakSeed).Add(faults.Entry{Do: faults.Slow, Frac: collapseFrac, Rate: collapseHealthyBPS})
			cfg.Profile = prof
			cfg.Codec = xcompress.Codec{MinSize: 512, Algo: xcompress.AlgoAdaptive}
			cfg.ChunkParallel = 4
			cfg.AdaptDegraded = adapt
		})
	}
	base := mustRun(t, "baseline", b, mk(false))
	adapting := mk(true)
	// Run one warms the rate meter and flips the degraded latch; run two
	// transfers under the degraded plan from the first leg on.
	warm := mustRun(t, "adapting 1", b, adapting)
	adapted := mustRun(t, "adapting 2", b, adapting)
	if base.rep.FellBack || warm.rep.FellBack || adapted.rep.FellBack {
		t.Fatal("collapse rows must complete on the device")
	}
	if warm.rep.DegradedSwitches+adapted.rep.DegradedSwitches < 1 {
		t.Fatal("collapsed link never entered degraded mode")
	}
	t.Logf("%d degraded switches", warm.rep.DegradedSwitches+adapted.rep.DegradedSwitches)
	baseWire := base.rep.BytesUploaded + base.rep.BytesDownloaded
	adWire := adapted.rep.BytesUploaded + adapted.rep.BytesDownloaded
	// One rate prices both, so fewer wire bytes is the shorter true-rate
	// makespan.
	if adWire >= baseWire {
		t.Fatalf("degraded-mode codec re-verdict did not reduce wire bytes: %d vs %d (%.3fs vs %.3fs at the true rate)",
			adWire, baseWire, float64(adWire)/(collapseHealthyBPS*collapseFrac), float64(baseWire)/(collapseHealthyBPS*collapseFrac))
	}
	mustMatch(t, "clean vs adapted", clean.outs, adapted.outs)
	return nil
}

// linkFlap: the link flaps — every fourth storage operation stalls 30 ms in
// TCP-stall mode and then proceeds — over a baseline 1 ms latency spike on
// every operation. Adaptive deadlines (clamped to [15 ms, 25 ms], under the
// stall) abort stalled attempts and re-route them onto later operations;
// the run must complete on the device.
func linkFlap(t *testing.T, b *kernels.Benchmark, barriered bool, clean *soakRun, tot *linkTotals) *soakRun {
	run := mustRun(t, "flapping", b, soakPlugin(t, soakSpec, storage.NewMemStore(), barriered, func(cfg *offload.CloudConfig) {
		cfg.Faults = faults.New(soakSeed).Add(
			faults.Entry{Do: faults.Delay, Dur: time.Millisecond},
			faults.Entry{Every: 4, Do: faults.Hang, Dur: 30 * time.Millisecond})
		cfg.DeadlineMult = 3
		cfg.DeadlineFloor = 15 * time.Millisecond
		cfg.DeadlineCap = 25 * time.Millisecond
		cfg.RetryMax = 8
	}))
	if run.rep.FellBack {
		t.Fatalf("flapping link should be survivable, fell back: %s", run.rep.FallbackReason)
	}
	if run.rep.PartitionSeconds <= 0 {
		t.Fatal("flap schedule accrued no partition downtime")
	}
	t.Logf("%d deadline aborts, %.3fs partitioned", run.rep.DeadlineAborts, run.rep.PartitionSeconds)
	tot.deadlineAborts += run.rep.DeadlineAborts
	mustMatch(t, "clean vs flapped", clean.outs, run.outs)
	return run
}

// linkJitter: 15% of operations draw 40 ms of extra latency — the
// transient-spike case hedged reads exist for. A backup GET launches past the
// observed latency quantile and usually redraws a clean operation, winning
// while the primary sleeps.
func linkJitter(t *testing.T, b *kernels.Benchmark, barriered bool, clean *soakRun, tot *linkTotals) *soakRun {
	run := mustRun(t, "jittery", b, soakPlugin(t, soakSpec, storage.NewMemStore(), barriered, func(cfg *offload.CloudConfig) {
		cfg.Faults = faults.New(soakSeed*2 + 1).Add(faults.Entry{Do: faults.Delay, Dur: 40 * time.Millisecond, Prob: 0.15})
		cfg.Hedge = true
		cfg.HedgeQuantile = 0.9
	}))
	if run.rep.FellBack {
		t.Fatalf("jittery link should be survivable, fell back: %s", run.rep.FallbackReason)
	}
	t.Logf("%d hedged gets, %d won", run.rep.HedgedGets, run.rep.HedgeWins)
	tot.hedgedGets += run.rep.HedgedGets
	tot.hedgeWins += run.rep.HedgeWins
	mustMatch(t, "clean vs hedged", clean.outs, run.outs)
	return run
}

var linkScenarios = []linkScenario{
	{"hard-partition", linkPartition},
	{"bandwidth-collapse", linkCollapse},
	{"flap-deadline", linkFlap},
	{"latency-jitter-hedge", linkJitter},
}

// TestLinkFaultSoak runs every kernel behind a scheduled link fault (hard
// partition, bandwidth collapse, flapping, latency jitter) in both dataflow
// modes. A run that finishes on the device must match the clean run bit for
// bit; a run the partition pushed to the host must match the serial
// reference; and across the soak every mechanism — partition-triggered
// fallback, degraded mode, deadline aborts, hedged reads — must have engaged.
func TestLinkFaultSoak(t *testing.T) {
	var tot linkTotals
	ran := map[string]int{}
	single, multi := 0, 0
	for _, b := range kernels.All {
		for _, barriered := range []bool{false, true} {
			var scen linkScenario
			if singleRegion(t, b) {
				scen = linkScenarios[single%len(linkScenarios)]
				single++
			} else {
				scen = linkScenarios[1+multi%(len(linkScenarios)-1)]
				multi++
			}
			// The collapse comparison needs bulk matrix payloads: the list
			// workload ships a few hundred wire bytes, below the compression
			// threshold and too few transfers to even warm the rate meter.
			if scen.name == "bandwidth-collapse" && b == kernels.Collinear {
				scen = linkScenarios[2]
			}
			t.Run(b.Name+"/"+scen.name+"/"+dataflow(barriered), func(t *testing.T) {
				clean := mustRun(t, "clean", b, soakPlugin(t, soakSpec, storage.NewMemStore(), barriered, nil))
				faulted := scen.run(t, b, barriered, clean, &tot)
				ran[scen.name]++
				// Flaps and jitter delay and re-route transfers but change no
				// payloads: retried chunks bill extra wire time, yet recovery
				// must stay within 2x of the clean virtual makespan.
				if faulted == nil {
					return
				}
				if c, f := clean.rep.Total(), faulted.rep.Total(); c > 0 && f > 2*c {
					t.Fatalf("virtual makespan inflated %.2fx (clean %v, faulted %v)", f.Seconds()/c.Seconds(), c, f)
				}
			})
		}
	}
	for _, scen := range linkScenarios {
		if ran[scen.name] == 0 {
			t.Errorf("scenario %s never ran to completion", scen.name)
		}
	}
	t.Logf("%d deadline aborts, %d hedged gets (%d won)", tot.deadlineAborts, tot.hedgedGets, tot.hedgeWins)
	if tot.deadlineAborts == 0 {
		t.Error("no stalled attempt was ever cut off by a deadline")
	}
	if tot.hedgedGets == 0 || tot.hedgeWins == 0 {
		t.Errorf("hedged reads never engaged: %d launched, %d won", tot.hedgedGets, tot.hedgeWins)
	}
}
