package offload_test

// The fault soaks: every kernel of the evaluation runs clean and then under a
// deterministic storage-, worker- or link-fault schedule, and the assertions
// are on the two runs themselves. They live outside package offload because
// the workloads (internal/kernels) import it.

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/perf"
	"ompcloud/internal/resilience"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
)

// Small enough for tier-1 under -race, large enough that every kernel still
// splits into several tiles and several 4 KiB chunks per buffer.
const (
	soakN    = 64
	soakSeed = 7
)

// One 8-core worker: faults on the storage and link planes need tiles, not
// executors. The worker soak spreads the same cores over four workers.
var soakSpec = spark.ClusterSpec{Workers: 1, CoresPerWorker: 8}

// soakPlugin builds the cloud device of one soak run: chunk-granular
// transfers, four retry attempts per storage leg without real backoff
// sleeping, and four real execution slots whatever the machine has, so
// hedges, deadline guards and a sleeping straggler race real goroutines.
// barriered selects the stage-barriered workflow over the streaming one.
func soakPlugin(t *testing.T, spec spark.ClusterSpec, st storage.Store, barriered bool, mut func(*offload.CloudConfig)) *offload.CloudPlugin {
	t.Helper()
	cfg := offload.CloudConfig{
		Spec:            spec,
		Store:           st,
		ChunkBytes:      4096,
		RetryMax:        4,
		RetrySleep:      func(time.Duration) {},
		RealParallelism: 4,
	}
	if barriered {
		cfg.Overlap = -1
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := offload.NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// soakRun is one finished run of a workload: its report, a copy of its
// outputs, and the serial reference of the same inputs (computed on demand).
type soakRun struct {
	rep    *trace.Report
	outs   [][]float32
	serial func() []float32
}

// runOn executes b's workload on the device and checks it against the
// serial reference (the tolerance absorbs reduction order only).
func runOn(b *kernels.Benchmark, p *offload.CloudPlugin) (*soakRun, error) {
	rt, err := omp.NewRuntime(4)
	if err != nil {
		return nil, err
	}
	w := b.Prepare(soakN, data.Dense, soakSeed)
	rep, err := w.Run(rt, rt.RegisterDevice(p))
	if err != nil {
		return nil, err
	}
	if err := w.Verify(); err != nil {
		return nil, err
	}
	run := &soakRun{rep: rep, serial: w.Serial}
	for _, o := range w.Outputs() {
		run.outs = append(run.outs, append([]float32(nil), o...))
	}
	return run, nil
}

// singleRegion reports whether b's program is one standalone target region;
// the others run their loops inside a target data environment.
func singleRegion(t *testing.T, b *kernels.Benchmark) bool {
	t.Helper()
	prog, err := perf.Lower(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	return len(prog.Loops) == 1
}

func mustRun(t *testing.T, what string, b *kernels.Benchmark, p *offload.CloudPlugin) *soakRun {
	t.Helper()
	run, err := runOn(b, p)
	if err != nil {
		t.Fatalf("%s run: %v", what, err)
	}
	return run
}

// mustMatch fails unless two output sets agree bit for bit.
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

// dataflow names a row's mode in subtest names.
func dataflow(barriered bool) string {
	if barriered {
		return "barrier"
	}
	return "stream"
}

// storageScenario is one deterministic storage-fault schedule.
type storageScenario struct {
	name string
	// fallback marks the schedule that is unrecoverable by design: the run
	// must finish on the host (§III.A dynamic fallback).
	fallback bool
	faults   []faults.Entry
}

var storageScenarios = []storageScenario{
	{name: "flaky-puts", faults: []faults.Entry{
		{Op: "put", Key: "/in/", Count: 2},
		{Op: "put", Key: "/out/", Count: 1},
	}},
	{name: "flaky-gets", faults: []faults.Entry{
		{Op: "get", Key: "/in/", Count: 1},
		{Op: "get", Key: ".part", Count: 1, Do: faults.Truncate, Keep: 7},
		{Op: "get", Key: ".part", Count: 1, Do: faults.Flip, Bit: 3},
	}},
	{name: "dead-output-leg", fallback: true, faults: []faults.Entry{{Key: "/out/"}}},
}

// flakyTasks fails every fifth task attempt and loses tile 1's first
// computed result: the task-plane faults every storage row also runs under.
var flakyTasks = []faults.Entry{
	{Layer: faults.Before, Partition: faults.Any, Worker: faults.Any, Every: 5},
	{Layer: faults.After, Partition: 1, Worker: faults.Any, To: 1},
}

// TestStorageFaultSoak runs every kernel under a storage-fault schedule
// (failed puts and gets, truncated and bit-flipped chunk payloads, a dead
// output leg) with flaky and crash-after-success task attempts on top. The
// recoverable schedules must finish on the device bit-identical to the clean
// run; the dead output leg must finish on the host with a reason.
func TestStorageFaultSoak(t *testing.T) {
	retries, fallbacks := 0, 0
	// The dead-output-leg schedule only goes to single-region kernels: a
	// multi-region workload runs inside a target-data environment, whose
	// mid-flight storage failures surface as errors, not as a host re-run.
	single, multi := 0, 0
	for _, b := range kernels.All {
		var scen storageScenario
		if singleRegion(t, b) {
			scen = storageScenarios[single%len(storageScenarios)]
			single++
		} else {
			scen = storageScenarios[multi%2]
			multi++
		}
		t.Run(b.Name+"/"+scen.name, func(t *testing.T) {
			clean := mustRun(t, "clean", b, soakPlugin(t, soakSpec, storage.NewMemStore(), false, nil))

			sched := faults.New(soakSeed).Add(scen.faults...).Add(flakyTasks...)
			faulted := mustRun(t, "faulted", b, soakPlugin(t, soakSpec, storage.NewMemStore(), false, func(cfg *offload.CloudConfig) {
				cfg.Faults = sched
			}))
			if sched.Fired(faults.Store) == 0 {
				t.Fatal("the schedule never fired a storage fault")
			}
			t.Logf("%d storage faults, %d retries, %d task failures, fell back %v",
				sched.Fired(faults.Store), faulted.rep.StorageRetries, faulted.rep.TaskFailures, faulted.rep.FellBack)
			retries += faulted.rep.StorageRetries
			if scen.fallback {
				if !faulted.rep.FellBack {
					t.Fatal("the dead leg should have forced a host fallback")
				}
				if faulted.rep.FallbackReason == "" {
					t.Fatal("fallback report is missing its reason")
				}
				fallbacks++
				return
			}
			if faulted.rep.FellBack {
				t.Fatalf("recoverable schedule fell back: %s", faulted.rep.FallbackReason)
			}
			mustMatch(t, "clean vs recovered", clean.outs, faulted.outs)
		})
	}
	if retries == 0 {
		t.Error("no storage leg ever retried; the schedules were too gentle")
	}
	if fallbacks == 0 {
		t.Error("no kernel hit the unrecoverable schedule; fallback untested")
	}
}

// TestHostFallbacksTripBreakerAndRecover drives the dead-store scenario
// through the OpenMP runtime: job objects fail forever, each offload completes
// on the host and that fallback feeds the breaker, past the threshold the
// device answers unavailable, and once the cooldown expires and the store has
// healed, regions run on the device again. (That an open breaker issues no
// health probes is TestBreakerTripsAndRecovers' assertion, on the plugin
// alone.)
func TestHostFallbacksTripBreakerAndRecover(t *testing.T) {
	sched := faults.New(soakSeed).Add(faults.Entry{Key: "jobs/"})

	var clockMu sync.Mutex
	clock := time.Unix(0, 0)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}

	const threshold = 2
	cooldown := 10 * time.Second
	plugin := soakPlugin(t, soakSpec, storage.NewMemStore(), false, func(cfg *offload.CloudConfig) {
		cfg.Faults = sched
		cfg.RetryMax = -1 // fail fast: the store is dead, retries cannot help
		cfg.BreakerFailures = threshold
		cfg.BreakerCooldown = cooldown
		cfg.BreakerNow = now
	})

	failed := 0
	for plugin.Breaker().State() != resilience.BreakerOpen {
		if failed >= 2*threshold {
			t.Fatalf("breaker did not trip after %d failed offloads", failed)
		}
		run := mustRun(t, fmt.Sprintf("breaker %d", failed), kernels.GEMM, plugin)
		if !run.rep.FellBack {
			t.Fatalf("run %d against the dead store should have fallen back to the host", failed)
		}
		failed++
	}
	if plugin.Available() {
		t.Fatal("open breaker still reports the device available")
	}

	sched.Clear()
	clockMu.Lock()
	clock = clock.Add(cooldown + time.Second)
	clockMu.Unlock()
	if !plugin.Available() {
		t.Fatal("healed device still unavailable after cooldown")
	}
	if run := mustRun(t, "post-recovery", kernels.GEMM, plugin); run.rep.FellBack {
		t.Fatalf("post-recovery run fell back: %s", run.rep.FallbackReason)
	}
}
