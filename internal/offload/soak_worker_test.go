package offload_test

import (
	"testing"
	"time"

	"ompcloud/internal/faults"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
)

// The worker soak spreads the 8 cores over 4 workers so one worker's death
// removes a quarter of the cluster instead of all of it, and Eq. 3
// re-partitioning over the live set has survivors to land on.
var workerSoakSpec = spark.ClusterSpec{Workers: 4, CoresPerWorker: 2}

// workerScenario is one deterministic executor-fault schedule.
type workerScenario struct {
	name string
	// resume switches the row to the kill-and-restart flow: a sabotaged
	// first run dies mid-job, then a fresh plugin resumes its session.
	resume bool
	// arm sets up the faulted run's config; called once per plugin so
	// stateful injectors start fresh.
	arm func(cfg *offload.CloudConfig)
	// engaged names the recovery mechanism the faulted run failed to
	// exercise, or "".
	engaged func(rep *trace.Report) string
}

// leased arms the membership clock — a 1 ms virtual lease with a budget of
// one miss, so a silenced worker dies on the first expiry check — under the
// given fault schedule.
func leased(cfg *offload.CloudConfig, es ...faults.Entry) {
	cfg.Heartbeat = time.Millisecond
	cfg.LeaseMisses = 1
	cfg.Faults = faults.New(soakSeed).Add(es...)
}

// straggler is a deterministic straggler on tile p: its original copy — the
// one on the tile's preferred worker, Eq. 3's floor(p*W/P); a backup always
// races on the next — hangs until a backup copy has computed the tile, then
// dies, retries included. Only the backup can commit the tile, so it wins by
// construction: what a run exercises is the speculation monitor finding the
// straggler, never a sleep racing the host's scheduler. The 10 s cap fails a
// run that never speculates instead of hanging it.
func straggler(p int) []faults.Entry {
	hang := faults.Entry{Layer: faults.Before, Partition: p, Do: faults.Hang, Dur: 10 * time.Second, Rescue: true}
	original, retries := hang, hang
	original.Worker, original.To = p*workerSoakSpec.Workers/workerSoakSpec.TotalCores(), 1
	retries.Worker, retries.From = faults.Any, 1
	return []faults.Entry{original, retries}
}

var workerScenarios = []workerScenario{
	{
		// Worker 1 dies for good once it starts its second task: the
		// in-flight attempt is lost, the lease expires, and the task
		// re-executes on a survivor.
		name: "die-at-task",
		arm: func(cfg *offload.CloudConfig) {
			leased(cfg, faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: 1, Skip: 1, Do: faults.Die})
		},
		engaged: func(rep *trace.Report) string {
			if rep.DeadWorkers == 0 {
				return "die-at-task never killed a worker"
			}
			if rep.ReexecutedTasks == 0 {
				return "worker death re-executed no tasks"
			}
			return ""
		},
	},
	{
		// Worker 2 goes silent past its lease budget (declared dead, tasks
		// re-enqueued), then rejoins two heartbeat intervals later and
		// receives new work.
		name: "flapping-rejoin",
		arm: func(cfg *offload.CloudConfig) {
			leased(cfg, faults.Entry{Layer: faults.Beat, Worker: 2, To: 4, Do: faults.Drop, Rejoin: 2})
		},
		engaged: func(rep *trace.Report) string {
			if rep.DeadWorkers == 0 {
				return "flapping worker was never declared dead"
			}
			return ""
		},
	},
	{
		// Tile 5's original copy hangs; the speculation monitor launches a
		// backup once half the stage has finished, and the backup commits.
		name: "straggler-speculation",
		arm: func(cfg *offload.CloudConfig) {
			cfg.Speculate = true
			cfg.SpeculateQuantile = 0.5
			// Algorithm 1 cuts a region into one tile per core.
			cfg.Faults = faults.New(soakSeed).Add(straggler(5)...)
		},
		engaged: func(rep *trace.Report) string {
			if rep.SpeculativeWins == 0 {
				return "straggler's backup copy never won the race"
			}
			return ""
		},
	},
	{
		// The first run dies with one task failing every attempt, leaving a
		// session journal and committed tiles behind; a fresh plugin over
		// the same store serves those and recomputes only the rest.
		name:   "kill-and-resume",
		resume: true,
		arm: func(cfg *offload.CloudConfig) {
			cfg.EnableCache = true
			cfg.Resume = true
			// A resumed session must not be masked by the host.
			cfg.Fallback = offload.FallbackFail
		},
		engaged: func(rep *trace.Report) string {
			if rep.ResumedTiles == 0 {
				return "resumed run recomputed everything"
			}
			return ""
		},
	},
}

// TestWorkerFaultSoak runs every kernel under an executor-fault schedule
// (worker death, heartbeat loss and rejoin, a straggler, kill-and-resume) in
// both dataflow modes. Every faulted run must finish on the device
// bit-identical to the clean run with its recovery mechanism engaged, and
// every schedule must have met both modes.
func TestWorkerFaultSoak(t *testing.T) {
	covered := map[string][2]bool{} // scenario -> {streaming, barriered}
	for k, b := range kernels.All {
		for mode, barriered := range []bool{false, true} {
			scen := workerScenarios[(k+2*mode)%len(workerScenarios)]
			t.Run(b.Name+"/"+scen.name+"/"+dataflow(barriered), func(t *testing.T) {
				clean := mustRun(t, "clean", b, soakPlugin(t, workerSoakSpec, storage.NewMemStore(), barriered, nil))

				st := storage.NewMemStore()
				if scen.resume {
					// The last tile fails every attempt: the job dies only
					// after the other tiles committed, like a killed process.
					killed := soakPlugin(t, workerSoakSpec, st, barriered, func(cfg *offload.CloudConfig) {
						scen.arm(cfg)
						cfg.Faults = faults.New(soakSeed).Add(faults.Entry{Layer: faults.Before,
							Partition: workerSoakSpec.TotalCores() - 1, Worker: faults.Any})
					})
					if _, err := runOn(b, killed); err == nil {
						t.Fatal("sabotaged run should have died mid-job")
					}
				}
				faulted := mustRun(t, "faulted", b, soakPlugin(t, workerSoakSpec, st, barriered, scen.arm))
				if faulted.rep.FellBack {
					t.Fatalf("faulted run fell back to the host: %s", faulted.rep.FallbackReason)
				}
				mustMatch(t, "clean vs recovered", clean.outs, faulted.outs)
				t.Logf("%d dead workers, %d re-executed tasks, %d speculative wins, %d resumed tiles",
					faulted.rep.DeadWorkers, faulted.rep.ReexecutedTasks, faulted.rep.SpeculativeWins, faulted.rep.ResumedTiles)
				if miss := scen.engaged(faulted.rep); miss != "" {
					t.Fatal(miss)
				}
				cov := covered[scen.name]
				cov[mode] = true
				covered[scen.name] = cov
			})
		}
	}
	for _, scen := range workerScenarios {
		if cov := covered[scen.name]; !cov[0] || !cov[1] {
			t.Errorf("scenario %s missed a dataflow mode (streaming=%v barriered=%v)", scen.name, cov[0], cov[1])
		}
	}
}
