// Command ompcloud-bench regenerates the paper's evaluation data.
//
//	ompcloud-bench -fig 4            # Figure 4: speedup charts (all 8 benchmarks)
//	ompcloud-bench -fig 5            # Figure 5: load-distribution charts
//	ompcloud-bench -stats            # §IV headline statistics vs the paper
//	ompcloud-bench -ablation         # design-choice ablations
//	ompcloud-bench -fig 4 -csv       # machine-readable output
//	ompcloud-bench -bench gemm,3mm   # restrict the benchmark set
//	ompcloud-bench -transfer         # transfer-path microbenchmark -> BENCH_transfer.json
//	ompcloud-bench -chaos            # fault-injection soak (all 8 kernels) -> BENCH_chaos.json
//	ompcloud-bench -workerchaos      # worker-fault soak (death, speculation, resume) -> BENCH_workerchaos.json
//	ompcloud-bench -netchaos         # link-fault soak (partition, collapse, flap, jitter) -> BENCH_netchaos.json
//	ompcloud-bench -overlap          # barriered vs streaming dataflow -> BENCH_overlap.json
//	ompcloud-bench -multidev         # heterogeneous host+2-cloud split -> BENCH_multidev.json
//
// The tool first calibrates the machine (real single-core runs of each
// benchmark's serial reference and real gzip probes; takes a few seconds at
// the default -caln), then derives
// every figure through the virtual-time cost model at paper scale (~1 GB
// matrices, 8-256 worker cores). See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"ompcloud/internal/bench"
	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to regenerate (4 or 5)")
		stats    = flag.Bool("stats", false, "print the headline statistics of §IV")
		ablation = flag.Bool("ablation", false, "print the design-choice ablations")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		svgDir   = flag.String("svg", "", "also write the figure as SVG chart(s) into this directory")
		benchSel = flag.String("bench", "", "comma-separated benchmark subset (default: all 8)")
		measured = flag.Int("measured", 0, "run Figure 4 in MEASURED mode at this dimension (real pipeline, scaled inputs)")
		calN     = flag.Int("caln", 256, "calibration dimension (kernel micro-measurement size)")
		seed     = flag.Int64("seed", 1, "input generation seed")
		transfer = flag.Bool("transfer", false, "run the transfer-path microbenchmark (sequential vs pipelined upload)")
		xferMiB  = flag.Int("transfer-mib", 256, "payload size for -transfer, in MiB")
		xferOut  = flag.String("transfer-out", "BENCH_transfer.json", "output path for the -transfer results")
		xferGate = flag.Bool("transfer-assert", false, "with -transfer: exit non-zero unless the dedup second pass re-sends <1% of bytes and the adaptive codec stays within 10%% of the best fixed codec (CI gate)")
		chaos    = flag.Bool("chaos", false, "run the fault-injection soak (retry, fallback and breaker scenarios)")
		chaosN   = flag.Int("chaos-n", 96, "matrix dimension for -chaos")
		chaosOut = flag.String("chaos-out", "BENCH_chaos.json", "output path for the -chaos results")
		wchaos   = flag.Bool("workerchaos", false, "run the worker-fault soak (death, re-execution, speculation, kill-and-resume)")
		wchaosN  = flag.Int("workerchaos-n", 96, "matrix dimension for -workerchaos")
		wchaosO  = flag.String("workerchaos-out", "BENCH_workerchaos.json", "output path for the -workerchaos results")
		service  = flag.Bool("service", false, "run the multi-tenant service soak (admission, quotas, fairness, overload shedding, kill-and-recover)")
		svcN     = flag.Int("service-n", 16, "matrix dimension for -service")
		svcTen   = flag.Int("service-tenants", 6, "tenant count for -service")
		svcCli   = flag.Int("service-clients", 40, "simulated clients per tenant for -service")
		svcOut   = flag.String("service-out", "BENCH_service.json", "output path for the -service results")
		nchaos   = flag.Bool("netchaos", false, "run the link-fault soak (hard partition, bandwidth collapse, flapping, latency jitter)")
		nchaosN  = flag.Int("netchaos-n", 96, "matrix dimension for -netchaos")
		nchaosO  = flag.String("netchaos-out", "BENCH_netchaos.json", "output path for the -netchaos results")
		overlap  = flag.Bool("overlap", false, "run the streaming-overlap benchmark (barriered vs streaming wall time)")
		ovMiB    = flag.String("overlap-mib", "64,256", "comma-separated input sizes for -overlap, in MiB")
		ovBW     = flag.Float64("overlap-bw", 200, "simulated WAN bandwidth for -overlap, Mbit/s per direction")
		ovOut    = flag.String("overlap-out", "BENCH_overlap.json", "output path for the -overlap results")
		mdev     = flag.Bool("multidev", false, "run the heterogeneous multi-device benchmark (host+2 clouds split vs single-device baselines)")
		mdevMiB  = flag.Int("multidev-mib", 256, "dense input size for -multidev, in MiB")
		mdevSer  = flag.Float64("multidev-serial-s", 0, "calibrated serial seconds for the -multidev kernel (0: default 10)")
		mdevOut  = flag.String("multidev-out", "BENCH_multidev.json", "output path for the -multidev results")
		elastic  = flag.Bool("elastic", false, "run the elastic autoscaling soak (fixed vs reactive vs cost-capped fleets under a traffic spike)")
		elN      = flag.Int("elastic-n", 16, "matrix dimension for -elastic")
		elJobs   = flag.Int("elastic-jobs", 48, "jobs per kernel for -elastic")
		elKern   = flag.String("elastic-kernels", "gemm,syrk", "comma-separated kernel set for -elastic")
		elOut    = flag.String("elastic-out", "BENCH_elastic.json", "output path for the -elastic results")
	)
	flag.Parse()
	if *transfer {
		runTransfer(*xferMiB, *seed, *xferOut, *xferGate)
		return
	}
	if *overlap {
		runOverlap(*ovMiB, *ovBW, *ovOut)
		return
	}
	if *mdev {
		runMultidev(*mdevMiB, *mdevSer, *mdevOut)
		return
	}
	if *chaos {
		runChaos(*chaosN, *seed, *chaosOut)
		return
	}
	if *wchaos {
		runWorkerChaos(*wchaosN, *seed, *wchaosO)
		return
	}
	if *nchaos {
		runNetChaos(*nchaosN, *seed, *nchaosO)
		return
	}
	if *service {
		runService(*svcN, *svcTen, *svcCli, *seed, *svcOut)
		return
	}
	if *elastic {
		runElastic(*elN, *elJobs, *elKern, *seed, *elOut)
		return
	}
	if *fig == 0 && !*stats && !*ablation {
		flag.Usage()
		os.Exit(2)
	}
	if *measured > 0 && *fig == 4 {
		benches := kernels.All
		if *benchSel != "" {
			benches = nil
			for _, name := range strings.Split(*benchSel, ",") {
				b, err := kernels.ByName(strings.TrimSpace(name))
				if err != nil {
					fatal(err)
				}
				benches = append(benches, b)
			}
		}
		var charts []bench.Fig4Chart
		for _, b := range benches {
			fmt.Fprintf(os.Stderr, "measured sweep: %s at n=%d ...\n", b.Name, *measured)
			chart, err := bench.MeasuredSweep(b, *measured, data.Dense, bench.PaperCoreSweep, *seed)
			if err != nil {
				fatal(err)
			}
			charts = append(charts, chart)
		}
		if *csv {
			bench.WriteFig4CSV(os.Stdout, charts)
		} else {
			bench.WriteFig4Table(os.Stdout, charts)
		}
		return
	}
	cfg := bench.Config{CalN: *calN, Seed: *seed}
	if *benchSel != "" {
		for _, name := range strings.Split(*benchSel, ",") {
			b, err := kernels.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			cfg.Benches = append(cfg.Benches, b)
		}
	}
	fmt.Fprintf(os.Stderr, "calibrating kernels at n=%d ...\n", *calN)
	h, err := bench.NewHarness(cfg)
	if err != nil {
		fatal(err)
	}

	switch {
	case *fig == 4:
		charts, err := h.Figure4()
		if err != nil {
			fatal(err)
		}
		if *csv {
			bench.WriteFig4CSV(os.Stdout, charts)
		} else {
			bench.WriteFig4Table(os.Stdout, charts)
		}
		if *svgDir != "" {
			if err := writeSVG(*svgDir, "fig4.svg", func(w io.Writer) error {
				return bench.WriteFig4SVG(w, charts)
			}); err != nil {
				fatal(err)
			}
		}
	case *fig == 5:
		points, err := h.Figure5()
		if err != nil {
			fatal(err)
		}
		if *csv {
			bench.WriteFig5CSV(os.Stdout, points)
		} else {
			bench.WriteFig5Table(os.Stdout, points)
		}
		if *svgDir != "" {
			for _, kind := range []data.Kind{data.Sparse, data.Dense} {
				name := fmt.Sprintf("fig5-%s.svg", kind)
				if err := writeSVG(*svgDir, name, func(w io.Writer) error {
					return bench.WriteFig5SVG(w, points, kind)
				}); err != nil {
					fatal(err)
				}
			}
		}
	case *fig != 0:
		fatal(fmt.Errorf("unknown figure %d (the paper has figures 4 and 5)", *fig))
	}
	if *stats {
		st, err := h.ComputeStats()
		if err != nil {
			fatal(err)
		}
		order := make([]string, 0, 8)
		for _, b := range kernels.All {
			order = append(order, b.Name)
		}
		bench.WriteStats(os.Stdout, st, order)
	}
	if *ablation {
		rows, err := h.Ablations()
		if err != nil {
			fatal(err)
		}
		bench.WriteAblations(os.Stdout, rows)
	}
}

// runTransfer executes the transfer-path microbenchmark (sequential vs
// pipelined, a codec sweep, and the cross-session dedup second pass) and
// writes the result set to outPath for trend tracking. With assert, the
// result must also clear the CI gates.
func runTransfer(mib int, seed int64, outPath string, assert bool) {
	if mib <= 0 {
		mib = 256 // keep the progress line honest about RunTransferBench's default
	}
	fmt.Fprintf(os.Stderr, "transfer microbenchmark: %d MiB per case on %d cores ...\n",
		mib, runtime.GOMAXPROCS(0))
	res, err := bench.RunTransferBench(mib, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %-12s %-10s %10s %10s %8s %10s %10s %10s\n",
		"kind", "mode", "codec", "raw", "wire", "chunks", "up_wall_s", "down_wall_s", "up_virt_s")
	for _, c := range res.Cases {
		fmt.Printf("%-8s %-12s %-10s %10d %10d %8d %10.3f %10.3f %10.3f\n",
			c.Kind, c.Mode, c.Codec, c.RawBytes, c.WireBytes, c.Chunks,
			c.UploadS, c.DownloadS, c.VirtualS)
	}
	fmt.Printf("\n%-8s %8s %12s %12s %10s %10s %10s %8s\n",
		"dedup", "chunks", "first_sent", "second_sent", "resend_%", "virt1_s", "virt2_s", "speedup")
	for _, d := range res.Dedup {
		fmt.Printf("%-8s %8d %12d %12d %9.3f%% %10.3f %10.3f %7.1fx\n",
			d.Kind, d.Chunks, d.FirstSentB, d.SecondSentB, d.ResendPct,
			d.FirstVirtS, d.SecondVirtS, d.SpeedupV)
	}
	fmt.Printf("\nsparse upload speedup (wall):    %.2fx\n", res.SpeedupS)
	fmt.Printf("sparse upload speedup (virtual): %.2fx\n", res.SpeedupV)
	fmt.Printf("dense  upload speedup (wall):    %.2fx\n", res.SpeedupD)
	fmt.Printf("dense  dedup 2nd-pass (virtual): %.2fx\n", res.DedupSpeedupV)
	fmt.Printf("adaptive vs best fixed codec:    %+.1f%%\n", res.AdaptiveWorstPct)
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	if assert {
		for _, d := range res.Dedup {
			if d.ResendPct >= 1 {
				fatal(fmt.Errorf("transfer gate: %s dedup second pass re-sent %.2f%% of bytes (want <1%%)", d.Kind, d.ResendPct))
			}
		}
		if res.AdaptiveWorstPct > 10 {
			fatal(fmt.Errorf("transfer gate: adaptive codec trails the best fixed codec by %.1f%% (want <=10%%)", res.AdaptiveWorstPct))
		}
		if res.DedupSpeedupV < 2 {
			fatal(fmt.Errorf("transfer gate: dense dedup virtual speedup %.2fx (want >=2x)", res.DedupSpeedupV))
		}
		fmt.Fprintln(os.Stderr, "transfer gate: ok")
	}
}

// runOverlap measures the tile-granular streaming dataflow against the
// stage-barriered workflow on a bandwidth-throttled store and writes the
// result set to outPath.
func runOverlap(mibs string, bw float64, outPath string) {
	var cfg bench.OverlapConfig
	for _, s := range strings.Split(mibs, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		var mib int
		if _, err := fmt.Sscanf(s, "%d", &mib); err != nil || mib <= 0 {
			fatal(fmt.Errorf("bad -overlap-mib entry %q", s))
		}
		cfg.MiBs = append(cfg.MiBs, mib)
	}
	cfg.WANMbps = bw
	cfg.Log = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	res, err := bench.RunOverlapBench(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %6s %6s %14s %13s %8s %10s\n",
		"kind", "mib", "tiles", "barrier_wall_s", "stream_wall_s", "speedup", "identical")
	for _, c := range res.Cases {
		fmt.Printf("%-8s %6d %6d %14.2f %13.2f %7.2fx %10v\n",
			c.Kind, c.MiB, c.Tiles, c.BarrierWallS, c.StreamWallS, c.WallSpeedup, c.Identical)
	}
	if res.Chaos != nil {
		fmt.Printf("\nchaos streaming: %d faults fired, %d storage retries, identical=%v\n",
			res.Chaos.FaultsFired, res.Chaos.StorageRetries, res.Chaos.Identical)
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
}

// runMultidev splits one dense region across the host and two asymmetric
// cloud clusters (seeded, then rebalanced from measured rates), runs each
// member alone as a baseline, exercises the 10x-slower-member degradation
// scenario, and writes the result set to outPath.
func runMultidev(mib int, serialS float64, outPath string) {
	res, err := bench.RunMultidevBench(bench.MultidevConfig{
		MiB:           mib,
		TargetSerialS: serialS,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	c := res.Case
	fmt.Printf("%-10s %6s %10s %10s %16s\n", "device", "cores", "wall_s", "virtual_s", "share_run1->2")
	for i, s := range c.Singles {
		fmt.Printf("%-10s %6d %10.2f %10.2f %8d->%d\n",
			s.Device, s.Cores, s.WallS, s.VirtualS, c.Run1Shares[i], c.Run2Shares[i])
	}
	fmt.Printf("%-10s %6s %10.2f %10.2f\n", "multi run1", "-", c.Run1WallS, c.Run1VirtualS)
	fmt.Printf("%-10s %6s %10.2f %10.2f\n", "multi run2", "-", c.Run2WallS, c.Run2VirtualS)
	fmt.Printf("\nbest single (by model): %s\n", c.BestSingle)
	fmt.Printf("rebalanced split speedup: %.2fx wall, %.2fx virtual, identical=%v\n",
		c.WallSpeedup, c.VirtualSpeedup, c.Identical)
	if d := res.Degraded; d != nil {
		fmt.Printf("degraded member share: %d -> %d, completed=%v, identical=%v\n",
			d.SlowShare1, d.SlowShare2, d.Completed, d.Identical)
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
}

// runChaos executes the fault-injection soak — every kernel clean and
// under a deterministic fault schedule, plus the circuit-breaker
// scenario — and writes the result set to outPath.
func runChaos(n int, seed int64, outPath string) {
	fmt.Fprintf(os.Stderr, "chaos soak: 8 kernels at n=%d, seed %d ...\n", n, seed)
	res, err := bench.RunChaosBench(n, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-16s %-16s %7s %8s %7s %5s %10s %10s %9s\n",
		"kernel", "scenario", "faults", "retries", "tasks", "fell", "clean_s", "chaos_s", "overhead")
	for _, k := range res.Kernels {
		fell := "-"
		if k.FellBack {
			fell = "host"
		}
		fmt.Printf("%-16s %-16s %7d %8d %7d %5s %10.3f %10.3f %8.1f%%\n",
			k.Name, k.Scenario, k.FaultsFired, k.StorageRetries, k.TaskFailures,
			fell, k.CleanVirtualS, k.ChaosVirtualS, k.OverheadPct)
	}
	fmt.Printf("\nbreaker: tripped after %d failed offloads, %d probes while open, recovered=%v\n",
		res.Breaker.FailuresToTrip, res.Breaker.ProbesWhileOpen, res.Breaker.Recovered)
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
}

// runWorkerChaos executes the worker-fault soak — every kernel clean and
// under executor-level fault schedules (worker death, heartbeat loss, a
// deterministic straggler, kill-and-resume) across both dataflow modes —
// and writes the result set to outPath.
func runWorkerChaos(n int, seed int64, outPath string) {
	fmt.Fprintf(os.Stderr, "worker-chaos soak: 8 kernels x 2 dataflow modes at n=%d, seed %d ...\n", n, seed)
	res, err := bench.RunWorkerChaosBench(n, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-16s %-22s %-8s %5s %6s %5s %6s %7s %6s %10s\n",
		"kernel", "scenario", "dataflow", "dead", "reexec", "wins", "losses", "resumed", "tasks", "identical")
	for _, k := range res.Kernels {
		mode := "barrier"
		if k.Overlap {
			mode = "stream"
		}
		fmt.Printf("%-16s %-22s %-8s %5d %6d %5d %6d %7d %6d %10v\n",
			k.Name, k.Scenario, mode, k.DeadWorkers, k.ReexecutedTasks,
			k.SpeculativeWins, k.SpeculativeLosses, k.ResumedTiles, k.TaskFailures, k.Identical)
	}
	fmt.Printf("\ntotals: %d dead workers, %d re-executed tasks, %d speculative wins (%d losses), %d resumed tiles\n",
		res.Totals.DeadWorkers, res.Totals.ReexecutedTasks,
		res.Totals.SpeculativeWins, res.Totals.SpeculativeLosses, res.Totals.ResumedTiles)
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
}

// runNetChaos executes the link-fault soak — every kernel clean and under
// scheduled link faults (hard partition, bandwidth collapse, flapping,
// latency jitter) across both dataflow modes — and writes the result set to
// outPath.
func runNetChaos(n int, seed int64, outPath string) {
	fmt.Fprintf(os.Stderr, "net-chaos soak: 8 kernels x 2 dataflow modes at n=%d, seed %d ...\n", n, seed)
	res, err := bench.RunNetChaosBench(n, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-16s %-22s %-8s %7s %6s %5s %9s %8s %7s %5s %10s\n",
		"kernel", "scenario", "dataflow", "aborts", "hedged", "wins", "degraded", "refused", "part_s", "fell", "identical")
	for _, k := range res.Kernels {
		mode := "barrier"
		if k.Overlap {
			mode = "stream"
		}
		fell := "-"
		if k.FellBack {
			fell = "host"
		}
		fmt.Printf("%-16s %-22s %-8s %7d %6d %5d %9d %8d %7.3f %5s %10v\n",
			k.Name, k.Scenario, mode, k.DeadlineAborts, k.HedgedGets, k.HedgeWins,
			k.DegradedSwitches, k.RefusedOps, k.PartitionSeconds, fell, k.Identical)
	}
	fmt.Printf("\ntotals: %d deadline aborts, %d hedged gets (%d wins), %d degraded switches, %d fallbacks, %d refused ops, %.3fs partitioned\n",
		res.Totals.DeadlineAborts, res.Totals.HedgedGets, res.Totals.HedgeWins,
		res.Totals.DegradedSwitches, res.Totals.Fallbacks, res.Totals.RefusedOps, res.Totals.PartitionSeconds)
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
}

// writeSVG renders one chart file into dir.
func writeSVG(dir, name string, render func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// runService executes the multi-tenant service soak — hundreds of
// simulated clients against the offload daemon's admission, quota,
// fair-share, overload-shedding and kill-recovery machinery — and writes
// the result set to outPath. The soak itself errors unless every
// mechanism engaged, so a clean exit IS the assertion.
func runService(n, tenants, clients int, seed int64, outPath string) {
	fmt.Fprintf(os.Stderr, "service soak: %d tenants x %d clients, mixed kernels at n=%d, seed %d ...\n",
		tenants, clients, n, seed)
	res, err := bench.RunServiceBench(bench.ServiceOptions{
		N: n, Seed: seed, Tenants: tenants, Clients: clients,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-10s %8s %8s %6s %7s %7s %6s %6s\n",
		"phase", "offered", "admitted", "done", "qrej", "shed", "peak", "jain")
	for _, ph := range res.Phases {
		jain := ""
		if ph.Jain > 0 {
			jain = fmt.Sprintf("%.3f", ph.Jain)
		}
		fmt.Printf("%-10s %8d %8d %6d %7d %7d %6d %6s\n",
			ph.Phase, ph.Offered, ph.Admitted, ph.Done,
			ph.RejectedQuota, ph.RejectedLoad, ph.QueuePeak, jain)
	}
	fmt.Printf("\nrecovery: %d admitted, %d journaled, %d recovered, %d tiles resumed, identical=%v\n",
		res.Recovery.Admitted, res.Recovery.Journaled, res.Recovery.Recovered,
		res.Recovery.ResumedTiles, res.Recovery.Identical)
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
}

// runElastic executes the elastic autoscaling soak — the same seeded
// traffic spike under fixed-small, fixed-large, reactive and cost-capped
// fleets — prints each kernel's cost–makespan plane, and writes the
// Pareto frontier set to outPath. RunElasticBench errors unless
// elasticity engaged and paid off (reactive beat fixed-small, costcap
// undercut fixed-large, both scale directions fired, zero stranded jobs,
// bit-identical outputs), so a clean exit IS the assertion.
func runElastic(n, jobs int, kernelCSV string, seed int64, outPath string) {
	var kernelSet []string
	for _, k := range strings.Split(kernelCSV, ",") {
		if k = strings.TrimSpace(k); k != "" {
			kernelSet = append(kernelSet, k)
		}
	}
	fmt.Fprintf(os.Stderr, "elastic soak: %d jobs x %v at n=%d, seed %d ...\n",
		jobs, kernelSet, n, seed)
	res, err := bench.RunElasticBench(bench.ElasticOptions{
		N: n, Seed: seed, Jobs: jobs, Kernels: kernelSet,
	})
	if err != nil {
		fatal(err)
	}
	for _, kr := range res.Kernels {
		fmt.Printf("%s (mean job %.1fs, %d spike jobs)\n", kr.Kernel, kr.MeanJobS, kr.SpikeJobs)
		fmt.Printf("  %-12s %10s %10s %5s %5s %4s %7s %8s\n",
			"policy", "makespan", "cost", "peak", "outs", "ins", "denied", "frontier")
		for _, p := range kr.Policies {
			mark := ""
			if p.OnFrontier {
				mark = "*"
			}
			fmt.Printf("  %-12s %9.1fs %9.4f$ %5d %5d %4d %7d %8s\n",
				p.Policy, p.MakespanS, p.CostUSD, p.PeakWorkers,
				p.ScaleOuts, p.ScaleIns, p.DeniedOuts, mark)
		}
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ompcloud-bench:", err)
	os.Exit(1)
}
