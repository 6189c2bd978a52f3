// Command ompcloud-run executes one benchmark end-to-end through the real
// offloading pipeline: OpenMP-model lowering, gzip compression, the cloud
// storage service, the Spark engine (real task execution on this machine,
// virtual time on the simulated cluster) and driver-side reconstruction.
//
//	ompcloud-run -bench gemm -n 512 -cores 64
//	ompcloud-run -bench 2mm -n 384 -cores 256 -kind sparse -verify
//	ompcloud-run -bench syrk -n 256 -conf ompcloud.conf   # config-file device
//	ompcloud-run -list
//
// The report decomposes the run exactly as the paper's Figure 5 does:
// host-target communication, Spark overhead, and computation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ompcloud/internal/bench"
	"ompcloud/internal/config"
	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/perf"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
)

func main() {
	var (
		benchName = flag.String("bench", "gemm", "benchmark to run (see -list)")
		n         = flag.Int("n", 512, "dataset dimension")
		cores     = flag.Int("cores", 64, "simulated worker-core count")
		kindStr   = flag.String("kind", "dense", "input data kind: dense|sparse")
		seed      = flag.Int64("seed", 1, "input generation seed")
		verify    = flag.Bool("verify", false, "check results against the serial reference")
		confPath  = flag.String("conf", "", "OmpCloud configuration file (overrides -cores topology)")
		storeAddr = flag.String("storage", "", "remote storage address (use with ompcloud-storaged)")
		workers   = flag.String("workers", "", "comma-separated remote worker addresses (use with ompcloud-worker)")
		resume    = flag.Bool("resume", false, "resumable offload sessions: a re-run after a crash skips uploaded chunks and committed tiles (needs -storage to persist across processes)")
		codec     = flag.String("codec", "auto", "transfer codec: auto|adaptive|raw|zero|deflate")
		cdc       = flag.Bool("cdc", false, "content-defined chunk boundaries (Gear), so shifted data still dedups")
		dedup     = flag.Bool("dedup", false, "cross-session chunk dedup via a persistent content-addressed index (pair with -storage to persist across processes)")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace_event JSON file of the run (open in Perfetto / chrome://tracing)")
		metrics   = flag.Bool("metrics", false, "print the run's metrics registry (counters, gauges, latency histograms) to stderr")
		verbose   = flag.Bool("v", false, "also print the streaming-dataflow critical path and overlap")
		list      = flag.Bool("list", false, "list available benchmarks")
	)
	flag.Parse()

	if *traceOut != "" {
		span.Enable(span.Options{})
	}
	span.ResetMetrics()

	if *list {
		for _, b := range kernels.All {
			prog, err := perf.Lower(b, b.PaperN)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-15s %-10s regions=%d paper-n=%d paper-traffic=%.1f GB in / %.1f GB out\n",
				b.Name, b.Suite, len(prog.Loops), b.PaperN, float64(prog.In)/1e9, float64(prog.Out)/1e9)
		}
		return
	}

	b, err := kernels.ByName(*benchName)
	if err != nil {
		fatal(err)
	}
	kind, err := data.ParseKind(*kindStr)
	if err != nil {
		fatal(err)
	}

	var rep *trace.Report
	switch {
	case *confPath != "":
		f, err := config.Load(*confPath)
		if err != nil {
			fatal(err)
		}
		// [device "..."] blocks select the multi-device split: the region
		// fans out across the host and every named cloud. A flat file keeps
		// the legacy single cloud device.
		plugin, err := offload.NewDevicePluginFromConfig(f)
		if err != nil {
			fatal(err)
		}
		if _, multi := plugin.(*offload.MultiDevice); multi {
			fmt.Fprintf(os.Stderr, "device table: splitting regions across %s\n", plugin.Name())
		}
		rt, err := omp.NewRuntime(16)
		if err != nil {
			fatal(err)
		}
		dev := rt.RegisterDevice(plugin)
		w := b.Prepare(*n, kind, *seed)
		rep, err = w.Run(rt, dev)
		if err != nil {
			fatal(err)
		}
		if *verify {
			if err := w.Verify(); err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, "verify: results match the serial reference")
		}
	default:
		cfg := bench.MeasuredConfig{
			Bench: b, N: *n, Kind: kind, Cores: *cores, Seed: *seed, Verify: *verify,
			Resume: *resume, Codec: *codec, CDC: *cdc, Dedup: *dedup,
		}
		if *workers != "" {
			for _, a := range strings.Split(*workers, ",") {
				if a = strings.TrimSpace(a); a != "" {
					cfg.WorkerAddrs = append(cfg.WorkerAddrs, a)
				}
			}
		}
		if *storeAddr != "" {
			rs, err := storage.Dial(*storeAddr)
			if err != nil {
				fatal(err)
			}
			defer rs.Close()
			cfg.Store = rs
		}
		res, err := bench.RunMeasured(cfg)
		if err != nil {
			fatal(err)
		}
		rep = res.Cloud
		if *verify {
			fmt.Fprintln(os.Stderr, "verify: results match the serial reference on both devices")
		}
		fmt.Printf("host baseline (%d threads): compute %v\n", 16, res.Host.ComputeTime().Real())
	}

	if *traceOut != "" {
		rec := span.Default()
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := span.WriteChrome(f, rec.Spans(), rec.Dropped()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %d spans (%d dropped) to %s\n",
			rec.Len(), rec.Dropped(), *traceOut)
	}
	if *metrics {
		span.Metrics().WriteText(os.Stderr)
	}

	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Println(rep)
	rep.WriteBreakdown(os.Stdout, 48)
	fmt.Printf("wire traffic: %.2f MB up, %.2f MB down; %d task failures\n",
		float64(rep.BytesUploaded)/1e6, float64(rep.BytesDownloaded)/1e6, rep.TaskFailures)
	if rep.ResumedTiles > 0 || rep.ReexecutedTasks > 0 || rep.DeadWorkers > 0 {
		fmt.Printf("fault tolerance: %d tiles resumed, %d tasks re-executed, %d workers died, %d speculative wins\n",
			rep.ResumedTiles, rep.ReexecutedTasks, rep.DeadWorkers, rep.SpeculativeWins)
	}
	if *verbose {
		if rep.CriticalPath > 0 {
			fmt.Printf("streaming dataflow: critical path %v, wall overlap %v (phase sum %v)\n",
				rep.CriticalPath, rep.WallOverlap, rep.Total())
		} else {
			fmt.Println("streaming dataflow: inactive (stage-barriered run, critical path = phase sum)")
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ompcloud-run:", err)
	os.Exit(1)
}
