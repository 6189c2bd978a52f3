// Command ompcloud-bench regenerates the paper's evaluation data.
//
//	ompcloud-bench -fig 4            # Figure 4: speedup charts (all 8 benchmarks)
//	ompcloud-bench -fig 5            # Figure 5: load-distribution charts
//	ompcloud-bench -stats            # §IV headline statistics vs the paper
//	ompcloud-bench -ablation         # design-choice ablations
//	ompcloud-bench -fig 4 -csv       # machine-readable output
//	ompcloud-bench -fig 4 -svg dir   # also write the chart(s) as SVG
//	ompcloud-bench -fig 4 -measured 256   # real pipeline at a scaled dimension
//	ompcloud-bench -bench gemm,3mm   # restrict the benchmark set
//	ompcloud-bench -transfer         # transfer-path microbenchmark -> BENCH_transfer.json
//	ompcloud-bench -overlap          # barriered vs streaming dataflow -> BENCH_overlap.json
//	ompcloud-bench -multidev         # heterogeneous host+2-cloud split -> BENCH_multidev.json
//
// The figure modes first calibrate the machine (real single-core runs of each
// benchmark's serial reference and real gzip probes at -caln, inputs from
// -seed), then derive every figure through the virtual-time cost model at
// paper scale (~1 GB matrices, 8-256 worker cores). The three suites measure
// the real data path, sized by their -<suite>-* flags, and each writes one
// self-describing artifact to -<suite>-out. See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"ompcloud/internal/bench"
	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
)

// options is every flag the tool takes.
type options struct {
	fig, measured, calN, xferMiB, mdevMiB                   int
	stats, ablation, csv, transfer, xferGate, overlap, mdev bool
	svgDir, benchSel, xferOut, ovMiB, ovOut, mdevOut        string
	ovBW, mdevSer                                           float64
	seed                                                    int64
}

// newFlagSet declares the tool's flags. main parses them; the docs test
// holds README.md, EXPERIMENTS.md and DESIGN.md to them.
func newFlagSet() (*flag.FlagSet, *options) {
	fs, o := flag.NewFlagSet("ompcloud-bench", flag.ExitOnError), &options{}
	fs.IntVar(&o.fig, "fig", 0, "figure to regenerate (4 or 5)")
	fs.BoolVar(&o.stats, "stats", false, "print the headline statistics of §IV")
	fs.BoolVar(&o.ablation, "ablation", false, "print the design-choice ablations")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.StringVar(&o.svgDir, "svg", "", "also write the figure as SVG chart(s) into this directory")
	fs.StringVar(&o.benchSel, "bench", "", "comma-separated benchmark subset (default: all 8)")
	fs.IntVar(&o.measured, "measured", 0, "run Figure 4 in MEASURED mode at this dimension (real pipeline, scaled inputs)")
	fs.IntVar(&o.calN, "caln", 256, "calibration dimension (kernel micro-measurement size)")
	fs.Int64Var(&o.seed, "seed", 1, "input generation seed")
	fs.BoolVar(&o.transfer, "transfer", false, "run the transfer-path microbenchmark (sequential vs pipelined upload)")
	fs.IntVar(&o.xferMiB, "transfer-mib", 256, "payload size for -transfer, in MiB")
	fs.StringVar(&o.xferOut, "transfer-out", "BENCH_transfer.json", "output path for the -transfer results")
	fs.BoolVar(&o.xferGate, "transfer-assert", false, "with -transfer: exit non-zero unless the dedup second pass re-sends <1% of bytes and the adaptive codec stays within 10% of the best fixed codec (CI gate)")
	fs.BoolVar(&o.overlap, "overlap", false, "run the streaming-overlap benchmark (barriered vs streaming wall time)")
	fs.StringVar(&o.ovMiB, "overlap-mib", "64,256", "comma-separated input sizes for -overlap, in MiB")
	fs.Float64Var(&o.ovBW, "overlap-bw", 200, "simulated WAN bandwidth for -overlap, Mbit/s per direction")
	fs.StringVar(&o.ovOut, "overlap-out", "BENCH_overlap.json", "output path for the -overlap results")
	fs.BoolVar(&o.mdev, "multidev", false, "run the heterogeneous multi-device benchmark (host+2 clouds split vs single-device baselines)")
	fs.IntVar(&o.mdevMiB, "multidev-mib", 256, "dense input size for -multidev, in MiB")
	fs.Float64Var(&o.mdevSer, "multidev-serial-s", 0, "calibrated serial seconds for the -multidev kernel (0: default 10)")
	fs.StringVar(&o.mdevOut, "multidev-out", "BENCH_multidev.json", "output path for the -multidev results")
	return fs, o
}

func main() {
	fs, o := newFlagSet()
	fs.Parse(os.Args[1:])
	switch {
	case o.transfer:
		res := runTransfer(o.xferMiB, o.seed)
		writeArtifact(fs, "transfer", o.xferOut, res)
		if o.xferGate {
			transferGate(res)
		}
		return
	case o.overlap:
		writeArtifact(fs, "overlap", o.ovOut, runOverlap(o.ovMiB, o.ovBW))
		return
	case o.mdev:
		writeArtifact(fs, "multidev", o.mdevOut, runMultidev(o.mdevMiB, o.mdevSer))
		return
	case o.fig == 0 && !o.stats && !o.ablation:
		fs.Usage()
		os.Exit(2)
	}

	benches := kernels.All
	if o.benchSel != "" {
		benches = nil
		for _, name := range strings.Split(o.benchSel, ",") {
			benches = append(benches, must(kernels.ByName(strings.TrimSpace(name))))
		}
	}
	writeFig4 := bench.WriteFig4Table
	if o.csv {
		writeFig4 = bench.WriteFig4CSV
	}
	if o.measured > 0 && o.fig == 4 {
		var charts []bench.Fig4Chart
		for _, b := range benches {
			fmt.Fprintf(os.Stderr, "measured sweep: %s at n=%d ...\n", b.Name, o.measured)
			charts = append(charts, must(bench.MeasuredSweep(b, o.measured, data.Dense, bench.PaperCoreSweep, o.seed)))
		}
		writeFig4(os.Stdout, charts)
		return
	}
	fmt.Fprintf(os.Stderr, "calibrating kernels at n=%d ...\n", o.calN)
	h := must(bench.NewHarness(bench.Config{CalN: o.calN, Seed: o.seed, Benches: benches}))

	switch o.fig {
	case 0:
	case 4:
		charts := must(h.Figure4())
		writeFig4(os.Stdout, charts)
		if o.svgDir != "" {
			writeSVG(o.svgDir, "fig4.svg", func(w io.Writer) error { return bench.WriteFig4SVG(w, charts) })
		}
	case 5:
		points := must(h.Figure5())
		if o.csv {
			bench.WriteFig5CSV(os.Stdout, points)
		} else {
			bench.WriteFig5Table(os.Stdout, points)
		}
		if o.svgDir != "" {
			for _, kind := range []data.Kind{data.Sparse, data.Dense} {
				writeSVG(o.svgDir, fmt.Sprintf("fig5-%s.svg", kind), func(w io.Writer) error {
					return bench.WriteFig5SVG(w, points, kind)
				})
			}
		}
	default:
		fatal(fmt.Errorf("unknown figure %d (the paper has figures 4 and 5)", o.fig))
	}
	if o.stats {
		order := make([]string, 0, 8)
		for _, b := range kernels.All {
			order = append(order, b.Name)
		}
		bench.WriteStats(os.Stdout, must(h.ComputeStats()), order)
	}
	if o.ablation {
		bench.WriteAblations(os.Stdout, must(h.Ablations()))
	}
}

// runTransfer executes the transfer-path microbenchmark (sequential vs
// pipelined, a codec sweep, and the cross-session dedup second pass) and
// prints its tables.
func runTransfer(mib int, seed int64) *bench.TransferBench {
	if mib <= 0 {
		mib = 256 // keep the progress line honest about RunTransferBench's default
	}
	fmt.Fprintf(os.Stderr, "transfer microbenchmark: %d MiB per case on %d cores ...\n",
		mib, runtime.GOMAXPROCS(0))
	res := must(bench.RunTransferBench(mib, seed))
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
	return res
}

// transferGate is -transfer-assert: the CI gates on a transfer result.
func transferGate(res *bench.TransferBench) {
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

// logf is the suites' progress log.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// runOverlap measures the tile-granular streaming dataflow against the
// stage-barriered workflow on a bandwidth-throttled store.
func runOverlap(mibs string, bw float64) *bench.OverlapBench {
	cfg := bench.OverlapConfig{WANMbps: bw, Log: logf}
	for _, s := range strings.Split(mibs, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		var mib int
		if _, err := fmt.Sscanf(s, "%d", &mib); err != nil || mib <= 0 {
			fatal(fmt.Errorf("bad -overlap-mib entry %q", s))
		}
		cfg.MiBs = append(cfg.MiBs, mib)
	}
	res := must(bench.RunOverlapBench(cfg))
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
	return res
}

// runMultidev splits one dense region across the host and two asymmetric
// cloud clusters (seeded, then rebalanced from measured rates), runs each
// member alone as a baseline, and exercises the 10x-slower-member
// degradation scenario.
func runMultidev(mib int, serialS float64) *bench.MultidevBench {
	res := must(bench.RunMultidevBench(bench.MultidevConfig{MiB: mib, TargetSerialS: serialS, Log: logf}))
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
	return res
}

// writeArtifact writes a suite's result set to path under a meta object that
// says what produced it: the tree's revision ("unknown" outside a checkout),
// the toolchain, the machine's core count and the suite's flags as run.
func writeArtifact(fs *flag.FlagSet, suite, path string, result any) {
	type meta struct {
		Rev   string            `json:"rev"`
		Go    string            `json:"go"`
		NProc int               `json:"nproc"`
		Flags map[string]string `json:"flags"`
	}
	m := meta{Rev: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(), Flags: map[string]string{}}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Rev = strings.TrimSpace(string(rev))
	}
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "seed" || strings.HasPrefix(f.Name, suite) {
			m.Flags[f.Name] = f.Value.String()
		}
	})
	blob, err := json.MarshalIndent(struct {
		Meta   meta `json:"meta"`
		Result any  `json:"result"`
	}{m, result}, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// writeSVG renders one chart file into dir.
func writeSVG(dir, name string, render func(io.Writer) error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, name)
	f := must(os.Create(path))
	defer f.Close()
	if err := render(f); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// must unwraps a result whose error is fatal to the tool.
func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ompcloud-bench:", err)
	os.Exit(1)
}
