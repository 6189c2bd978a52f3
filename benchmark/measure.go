package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
)

// Noise discipline, enforced here:
//   - inputs and output buffers are built once per block in set-up and
//     reused by every op of the block; the serial reference once per run;
//   - runtime.GC() runs before each op, outside the timed span;
//   - a process warms up before its first timed op (three ops; 100 jobs per
//     daemon) and timed ops follow back to back — an op that follows
//     seconds of other work re-faults the heap the scavenger returned;
//   - a run is three blocks, each with its own set-up, and a metric is
//     computed over the pooled samples of all blocks: medians for timings,
//     totals over the op count for CPU, allocation and bytes;
//   - all load comes from this process, with no more than nproc client
//     goroutines and connections;
//   - the host probe (host.go) runs immediately before and after every timed
//     op (on the daemon: between segments of the timed window), never inside
//     one, and the run's wall-clock metrics are scaled by what its probes say
//     the host's speed was.
const (
	blocksPerRun = 3
	// setupReps is how often a block sets up (the last one is kept), so
	// that setup_s is a median of nine set-ups a run, not three: set-up is
	// tens of milliseconds on most workloads and three samples of it spread
	// by a quarter from run to run.
	setupReps   = 3
	minTimedOps = 5 // per run, however short -seconds is
)

// opSample is one timed op as its caller saw it.
type opSample struct {
	wallS, virtualS float64
}

// tally counts ops: attempted, failed, and why the first few failed.
type tally struct {
	attempted int
	failed    int
	failures  []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
}

// block is one set-up plus the timed ops that followed it.
type block struct {
	tally
	setups     []float64 // seconds, one per set-up
	ops        []opSample
	probes     []float64 // seconds, one per host probe
	windowS    float64   // the time the timed ops took: sum of spans (region) or the loop's window (daemon)
	cpuS       float64
	allocBytes float64
	storeBytes float64
}

// processStart dates the -verbose lines.
var processStart = time.Now()

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// regionOp is what one region op left behind.
type regionOp struct {
	sample     opSample
	cpuS       float64
	allocBytes float64
	gcCycles   uint32
	gcPauseNS  uint64
	storeBytes float64
	report     *trace.Report
	stats      *storeStats // traced ops only
	selfS      float64     // traced ops only: op span minus covered child time
}

// fixture is what one region op runs against: a fresh loopback object store
// (storage.Serve plus one storage.Dial client, how `ompcloud-run -storage`
// deploys) behind storage.Metered, a fresh cloud plugin with the default
// CloudConfig on a simulated 1×16-core cluster, and a fresh runtime.
type fixture struct {
	srv     *storage.Server
	cli     *storage.RemoteStore
	metered *storage.Metered
	plugin  *offload.CloudPlugin
	rt      *omp.Runtime
	dev     omp.Device
	stats   *storeStats // traced ops only
	// root is the op's span; the timing Store wrapper reads it per call.
	root int
}

// regionConfig is the region workloads' device: the default CloudConfig
// (streamed dataflow, auto codec, 1 MiB chunks) on a simulated 1×16-core
// cluster.
func regionConfig(st storage.Store) offload.CloudConfig {
	return offload.CloudConfig{Spec: spark.ClusterSpec{Workers: 1, CoresPerWorker: tiles}, Store: st}
}

// newFixture builds a fixture. With a tracer the timing Store wrapper sits
// between the plugin and the client.
func newFixture(tr *tracer, opID string) (*fixture, error) {
	f := &fixture{root: noParent}
	var err error
	if f.srv, err = storage.Serve("127.0.0.1:0", storage.NewMemStore()); err != nil {
		return nil, err
	}
	if f.cli, err = storage.Dial(f.srv.Addr()); err != nil {
		f.srv.Close()
		return nil, err
	}
	var inner storage.Store = f.cli
	if tr != nil {
		f.stats = &storeStats{}
		inner = &timedStore{inner: f.cli, stats: f.stats, tr: tr,
			owner: func(string) (string, int) { return opID, f.root }}
	}
	f.metered = storage.NewMetered(inner)
	f.plugin, err = offload.NewCloudPlugin(regionConfig(f.metered))
	if err == nil {
		f.rt, err = omp.NewRuntime(runtime.GOMAXPROCS(0))
	}
	if err != nil {
		f.close()
		return nil, err
	}
	f.dev = f.rt.RegisterDevice(f.plugin)
	return f, nil
}

func (f *fixture) close() {
	if f.plugin != nil {
		f.plugin.Close()
	}
	f.cli.Close()
	f.srv.Close()
}

// runRegionOp executes one op of a region workload on its own fixture and
// times only the op itself, entry to return. With a tracer the op gets a
// span tree.
func runRegionOp(p *prepared, tr *tracer, opID string) (*regionOp, error) {
	f, err := newFixture(tr, opID)
	if err != nil {
		return nil, err
	}
	defer f.close()
	for _, b := range p.outputs() {
		clear(b) // a stale correct result must not pass for this op's
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	f.root = tr.begin("op", "op", opID, noParent)
	p.current.Store(&opRef{op: opID, parent: f.root})
	start := time.Now()
	rep, err := p.run(f.rt, f.dev)
	wall := time.Since(start)
	tr.end(f.root)
	p.current.Store(nil)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}

	snap := f.metered.Snapshot()
	op := &regionOp{
		sample:     opSample{wallS: wall.Seconds(), virtualS: rep.Effective().Seconds()},
		cpuS:       cpu1 - cpu0,
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPauseNS:  m1.PauseTotalNs - m0.PauseTotalNs,
		storeBytes: float64(snap.BytesIn + snap.BytesOut),
		report:     rep,
		stats:      f.stats,
	}
	if tr != nil {
		op.selfS = tr.selfTime(f.root).Seconds()
	}
	return op, nil
}

// regionBlock is a set-up and the timed ops that follow it back to back.
type regionBlock struct {
	block
	prepared *prepared
	verified [][]byte // the outputs every op must reproduce byte for byte
}

// startRegionBlock does a block's set-up and, for the first block of a
// process, the warm-up. Set-up time is what every block repeats: input
// generation and the first fixture (store start, client, plugin build,
// runtime) — so work a later change moves out of the op and into either
// shows in setup_s. The serial reference is not in it: it is benchmark work,
// computed once per run by the first block (verified == nil) and handed to
// the later ones, whose inputs are the same (re-running the serial GEMM per
// block cost a third of the run). The warm-up ops are neither set-up nor
// timed: they fill pools and caches and grow the heap to its working size.
// Only the first block needs them; a later block's first op follows the
// previous block's last within a set-up's time, which is too short for the
// scavenger to take the heap back.
func startRegionBlock(name string, sz sizes, seed int64, tr *tracer, bufs *streamBufs, verified [][]byte) (*regionBlock, error) {
	rb := &regionBlock{verified: verified}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		p, err := prepareRegion(name, sz, seed, tr, bufs)
		if err != nil {
			return nil, err
		}
		f, err := newFixture(nil, "setup")
		if err != nil {
			return nil, err
		}
		f.close()
		rb.setups = append(rb.setups, time.Since(t0).Seconds())
		rb.prepared = p
	}
	p := rb.prepared
	if verified != nil {
		return rb, nil
	}

	for w := 0; w < p.warmOps; w++ {
		op, err := runRegionOp(p, nil, "warmup")
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up op: %w", name, err)
		}
		if op.report.FellBack {
			return nil, fmt.Errorf("%s: warm-up op fell back to the host: %s", name, op.report.FallbackReason)
		}
		if w == 0 {
			// Check the first op of the process against the serial
			// reference; every later op is compared byte for byte
			// with what was verified here.
			if rb.verified, err = p.verify(); err != nil {
				return nil, fmt.Errorf("%s: warm-up op: %w", name, err)
			}
		} else if i := rb.mismatch(); i >= 0 {
			return nil, fmt.Errorf("%s: warm-up op: output %d differs from the verified reference", name, i)
		}
	}
	return rb, nil
}

// mismatch returns the index of the first live output that differs from the
// verified bytes, or -1.
func (rb *regionBlock) mismatch() int {
	for i, b := range rb.prepared.outputs() {
		if !bytes.Equal(b, rb.verified[i]) {
			return i
		}
	}
	return -1
}

// timedOp runs one op between two host probes, checks it and books it.
func (rb *regionBlock) timedOp(tr *tracer, opID string) *regionOp {
	rb.attempted++
	before := host.run()
	op, err := runRegionOp(rb.prepared, tr, opID)
	after := host.run()
	if err != nil {
		rb.fail("%s: %v", opID, err)
		return nil
	}
	rb.ops = append(rb.ops, op.sample)
	rb.probes = append(rb.probes, before, after)
	if verbose {
		fmt.Fprintf(os.Stderr, "t=%.2f s: %s wall %.4f s, cpu %.4f s, probes %.4f %.4f s\n", time.Since(processStart).Seconds(), opID, op.sample.wallS, op.cpuS, before, after)
	}
	rb.windowS += op.sample.wallS
	rb.cpuS += op.cpuS
	rb.allocBytes += op.allocBytes
	rb.storeBytes += op.storeBytes
	if op.report.FellBack {
		rb.fail("%s: fell back to the host: %s", opID, op.report.FallbackReason)
	}
	if i := rb.mismatch(); i >= 0 {
		rb.fail("%s: output %d differs from the verified reference", opID, i)
	}
	return op
}

// measureRegion is the untraced run of a region workload.
func measureRegion(name string, sz sizes, seed int64, seconds float64) ([]block, error) {
	var blocks []block
	var bufs streamBufs
	var verified [][]byte
	for b := 0; b < blocksPerRun; b++ {
		rb, err := startRegionBlock(name, sz, seed, nil, &bufs, verified)
		if err != nil {
			return nil, err
		}
		verified = rb.verified
		budget := time.Duration(seconds / blocksPerRun * float64(time.Second))
		minOps := (minTimedOps + blocksPerRun - 1) / blocksPerRun
		for start := time.Now(); len(rb.ops) < minOps || time.Since(start) < budget; {
			rb.timedOp(nil, fmt.Sprintf("b%d.op%d", b, rb.attempted))
			if rb.failed > 0 && rb.failed == rb.attempted && rb.attempted >= minOps {
				break // nothing works; do not spin for the whole budget
			}
		}
		blocks = append(blocks, rb.block)
	}
	return blocks, nil
}

// --- aggregation ---------------------------------------------------------

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of v (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// hostScale is the factor that scales a run's wall-clock seconds to the
// reference host speed: probeRefS over the median of the run's probes, which
// are spread evenly over the run, two to an op.
func hostScale(probes []float64) float64 {
	if len(probes) == 0 {
		return 1
	}
	return probeRefS / median(probes)
}

// endToEndMetrics pools the blocks of one run into the end-to-end metrics.
// samples is the number of timed ops every timing rests on. The four
// wall-clock metrics are scaled to the reference host speed (host.go); the
// scale goes to standard error beside them.
func endToEndMetrics(blocks []block) (m map[string]float64, samples int, ops tally, scale float64) {
	var walls, virts, setups, probes []float64
	var window, cpu, alloc, store float64
	for _, b := range blocks {
		setups = append(setups, b.setups...)
		probes = append(probes, b.probes...)
		for _, s := range b.ops {
			walls = append(walls, s.wallS)
			virts = append(virts, s.virtualS)
		}
		window += b.windowS
		cpu += b.cpuS
		alloc += b.allocBytes
		store += b.storeBytes
		ops.add(b.tally)
	}
	n := float64(len(walls))
	scale = hostScale(probes)
	m = map[string]float64{
		"setup_s":            median(setups) * scale,
		"op_wall_s":          median(walls) * scale,
		"jobs_per_s":         n / (window * scale),
		"op_virtual_s":       median(virts),
		"cpu_s_per_op":       cpu / n * scale,
		"alloc_mib_per_op":   alloc / n / (1 << 20),
		"store_bytes_per_op": store / n,
	}
	return m, len(walls), ops, scale
}
