package perf

import (
	"fmt"

	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/netsim"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/simtime"
	"ompcloud/internal/trace"
	"ompcloud/internal/xcompress"
)

// Program is what a benchmark's program lowers to at one dimension: its
// parallel loops in program order, over size-only buffers, and the raw bytes
// it maps across the host-target link.
type Program struct {
	Loops   []*offload.Region
	In, Out int64
}

// Lower runs benchmark b's program at dimension n on size-only buffers and
// reports what it lowered to, pricing nothing.
func Lower(b *kernels.Benchmark, n int) (*Program, error) {
	d := &device{name: "lower", cores: 1}
	if _, err := d.run(b, n); err != nil {
		return nil, err
	}
	return &d.prog, nil
}

// device is model mode's cloud device: an offload.Plugin and EnvPlugin that
// executes nothing. A benchmark's program prepared with data.SizeOnly hands
// it the regions and target data environments it lowers to, and the device
// charges each the way the cloud device's plan engine charges what it
// measured, with one offload.Account call: a standalone region ships every
// buffer, an environment uploads when it opens and downloads when it closes,
// and a loop inside it runs on driver-resident buffers with no WAN leg. A
// device with no throughput only records the program.
type device struct {
	name    string
	cores   int
	s       Scenario
	thr     float64         // the benchmark's Ops units per second on one core
	probe   xcompress.Probe // wire ratio and codec rates of the data kind
	hostPar int             // host codec width
	profile netsim.Profile
	prog    Program
}

func (d *device) run(b *kernels.Benchmark, n int) (*trace.Report, error) {
	rt, err := omp.NewRuntime(1)
	if err != nil {
		return nil, err
	}
	return b.Prepare(n, data.SizeOnly, 0).Run(rt, rt.RegisterDevice(d))
}

func (d *device) Name() string    { return d.name }
func (d *device) Available() bool { return true }
func (d *device) Cores() int      { return d.cores }

// Run implements offload.Plugin: a standalone region ships every buffer.
func (d *device) Run(r *offload.Region) (*trace.Report, error) {
	d.prog.Loops = append(d.prog.Loops, r)
	d.prog.In += r.InBytesRaw()
	d.prog.Out += r.OutBytesRaw()
	return d.charge(r.Kernel, r, lens(r.Ins), lens(r.Outs))
}

// OpenEnv implements offload.EnvPlugin: the map(to:) and map(tofrom:)
// buffers upload once for the whole environment.
func (d *device) OpenEnv(bufs []offload.EnvBuffer) (offload.Env, *trace.Report, error) {
	e := &env{d: d}
	var up []int64
	for i := range bufs {
		if bufs[i].Upload {
			up = append(up, bufs[i].Len())
			d.prog.In += bufs[i].Len()
		}
		if bufs[i].Download {
			e.down = append(e.down, bufs[i].Len())
			d.prog.Out += bufs[i].Len()
		}
	}
	rep, err := d.charge("target-data-open", nil, up, nil)
	return e, rep, err
}

// env is an environment open on the model device.
type env struct {
	d    *device
	down []int64 // what its close downloads
}

func (e *env) Run(r *offload.Region) (*trace.Report, error) {
	e.d.prog.Loops = append(e.d.prog.Loops, r)
	return e.d.charge(r.Kernel, r, nil, nil)
}

func (e *env) Buffer(name string) ([]byte, error) {
	return nil, fmt.Errorf("perf: the model device holds no bytes of %q", name)
}

func (e *env) Close() (*trace.Report, error) {
	return e.d.charge("target-data-close", nil, nil, e.down)
}

func lens(bufs []offload.Buffer) []int64 {
	out := make([]int64, len(bufs))
	for i := range bufs {
		out[i] = bufs[i].Len()
	}
	return out
}

// charge prices what one entry point has — a loop r, buffers uploaded,
// buffers downloaded.
func (d *device) charge(kernel string, r *offload.Region, up, down []int64) (*trace.Report, error) {
	rep := trace.NewReport(d.name, kernel)
	if d.thr == 0 {
		return rep, nil
	}
	ci := offload.CostInputs{
		Workers:            d.s.Workers,
		Cores:              d.cores,
		Costs:              d.s.Costs,
		PipelinedTransfers: !d.s.SequentialTransfer,
	}
	if r != nil {
		if err := d.loop(&ci, r); err != nil {
			return nil, err
		}
	}
	// The driver fetches and decodes every input, cached or not; a warm
	// cache only takes the WAN leg and the host's compression away.
	ci.FetchWireSizes, ci.HostCompress = d.leg(up, d.probe.CompressTime)
	ci.InWireSizes = ci.FetchWireSizes
	for _, sz := range up {
		ci.DriverDecompress = max(ci.DriverDecompress, d.probe.DecompressTime(sz))
	}
	if d.s.WarmCache {
		ci.InWireSizes, ci.HostCompress = nil, 0
	}
	ci.OutWireSizes, ci.HostDecompress = d.leg(down, d.probe.DecompressTime)
	return rep, offload.Account(d.profile, ci, rep)
}

// leg prices one host-target leg: each buffer's wire size, and the host's
// codec time — the slowest buffer's with one codec thread per buffer
// (§III.A), or all of it spread over the host's codec width when the chunked
// pipeline runs. Driver-side decode stays the per-buffer max either way, a
// deliberate conservative simplification: the driver's cores belong to the
// Spark job, not the transfer engine.
func (d *device) leg(sizes []int64, codec func(int64) simtime.Duration) ([]int64, simtime.Duration) {
	wire := make([]int64, len(sizes))
	var total int64
	var host simtime.Duration
	for i, sz := range sizes {
		wire[i] = d.probe.CompressedSize(sz)
		total += sz
		host = max(host, codec(sz))
	}
	if !d.s.SequentialTransfer {
		host = simtime.FromSeconds(codec(total).Seconds() / float64(d.hostPar))
	}
	return wire, host
}

// loop prices one parallel loop: Algorithm 1's tiles, each computing an equal
// share of the loop's operations and crossing the JNI boundary with its
// broadcast inputs, its reduced outputs and its window of the partitioned
// ones; partitioned inputs scattered and the rest broadcast; partitioned
// outputs collected once and reduced ones once per tile.
func (d *device) loop(ci *offload.CostInputs, r *offload.Region) error {
	ops, err := kernels.IterOps(r.Kernel, r.Scalars)
	if err != nil {
		return err
	}
	width := d.cores
	if d.s.DisableTiling {
		width = int(r.N) // one task per iteration
	}
	tiles := r.TileCount(width)
	partIn, bcastIn := SplitBytes(r.Ins)
	partOut, fullOut := SplitBytes(r.Outs)
	taskBytes := bcastIn + fullOut
	if tiles > 0 {
		taskBytes += (partIn + partOut) / int64(tiles)
	}
	task := simtime.FromSeconds(float64(r.N)*ops/float64(tiles)/d.thr) + d.s.JNI.PerCall(taskBytes)
	durs := make([]simtime.Duration, tiles)
	for i := range durs {
		durs[i] = task
	}
	ci.TaskCompute, ci.TaskEffective = durs, durs
	ci.DistributeWire = d.probe.CompressedSize(partIn)
	ci.BroadcastWire = d.probe.CompressedSize(bcastIn)
	ci.CollectWire = d.probe.CompressedSize(partOut) + int64(tiles)*d.probe.CompressedSize(fullOut)
	ci.ReconstructRaw = partOut + int64(tiles)*fullOut
	if d.s.StarBroadcast && ci.BroadcastWire > 0 {
		// W serial copies instead of log2(W+1) rounds, charged as the
		// extra broadcast volume that costs the difference.
		star := d.profile.LAN.BroadcastStar(ci.BroadcastWire, d.s.Workers)
		bt := d.profile.LAN.Broadcast(ci.BroadcastWire, d.s.Workers)
		if extra := star - bt; extra > 0 {
			ci.BroadcastWire += int64(float64(ci.BroadcastWire) * (float64(extra) / float64(bt+1)))
		}
	}
	return nil
}

// SplitBytes sums the lengths of the partitioned buffers and of the whole
// ones: what a loop scatters and what it broadcasts, or collects once and
// once per tile.
func SplitBytes(bufs []offload.Buffer) (part, whole int64) {
	for i := range bufs {
		if bufs[i].Partitioned() {
			part += bufs[i].Len()
		} else {
			whole += bufs[i].Len()
		}
	}
	return part, whole
}
