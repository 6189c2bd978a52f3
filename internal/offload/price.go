package offload

import (
	"fmt"
	"time"

	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/trace"
	"ompcloud/internal/xcompress"
)

// Pricing is what the pricing device prices with: calibrated rates standing
// in for what the cloud device's legs measure, and the switches only a model
// can flip.
type Pricing struct {
	// IterOps reports a loop body's operation units per iteration, and
	// Throughput how many of them one core runs per second.
	IterOps    func(kernel string, scalars []int64) (float64, error)
	Throughput float64
	// Probe is the data's wire ratio and codec rates as the codec ships the
	// data (xcompress.Probe.Effective); a disabled codec ships raw.
	Probe xcompress.Probe
	// HostParallel is the host's codec width: the cores the chunked pipeline
	// spreads the host's compression over.
	HostParallel int
	// WarmCache prices a repeat offload whose inputs are already in cloud
	// storage; StarBroadcast has the driver send every worker its own copy
	// instead of the BitTorrent broadcast.
	WarmCache, StarBroadcast bool
	// Loop, when set, sees a copy of each loop before it is priced and may
	// change it: the ablations price a program the runtime lowers otherwise.
	Loop func(*Region)
}

// PricingDevice is model mode's cloud device. Paper-scale inputs cannot run
// on one machine, so it executes nothing: over size-only buffers it builds
// the plans the cloud device builds — standalone regions, and the open, loops
// and close of target data environments (planEnv) — fills the figures the
// cloud device's legs would have measured from calibrated rates, and charges
// each plan through the same cost builder. It takes the cloud device's
// configuration, so RunOnDriver's LAN-for-WAN, ChunkBytes < 0's sequential
// transfers and a disabled codec's raw wire are the cloud device's own rules.
type PricingDevice struct {
	cfg CloudConfig
	m   Pricing
}

// NewPricingDevice builds the pricing device of the cloud device cfg
// describes; an empty DeviceName names it by topology.
func NewPricingDevice(cfg CloudConfig, m Pricing) (*PricingDevice, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if m.Throughput <= 0 || (cfg.pipelined() && m.HostParallel < 1) {
		return nil, fmt.Errorf("offload: pricing needs a compute throughput and, for the chunked pipeline, the host's codec width")
	}
	if cfg.DeviceName == "" {
		cfg.DeviceName = fmt.Sprintf("model-%dx%d", cfg.Spec.Workers, cfg.Spec.CoresPerWorker)
	}
	if !cfg.Codec.Enabled() {
		m.Probe = xcompress.Probe{Ratio: 1}
	}
	return &PricingDevice{cfg: cfg, m: m}, nil
}

func (d *PricingDevice) Name() string    { return d.cfg.DeviceName }
func (d *PricingDevice) Available() bool { return true }
func (d *PricingDevice) Cores() int      { return d.cfg.Spec.TotalCores() }

// Run implements Plugin.
func (d *PricingDevice) Run(r *Region) (*trace.Report, error) {
	return d.price(regionPlan(r, "", false))
}

// OpenEnv implements EnvPlugin.
func (d *PricingDevice) OpenEnv(bufs []EnvBuffer) (Env, *trace.Report, error) {
	return openPlanEnv(bufs, "", d.price)
}

// price fills the plan's figures from the rates and charges it the way the
// cloud device charges a barriered plan. Tile i computes its hi-lo iterations
// at Throughput; the probe gives every bound every figure, of which cost
// reads a shipped bound's wire sizes and codec times (the driver's decode of
// each fetched input and encode of each shipped output, the host's share of
// the rest) and a resident bound's ratio.
func (d *PricingDevice) price(pl *plan) (*trace.Report, error) {
	if r := pl.region; r != nil && d.m.Loop != nil {
		local := *r
		local.Ins = append([]Buffer(nil), r.Ins...)
		local.Outs = append([]Buffer(nil), r.Outs...)
		d.m.Loop(&local)
		pl.region = &local
	}
	rep := trace.NewReport(d.Name(), pl.kernel)
	if r := pl.region; r != nil {
		if pl.tiles = r.TileCount(d.Cores()); pl.tiles == 0 {
			return rep, nil
		}
		ops, err := d.m.IterOps(r.Kernel, r.Scalars)
		if err != nil {
			return nil, err
		}
		pl.tasks = make([]spark.TaskMetrics, pl.tiles)
		for i := range pl.tasks {
			lo, hi := TileRange(r.N, pl.tiles, i)
			t := simtime.FromSeconds(float64(hi-lo) * ops / d.m.Throughput)
			pl.tasks[i] = spark.TaskMetrics{Partition: i, Attempts: 1, Compute: t, Effective: t}
			for l := range r.Outs {
				pl.tileRaw += r.Outs[l].window(lo, hi)
			}
		}
	}
	p := d.m.Probe
	for k := range pl.ins {
		b := &pl.ins[k]
		b.ratio, b.wire = p.Ratio, p.CompressedSize(b.len())
		b.decode = p.DecompressTime(b.len()).Real()
		if b.cached = d.m.WarmCache; !b.cached {
			b.sent, b.encode = b.wire, d.hostCodec(pl.ins, b, p.CompressTime)
		}
	}
	for l := range pl.outs {
		b := &pl.outs[l]
		b.ratio, b.wire = p.Ratio, p.CompressedSize(b.len())
		b.encode = p.CompressTime(b.len()).Real()
		b.decode = d.hostCodec(pl.outs, b, p.DecompressTime)
	}
	var adjust func(*costInputs)
	if d.m.StarBroadcast {
		adjust = d.starBroadcast
	}
	if err := pl.charge(rep, &d.cfg, d.cfg.Spec, d.cfg.Profile, adjust); err != nil {
		return nil, err
	}
	return rep, nil
}

// hostCodec is the host's codec time charged to bound b of leg bs: one codec
// thread per buffer under the sequential policy (§III.A). The chunked
// pipeline's buffers share one codec pool, so each is charged the whole leg's
// work over the host's codec width, and the builder's per-buffer max is the
// leg's time.
func (d *PricingDevice) hostCodec(bs []bound, b *bound, codec func(int64) simtime.Duration) time.Duration {
	if !d.cfg.pipelined() {
		return codec(b.len()).Real()
	}
	var total int64
	for k := range bs {
		total += bs[k].len()
	}
	return simtime.FromSeconds(codec(total).Seconds() / float64(d.m.HostParallel)).Real()
}

// starBroadcast charges W serial copies instead of log2(W+1) rounds, as the
// extra broadcast volume that costs the difference.
func (d *PricingDevice) starBroadcast(ci *costInputs) {
	if ci.BroadcastWire == 0 {
		return
	}
	lan := d.cfg.Profile.LAN
	star := lan.BroadcastStar(ci.BroadcastWire, ci.Workers)
	bt := lan.Broadcast(ci.BroadcastWire, ci.Workers)
	if extra := star - bt; extra > 0 {
		ci.BroadcastWire += int64(float64(ci.BroadcastWire) * (float64(extra) / float64(bt+1)))
	}
}
