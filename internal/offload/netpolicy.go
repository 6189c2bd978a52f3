package offload

// Network transfer policies for the cloud device: adaptive per-leg attempt
// deadlines derived from the observed chunk-latency distribution, hedged
// reads, and the degraded-mode ladder that re-plans transfers when the
// link's observed bandwidth collapses below its provisioned rate. The
// mechanisms live in chunkio and storage; this file decides when and how
// hard to engage them.

import (
	"context"
	"sync/atomic"
	"time"

	"ompcloud/internal/chunkio"
	"ompcloud/internal/netsim"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
)

// Defaults of the adaptive-deadline and hedging policies.
const (
	// DefaultDeadlineFloor keeps derived deadlines from collapsing below
	// plausible per-op latency when the histogram reflects a fast store.
	DefaultDeadlineFloor = 50 * time.Millisecond
	// DefaultDeadlineCap bounds a deadline when the latency history is
	// thin or heavy-tailed: generous, but no longer "forever".
	DefaultDeadlineCap = 2 * time.Second
	// DefaultHedgeQuantile is the observed GET latency quantile past which
	// a backup read launches.
	DefaultHedgeQuantile = 0.9
	// minLatencySamples is how many observations a histogram needs before
	// the derived deadline/hedge values are trusted: below it, deadlines
	// fall back to the cap and hedging stays off.
	minLatencySamples = 8
)

// degradedEnterFrac and degradedExitFrac are the hysteresis thresholds of
// the degraded-mode latch, as fractions of the provisioned WAN rate: enter
// when the observed rate drops below half, leave only after it recovers past
// 0.8 — a link hovering at the boundary must not flap the transfer plan
// every leg.
const (
	degradedEnterFrac = 0.5
	degradedExitFrac  = 0.8
)

// degradedMinChunk floors the shrunken degraded-mode chunk size.
const degradedMinChunk = 64 << 10

// runStats aggregates one plan's resilience accounting across its storage
// legs, plus the cancellation context the transfer engine threads through
// its retry units.
type runStats struct {
	ctx      context.Context
	retries  atomic.Int64
	xfer     chunkio.TransferStats
	degraded atomic.Int64 // degraded-mode transitions during this run
	// partBase snapshots the store's partition accounting at run start so
	// the report carries only this run's share.
	partBase float64
}

// newRunStats builds the per-run accounting with a cancellable context;
// the returned cancel must run when the plan ends so abandoned transfer
// attempts stop promptly.
func (p *CloudPlugin) newRunStats() (*runStats, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	rs := &runStats{ctx: ctx}
	if pa, ok := p.cfg.Store.(storage.PartitionAccountant); ok {
		rs.partBase = pa.PartitionSeconds()
	}
	return rs, cancel
}

// legDeadlines derives the per-attempt PUT/GET deadlines from the observed
// chunk-latency histograms: p99 × DeadlineMult, clamped to [floor, cap].
// Too-thin histories fall back to the cap — an attempt is always bounded
// once deadlines are on, just loosely until evidence accumulates. Zero
// DeadlineMult disables the guard entirely.
func (p *CloudPlugin) legDeadlines() (put, get time.Duration) {
	if p.cfg.DeadlineMult <= 0 {
		return 0, 0
	}
	floor := p.cfg.DeadlineFloor
	if floor <= 0 {
		floor = DefaultDeadlineFloor
	}
	ceil := p.cfg.DeadlineCap
	if ceil <= 0 {
		ceil = DefaultDeadlineCap
	}
	derive := func(hist string) time.Duration {
		// A named device reads its own latency history: two links with
		// different RTTs must not contaminate each other's deadlines.
		h := span.Metrics().Histogram(span.DevKey(hist, p.cfg.DeviceName))
		if h.Count() < minLatencySamples {
			return ceil
		}
		d := time.Duration(h.Quantile(0.99) * p.cfg.DeadlineMult * float64(time.Second))
		if d < floor {
			d = floor
		}
		if d > ceil {
			d = ceil
		}
		return d
	}
	return derive("chunkio.put.seconds"), derive("chunkio.get.seconds")
}

// hedgeDelay derives the backup-read launch delay: the observed GET latency
// at HedgeQuantile. 0 (hedging idle) until enough samples exist — hedging
// against an unknown distribution just doubles load.
func (p *CloudPlugin) hedgeDelay() time.Duration {
	if !p.cfg.Hedge {
		return 0
	}
	q := p.cfg.HedgeQuantile
	if q <= 0 || q >= 1 {
		q = DefaultHedgeQuantile
	}
	h := span.Metrics().Histogram(span.DevKey("chunkio.get.seconds", p.cfg.DeviceName))
	if h.Count() < minLatencySamples {
		return 0
	}
	d := time.Duration(h.Quantile(q) * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond // below this a hedge is just a duplicate GET
	}
	ceil := p.cfg.DeadlineCap
	if ceil <= 0 {
		ceil = DefaultDeadlineCap
	}
	if d > ceil {
		d = ceil
	}
	return d
}

// observedWireBPS reports the store's observed effective rate — the slower
// of the two directions that have a signal — or 0 when the store cannot
// measure itself or has not seen enough transfers.
func (p *CloudPlugin) observedWireBPS() float64 {
	bo, ok := p.cfg.Store.(storage.BandwidthObserver)
	if !ok {
		return 0
	}
	up, down := bo.ObservedBPS()
	obs := up
	if down > 0 && (obs == 0 || down < obs) {
		obs = down
	}
	return obs
}

// updateDegraded samples the observed bandwidth and flips the degraded-mode
// latch with hysteresis, counting transitions into rs and the metrics. It
// returns the observed rate (0 when unknown). Called once per leg when the
// transfer options are assembled — often enough to catch a mid-run
// collapse, rare enough to stay off the per-chunk fast path.
func (p *CloudPlugin) updateDegraded(rs *runStats) float64 {
	if !p.cfg.AdaptDegraded {
		return 0
	}
	obs := p.observedWireBPS()
	if obs <= 0 {
		return 0
	}
	span.Metrics().Gauge(span.DevKey("net.link.observed_bps", p.cfg.DeviceName)).Set(int64(obs))
	conf := p.cfg.Profile.WAN.BitsPerSs / 8
	if conf <= 0 {
		return obs
	}
	was := p.degraded.Load()
	var now bool
	if was {
		now = obs < degradedExitFrac*conf
	} else {
		now = obs < degradedEnterFrac*conf
	}
	if now != was && p.degraded.CompareAndSwap(was, now) {
		rs.degraded.Add(1)
		span.Metrics().Counter("offload.degraded.switches").Inc()
		state := "degraded"
		if !now {
			state = "recovered"
		}
		span.Event("net.degraded", "net", span.Attr{Key: "state", Val: state})
		p.logf("offload: link %s: observed %.0f B/s vs provisioned %.0f B/s", state, obs, conf)
	}
	return obs
}

// degradedChunkBytes shrinks the configured chunk size for degraded mode:
// a quarter of the healthy size, floored, never grown. Smaller chunks bound
// how much one stalled or refused attempt throws away on a bad link and
// give the retry/hedge machinery finer re-route granularity. The sequential
// policy (negative) has no chunks to shrink.
func degradedChunkBytes(configured int) int {
	if configured < 0 {
		return configured
	}
	cs := configured
	if cs == 0 {
		cs = chunkio.DefaultChunkSize
	}
	ds := cs / 4
	if ds < degradedMinChunk {
		ds = degradedMinChunk
	}
	if ds > cs {
		ds = cs
	}
	return ds
}

// accountProfile is the network profile the virtual-time model charges.
// Under degraded mode the provisioned WAN rate is a fiction — transfers
// actually sustained the observed rate, so the model bills that instead
// (never more than provisioned: a hot cache can make the meter read fast).
func (p *CloudPlugin) accountProfile() netsim.Profile {
	prof := p.cfg.Profile
	if p.cfg.AdaptDegraded && p.degraded.Load() {
		if bps := p.observedWireBPS() * 8; bps > 0 && bps < prof.WAN.BitsPerSs {
			prof.WAN.BitsPerSs = bps
		}
	}
	return prof
}

// applyNetCounters copies one run's transfer-guard accounting into the
// report.
func (p *CloudPlugin) applyNetCounters(rep *trace.Report, rs *runStats) {
	rep.StorageRetries = int(rs.retries.Load())
	rep.DeadlineAborts = int(rs.xfer.DeadlineAborts.Load())
	rep.HedgedGets = int(rs.xfer.HedgedGets.Load())
	rep.HedgeWins = int(rs.xfer.HedgeWins.Load())
	rep.DegradedSwitches = int(rs.degraded.Load())
	if pa, ok := p.cfg.Store.(storage.PartitionAccountant); ok {
		if d := pa.PartitionSeconds() - rs.partBase; d > 0 {
			rep.PartitionSeconds = d
		}
	}
}
