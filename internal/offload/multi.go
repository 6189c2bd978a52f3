package offload

// MultiDevice generalizes offloading from one device to a device set: a
// single target region fans out over the host and N cloud clusters at once.
// A splitter assigns each member a contiguous iteration range via the
// weighted form of the paper's Eq. 3 (WeightedShares), each member runs its
// slice through its own existing dataflow — barriered or streaming —
// concurrently with the others, and a merger stitches the per-member
// outputs (and reduction tails) back into the user's buffers with
// bit-identical results. Weights are seeded from provisioned core counts
// and WAN rates; after a run, each member's observed iteration rate is
// published through the metrics registry, so a second run of the same
// kernel rebalances toward the measured throughput — a 10x-slower device
// keeps only the share it can actually retire.

import (
	"fmt"
	"strings"
	"sync"

	"ompcloud/internal/arena"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
)

// seedIterBytesPerS is the nominal per-core processing rate (bytes of
// partitioned data per second) behind the pre-measurement weight seed: it
// makes provisioned compute (cores) and provisioned transfer (WAN bits/s)
// commensurable before any observation exists. The first run of a kernel
// replaces it with measured rates, so only the very first split leans on it.
const seedIterBytesPerS = 1e8

// splitRateMetric is the per-kernel, per-device gauge family carrying each
// member's observed iteration rate in milli-iterations per second — the
// registry-mediated feedback from one run's measured tile-compute and
// transfer behaviour to the next run's split.
const splitRateMetric = "offload.split.iters_per_milli."

// MultiDeviceConfig assembles a device set.
type MultiDeviceConfig struct {
	// Members are the devices sharing each region: typically one
	// *HostPlugin and one or more named *CloudPlugins. At least one.
	Members []Plugin
	// Weights, when non-empty, fixes the static split weights (one per
	// member, all > 0), disabling throughput-based rebalancing.
	Weights []float64
	// NoRebalance pins every run to the seeded weights (benchmarks
	// isolating the first-run split). Default off: observed rates win once
	// every member has one.
	NoRebalance bool
	// Log receives split decisions and degradation events.
	Log spark.Logf
}

// MultiDevice is the device-set plugin.
type MultiDevice struct {
	cfg MultiDeviceConfig
	// absorber re-runs the slice of a member that fails mid-flight with a
	// transient error, so one tripped device degrades the split instead of
	// failing the region: the first *HostPlugin member, else a fresh
	// 16-thread host device.
	absorber *HostPlugin
	name     string

	mu         sync.Mutex
	lastShares []int64
}

// NewMultiDevice validates and builds the device set.
func NewMultiDevice(cfg MultiDeviceConfig) (*MultiDevice, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("offload: multi-device set needs at least one member")
	}
	names := make([]string, len(cfg.Members))
	seen := make(map[string]bool, len(cfg.Members))
	for i, m := range cfg.Members {
		if m == nil {
			return nil, fmt.Errorf("offload: multi-device member %d is nil", i)
		}
		names[i] = m.Name()
		if seen[names[i]] {
			// Metric keys and storage scopes hang off the name; two
			// members sharing one would contaminate each other's rates.
			return nil, fmt.Errorf("offload: duplicate multi-device member name %q", names[i])
		}
		seen[names[i]] = true
	}
	if len(cfg.Weights) > 0 {
		if len(cfg.Weights) != len(cfg.Members) {
			return nil, fmt.Errorf("offload: %d static weights for %d members", len(cfg.Weights), len(cfg.Members))
		}
		for i, w := range cfg.Weights {
			if w <= 0 {
				// A zero static weight is a member that can never run —
				// a configuration mistake, not a request.
				return nil, fmt.Errorf("offload: member %q: static weight must be positive, got %v", names[i], w)
			}
		}
	}
	md := &MultiDevice{cfg: cfg, name: "multi(" + strings.Join(names, "+") + ")"}
	for _, m := range cfg.Members {
		if h, ok := m.(*HostPlugin); ok {
			md.absorber = h
			break
		}
	}
	if md.absorber == nil {
		h, err := NewHostPlugin(16)
		if err != nil {
			return nil, err
		}
		md.absorber = h
	}
	return md, nil
}

// Name implements Plugin.
func (m *MultiDevice) Name() string { return m.name }

// Available implements Plugin: the set accepts regions as long as any
// member does, and the absorber host always does.
func (m *MultiDevice) Available() bool { return true }

// Cores implements Plugin: the aggregate parallel width.
func (m *MultiDevice) Cores() int {
	total := 0
	for _, mem := range m.cfg.Members {
		total += mem.Cores()
	}
	return total
}

func (m *MultiDevice) logf(format string, args ...any) {
	if m.cfg.Log != nil {
		m.cfg.Log(format, args...)
	}
}

// partBytesPerIter sums the partitioned bytes one iteration owns across the
// region's buffers — the per-iteration WAN burden of the transfer term.
func partBytesPerIter(r *Region) int64 {
	var b int64
	for i := range r.Ins {
		b += r.Ins[i].BytesPerIter
	}
	for i := range r.Outs {
		b += r.Outs[i].BytesPerIter
	}
	return b
}

// seedWeight models a member's iteration rate from provisioned capacity
// alone: compute spread over its cores at the nominal per-core rate, plus
// its slice of the partitioned bytes crossing its WAN link. Members without
// a WAN leg (the host) carry no transfer term.
func seedWeight(mem Plugin, iterBytes int64) float64 {
	cores := mem.Cores()
	if cores < 1 {
		cores = 1
	}
	if iterBytes <= 0 {
		// No partitioned data: only compute distinguishes the members.
		return float64(cores)
	}
	var wanBPS float64
	if cp, ok := mem.(*CloudPlugin); ok {
		wanBPS = cp.cfg.Profile.WAN.BitsPerSs / 8
	}
	secs := float64(iterBytes) / (seedIterBytesPerS * float64(cores))
	if wanBPS > 0 {
		secs += float64(iterBytes) / wanBPS
	}
	return 1 / secs
}

// weightsFor decides the split weights of one region: static config wins,
// then — with Rebalance — the full set of observed per-kernel rates from
// the metrics registry, then the provisioned seed. Mixing observed and
// seeded weights would compare incommensurable units, so observed rates
// only engage once every member has one.
func (m *MultiDevice) weightsFor(r *Region) []float64 {
	if len(m.cfg.Weights) > 0 {
		return append([]float64(nil), m.cfg.Weights...)
	}
	if !m.cfg.NoRebalance {
		observed := make([]float64, len(m.cfg.Members))
		all := true
		for i, mem := range m.cfg.Members {
			v := span.Metrics().Gauge(span.DevKey(splitRateMetric+r.Kernel, mem.Name())).Value()
			if v <= 0 {
				all = false
				break
			}
			observed[i] = float64(v)
		}
		if all {
			return observed
		}
	}
	iterBytes := partBytesPerIter(r)
	weights := make([]float64, len(m.cfg.Members))
	for i, mem := range m.cfg.Members {
		weights[i] = seedWeight(mem, iterBytes)
	}
	return weights
}

// subRegion carves member i's slice [lo, hi) out of the parent region:
// partitioned inputs alias their window of the user buffer (read-only),
// broadcast inputs alias whole, and every output gets staging of its own so
// concurrent members never write one array and a failed member's partial
// output never leaks — the merger copies staging into user buffers only
// after the member (or its absorber re-run) succeeds. The staging is arena
// memory (internal/arena), dirty: a member that succeeds has written every
// byte of it, as any device writes its outputs whole, and Run gives it back
// once every member has finished.
type subRegion struct {
	reg   *Region
	lo    int64
	outs  [][]byte // staging, parallel to reg.Outs
	width int64
}

func carveSubRegion(r *Region, lo, hi int64, tiles int) subRegion {
	width := hi - lo
	sub := &Region{
		Kernel:   r.Kernel,
		Registry: r.Registry,
		N:        width,
		Base:     r.Base + lo,
		Scalars:  r.Scalars,
		Tiles:    tiles,
		Ins:      make([]Buffer, len(r.Ins)),
		Outs:     make([]Buffer, len(r.Outs)),
	}
	for k := range r.Ins {
		sub.Ins[k] = r.Ins[k]
		if r.Ins[k].Partitioned() {
			sub.Ins[k].Data = tileWindow(&r.Ins[k], lo, hi)
		}
	}
	staging := make([][]byte, len(r.Outs))
	for l := range r.Outs {
		sub.Outs[l] = r.Outs[l]
		if r.Outs[l].Partitioned() {
			staging[l] = arena.Get(int(width * r.Outs[l].BytesPerIter))
		} else {
			staging[l] = arena.Get(len(r.Outs[l].Data))
		}
		sub.Outs[l].Data = staging[l]
	}
	return subRegion{reg: sub, lo: lo, outs: staging, width: width}
}

// release gives the staging back to the arena.
func (s subRegion) release() {
	for _, b := range s.outs {
		arena.Put(b)
	}
}

// memberTiles apportions an explicit parent tile override across the
// members by share width; 0 (Algorithm 1) stays 0 so each member tiles its
// slice to its own core count.
func memberTiles(parentTiles int, width, total int64) int {
	if parentTiles <= 0 || total <= 0 || width <= 0 {
		return 0
	}
	t := int(int64(parentTiles) * width / total)
	if t < 1 {
		t = 1
	}
	return t
}

// Run implements Plugin: split, fan out, absorb failures, merge.
func (m *MultiDevice) Run(r *Region) (*trace.Report, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	weights := m.weightsFor(r)
	absorbedAll := false
	for i, mem := range m.cfg.Members {
		if !mem.Available() {
			m.logf("offload: multidev: member %s unavailable, share redistributed", mem.Name())
			weights[i] = 0
		}
	}
	ranges, err := ShareRanges(r.N, weights)
	if err != nil {
		// Every member refused (all weights zero): the whole region is the
		// host remainder.
		absorbedAll = true
		ranges = make([]ShareRange, len(m.cfg.Members))
	}
	m.recordShares(ranges)
	if absorbedAll || r.N == 0 {
		rep, err := m.absorber.Run(r)
		if err != nil {
			return nil, err
		}
		if absorbedAll {
			rep.FellBack = true
			rep.FallbackReason = "no multi-device member available"
		}
		return rep, nil
	}

	type result struct {
		rep      *trace.Report
		err      error
		absorbed bool
	}
	subs := make([]subRegion, len(ranges))
	// Every member has finished by the time Run returns (wg.Wait), merged or
	// failed.
	defer func() {
		for i := range subs {
			subs[i].release()
		}
	}()
	results := make([]result, len(ranges))
	var wg sync.WaitGroup
	for i, rg := range ranges {
		if rg.Width() == 0 {
			continue
		}
		subs[i] = carveSubRegion(r, rg.Lo, rg.Hi, memberTiles(r.Tiles, rg.Width(), r.N))
		wg.Add(1)
		go func(i int, mem Plugin) {
			defer wg.Done()
			rep, err := mem.Run(subs[i].reg)
			if err != nil && absorbable(mem, err) {
				// Degraded split: re-absorb this member's slice into the
				// host remainder instead of failing the region (unless the
				// member says fallback = fail). Staging is
				// rewritten in full by the host pass, so any partial output
				// of the failed attempt is erased.
				m.logf("offload: multidev: member %s failed (%v), re-absorbing %d iterations on %s",
					mem.Name(), err, subs[i].width, m.absorber.Name())
				span.Event("multidev.absorb", "offload",
					span.Attr{Key: "member", Val: mem.Name()},
					span.Attr{Key: "iters", Val: fmt.Sprint(subs[i].width)})
				rep, err = m.absorber.Run(subs[i].reg)
				results[i] = result{rep: rep, err: err, absorbed: true}
				return
			}
			results[i] = result{rep: rep, err: err}
		}(i, m.cfg.Members[i])
	}
	wg.Wait()

	var reps []*trace.Report
	var absorbedFrom []string
	for i := range results {
		if ranges[i].Width() == 0 {
			continue
		}
		res := results[i]
		if res.err != nil {
			return nil, fmt.Errorf("offload: multidev member %s: %w", m.cfg.Members[i].Name(), res.err)
		}
		reps = append(reps, res.rep)
		if res.absorbed {
			absorbedFrom = append(absorbedFrom, m.cfg.Members[i].Name())
		} else if !m.cfg.NoRebalance && len(m.cfg.Weights) == 0 {
			publishRate(r.Kernel, m.cfg.Members[i].Name(), ranges[i].Width(), res.rep.Effective())
		}
	}
	// The members ran concurrently: the region's end-to-end time is the
	// slowest member's effective duration, and everything else is overlap.
	out := trace.Merge(m.Name(), r.Kernel, trace.Parallel, reps...)
	if len(absorbedFrom) > 0 {
		out.FellBack = true
		out.FallbackReason = fmt.Sprintf("re-absorbed slice of %s on %s",
			strings.Join(absorbedFrom, "+"), m.absorber.Name())
	}

	if err := m.merge(r, ranges, subs); err != nil {
		return nil, err
	}
	return out, nil
}

// recordShares keeps the most recent split for observers (tests, benches).
func (m *MultiDevice) recordShares(ranges []ShareRange) {
	shares := make([]int64, len(ranges))
	for i, rg := range ranges {
		shares[i] = rg.Width()
	}
	m.mu.Lock()
	m.lastShares = shares
	m.mu.Unlock()
}

// LastShares reports the per-member iteration counts of the most recent
// split, in member order — how benches observe a rebalance between runs.
func (m *MultiDevice) LastShares() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int64(nil), m.lastShares...)
}

// publishRate records a member's observed iteration rate for the kernel in
// the metrics registry — the splitter's refinement input for the next run.
func publishRate(kernel, dev string, iters int64, eff simtime.Duration) {
	secs := eff.Seconds()
	if secs <= 0 || iters <= 0 {
		return
	}
	span.Metrics().Gauge(span.DevKey(splitRateMetric+kernel, dev)).
		Set(int64(float64(iters) / secs * 1000))
}

// InvalidateSplitRates clears every observed per-kernel split rate of one
// device from the metrics registry, returning how many it cleared. Rates
// are measured throughput of a *specific* cluster shape; after a scale
// event they describe a cluster that no longer exists, and the first
// rebalance would reshape the split around them — a device that doubled
// its workers would keep its old, half-sized share until a full re-measure
// cycle, and a shrunken one would be handed more than it can retire. A
// cleared rate fails weightsFor's all-members-observed check, so the next
// split falls back to the provisioned-capacity seed (which does see the
// new core count) and re-measures from there.
func InvalidateSplitRates(dev string) int {
	suffix := "{dev=" + dev + "}"
	n := 0
	span.Metrics().VisitGauges(func(name string, g *span.Gauge) {
		if strings.HasPrefix(name, splitRateMetric) &&
			strings.HasSuffix(name, suffix) && g.Value() != 0 {
			g.Set(0)
			n++
		}
	})
	return n
}

// merge reconstructs the user buffers from the members' staging: partitioned
// outputs copy into their windows by offset, reduction outputs fold the
// members' tails in ascending member order — the same order a single device
// folds its tiles, which is what keeps float reductions bit-identical to an
// equally-shaped serial reference.
func (m *MultiDevice) merge(r *Region, ranges []ShareRange, subs []subRegion) error {
	for l := range r.Outs {
		if r.Outs[l].Partitioned() {
			for i := range subs {
				if ranges[i].Width() == 0 {
					continue
				}
				copy(tileWindow(&r.Outs[l], ranges[i].Lo, ranges[i].Hi), subs[i].outs[l])
			}
			continue
		}
		acc := reduceIdentity(r.Outs[l].Reduce, len(r.Outs[l].Data))
		for i := range subs {
			if ranges[i].Width() == 0 {
				continue
			}
			if err := combine(r.Outs[l].Reduce, acc, subs[i].outs[l]); err != nil {
				return err
			}
		}
		copy(r.Outs[l].Data, acc)
	}
	return nil
}

var _ Plugin = (*MultiDevice)(nil)
