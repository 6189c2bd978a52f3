package offload

// Elastic scaling of a cloud device. The autoscaler decides WHEN to scale
// (internal/autoscale); this file is the device-side actuator that makes a
// decision real: grow or drain the simulated Spark cluster, keep the
// infrastructure ledger (cloud.Cluster) in step so billing follows the
// fleet, and invalidate the device's learned split rates so Eq. 3 re-seeds
// from the new core count instead of steering by throughput observed at
// the old width. Scale-in is never allowed to strand an in-flight tile:
// shrinking drains first (attempts divert away, held work completes) and
// retires workers only at a quiescent job boundary — the guard completes any
// pending drain before each plan for exactly that reason.

import (
	"fmt"

	"ompcloud/internal/trace"
)

// ScaleWorkers resizes the device toward target workers and returns the
// live worker count afterwards. Growth is immediate: newly launched
// instances join with fresh leases (the caller — the autoscaler — has
// already charged their warm-up latency on the virtual clock; with a
// provider configured the Cluster launch itself advances the clock through
// boot). Shrink is two-phase: workers are marked draining here and retired
// at the next quiescent boundary, so the returned count may exceed target
// until in-flight work completes. The device never scales below one
// worker.
func (p *CloudPlugin) ScaleWorkers(target int) (int, error) {
	if target < 1 {
		return 0, fmt.Errorf("offload: scale target %d below the one-worker floor", target)
	}
	cur := p.sctx.Spec().Workers
	switch {
	case target > cur:
		n := target - cur
		p.mu.Lock()
		if p.cluster != nil {
			if err := p.cluster.Grow(n); err != nil {
				p.mu.Unlock()
				return cur, fmt.Errorf("offload: scale-out: %w", err)
			}
		}
		p.mu.Unlock()
		p.sctx.AddWorkers(n)
		p.invalidateRates()
	case target < cur:
		p.sctx.DrainWorkers(cur - target)
		p.finishDrain()
	}
	return p.sctx.Spec().Workers, nil
}

// completeDrain finishes any deferred scale-in. The guard calls it before
// every plan — standalone region, env open, env loop, env close — so a
// drain requested mid-job lands at the next boundary without the autoscaler
// having to poll.
func (p *CloudPlugin) completeDrain() {
	if p.sctx.DrainingWorkers() == 0 {
		return
	}
	p.finishDrain()
}

// finishDrain retires whatever drained workers the engine will release,
// terminates their instances, and drops the stale split rates.
func (p *CloudPlugin) finishDrain() {
	removed := p.sctx.RemoveDrained()
	if removed == 0 {
		return
	}
	p.mu.Lock()
	if p.cluster != nil {
		if err := p.cluster.Shrink(removed); err != nil {
			// The engine already dropped the workers; a ledger refusing to
			// terminate (floor) only means we keep billing the instance.
			p.logf("offload: scale-in: cluster shrink: %v", err)
		}
	}
	p.mu.Unlock()
	p.invalidateRates()
}

// invalidateRates drops this device's observed per-kernel split rates so
// the next multi-device run seeds its Eq. 3 share from the new core count
// (satellite fix: stale iters/ms from the old width otherwise steers the
// split until enough runs re-learn it).
func (p *CloudPlugin) invalidateRates() {
	if n := InvalidateSplitRates(p.Name()); n > 0 {
		p.logf("offload: invalidated %d stale split rate(s) for %s after scale", n, p.Name())
	}
}

// applyCost stamps a plan's modelled dollar cost under the device's
// configured prices: $/core-hour on the effective (caller-experienced)
// duration times the cores the device held, plus $/GiB on egress back to
// the host. The guard prices every plan, so an environment's open, loops and
// close each carry their share and trace.Merge sums them. Devices without
// prices leave CostUSD at zero.
func (p *CloudPlugin) applyCost(rep *trace.Report) {
	if rep == nil || (p.cfg.CostCoreHourUSD <= 0 && p.cfg.CostEgressGiBUSD <= 0) {
		return
	}
	coreHours := float64(rep.Cores) * rep.Effective().Seconds() / 3600
	egressGiB := float64(rep.BytesDownloaded) / (1 << 30)
	rep.CostUSD = p.cfg.CostCoreHourUSD*coreHours + p.cfg.CostEgressGiBUSD*egressGiB
}
