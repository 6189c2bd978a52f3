package spark

import (
	"strconv"

	"ompcloud/internal/simtime"
	"ompcloud/internal/trace/span"
)

// DefaultLeaseMisses is how many consecutive heartbeats a worker may miss
// before its lease expires, Spark's spark.network.timeout expressed in
// heartbeat intervals.
const DefaultLeaseMisses = 3

// LeaseConfig enables heartbeat-driven worker membership. Each simulated
// executor holds a lease renewed by a heartbeat every Heartbeat of virtual
// time; a worker that misses Misses consecutive heartbeats is declared dead,
// its in-flight attempts fail, and retries land on survivors. The clock is
// virtual and advances one interval per task-attempt boundary, so membership
// is fully deterministic under injected faults — no wall timers.
type LeaseConfig struct {
	// Heartbeat is the virtual interval between executor heartbeats; a
	// non-positive value disables membership (workers then die only via
	// KillWorker).
	Heartbeat simtime.Duration
	// Misses is the lease budget in missed heartbeats (default
	// DefaultLeaseMisses).
	Misses int
}

// WithLease enables lease-based worker membership.
func WithLease(lc LeaseConfig) Option { return func(ctx *Context) { ctx.lease = lc } }

// tick advances the virtual membership clock by one heartbeat interval:
// every alive worker whose heartbeat is not suppressed renews its lease,
// leases past their budget expire (the worker is declared dead), and dead
// workers whose rejoin delay elapsed come back. Ticks are pumped from task
// attempt boundaries, tying membership time to engine progress.
func (c *Context) tick() {
	if c.lease.Heartbeat <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tick := int(c.vnow / c.lease.Heartbeat)
	c.vnow += c.lease.Heartbeat
	for w := 0; w < c.spec.Workers; w++ {
		silenced := c.faults.Silenced(w, tick)
		if c.deadWorkers[w] {
			died, byLease := c.diedAt[w]
			rejoin := simtime.Duration(c.faults.Rejoin(w))
			if byLease && !silenced && rejoin > 0 && c.vnow >= died+rejoin*c.lease.Heartbeat {
				delete(c.deadWorkers, w)
				delete(c.diedAt, w)
				c.leases[w].Renew(c.vnow)
				c.metrics.Rejoins++
				c.logf("spark: worker %d rejoined at t=%v", w, c.vnow.Real())
				span.Event("spark.worker.rejoin", "spark",
					span.Attr{Key: "worker", Val: strconv.Itoa(w)})
			}
			continue
		}
		if !silenced {
			c.leases[w].Renew(c.vnow)
			continue
		}
		if c.leases[w].Expired(c.vnow) {
			c.deadWorkers[w] = true
			c.diedAt[w] = c.vnow
			c.metrics.DeadWorkers++
			c.logf("spark: worker %d lease expired at t=%v (last heartbeat %v ago)",
				w, c.vnow.Real(), (c.vnow - c.leases[w].LastRenewed()).Real())
			span.Event("spark.worker.dead", "spark",
				span.Attr{Key: "worker", Val: strconv.Itoa(w)})
			span.Metrics().Counter("spark.worker.deaths").Inc()
		}
	}
}

// deaths reports the lease-expiry death count so far.
func (c *Context) deaths() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics.DeadWorkers
}
