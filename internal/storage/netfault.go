package storage

// NetFault materializes a netsim.Schedule against the real data path: during
// partition windows operations are refused (or block until the link heals),
// bandwidth-collapse windows slow transfers proportionally, and latency
// spikes/jitter delay individual operations with deterministic seeded draws.
// It composes with the other wrappers — typically NetFault outermost over
// FaultStore or Throttled over the backing store — and like them it
// deliberately does not implement AppendGetter, so every read is observed.
//
// The wrapper also measures what it lets through: a windowed per-direction
// rate meter feeds the BandwidthObserver interface, which is the degraded-
// mode policy's source of truth for the link's *observed* (as opposed to
// provisioned) rate.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ompcloud/internal/netsim"
	"ompcloud/internal/resilience"
	"ompcloud/internal/trace/span"
)

// ErrPartitioned is the root cause of operations refused while the link is
// down. NetFault returns it wrapped and classified transient: partitions
// heal, and the retry/fallback ladder above decides how long to care.
var ErrPartitioned = errors.New("storage: network partitioned")

// BandwidthObserver is implemented by stores that can report the effective
// wire rate they are currently sustaining, in bytes per second per
// direction. Zero means "no signal yet" (too few transfers observed). The
// cloud plugin's degraded-mode policy feeds this into the adaptive codec
// verdict in place of the provisioned rate.
type BandwidthObserver interface {
	ObservedBPS() (upBPS, downBPS float64)
}

// PartitionAccountant is implemented by stores that can report how long the
// link has been partitioned so far, for trace reports.
type PartitionAccountant interface {
	PartitionSeconds() float64
}

// PartitionMode selects what a partition window does to an operation.
type PartitionMode int

const (
	// PartitionDrop refuses operations immediately with a transient
	// ErrPartitioned — the connection-refused model. Retries spin against
	// it cheaply; deadlines are not needed to make progress.
	PartitionDrop PartitionMode = iota
	// PartitionHang blocks the operation until the window ends, then lets
	// it proceed — the TCP-stall model. An open-ended partition degrades
	// to Drop (nothing may block forever), so abandoned attempts always
	// drain. Hang requires a real-time clock: with an op-count clock no
	// other operation can advance the schedule while one hangs.
	PartitionHang
)

// meterWindow is how many recent transfers the observed-rate meter averages
// over; small enough to track a mid-run collapse, large enough to smooth
// per-op noise.
const meterWindow = 32

// meterMinSamples is how many transfers the meter needs before it reports a
// rate at all: a couple of ops prove nothing about the link.
const meterMinSamples = 4

// rateMeter estimates an effective transfer rate from the last meterWindow
// completed operations (bytes moved over wall time spent, queueing
// included).
type rateMeter struct {
	mu    sync.Mutex
	bytes [meterWindow]int64
	secs  [meterWindow]float64
	n     int
	idx   int
}

func (m *rateMeter) add(n int64, d time.Duration) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	m.bytes[m.idx] = n
	m.secs[m.idx] = d.Seconds()
	m.idx = (m.idx + 1) % meterWindow
	if m.n < meterWindow {
		m.n++
	}
	m.mu.Unlock()
}

// rate returns the windowed bytes/s, or 0 with fewer than meterMinSamples
// observations (or zero measured time).
func (m *rateMeter) rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n < meterMinSamples {
		return 0
	}
	var b int64
	var s float64
	for i := 0; i < m.n; i++ {
		b += m.bytes[i]
		s += m.secs[i]
	}
	if s <= 0 {
		return 0
	}
	return float64(b) / s
}

// NetFault wraps a Store behind a scheduled link. See the package comment
// above for composition rules.
type NetFault struct {
	inner Store
	sched *netsim.Schedule
	mode  PartitionMode

	// rate is the link's nominal wire rate in bytes/s, used to convert a
	// bandwidth-collapse fraction into per-operation delay: a transfer of
	// n bytes at frac f pays n/rate×(1/f − 1) extra, so the total
	// approximates n/(rate×f) when the inner store (e.g. Throttled at
	// rate) supplies the base cost, and models just the collapse surcharge
	// when it does not. 0 disables bandwidth charging.
	rate float64

	start time.Time
	// now returns elapsed schedule time; nil means wall time since start.
	now   func() time.Duration
	sleep func(time.Duration)
	seed  uint64

	// perOp, when > 0, drives the schedule off the operation counter
	// instead of the wall clock: elapsed = ops×perOp. Deterministic
	// regardless of machine speed; incompatible with PartitionHang.
	perOp time.Duration

	ops     atomic.Int64
	refused atomic.Int64
	up      rateMeter
	down    rateMeter
}

// NewNetFault wraps inner behind sched. The zero-valued extras mean: drop
// partitioned operations, wall-clock schedule starting now, no bandwidth
// charging, seed 1 for jitter draws.
func NewNetFault(inner Store, sched *netsim.Schedule) *NetFault {
	return &NetFault{
		inner: inner,
		sched: sched,
		start: time.Now(),
		sleep: time.Sleep,
		seed:  1,
	}
}

// SetMode selects the partition behavior; returns f for chaining.
func (f *NetFault) SetMode(m PartitionMode) *NetFault { f.mode = m; return f }

// SetRate declares the link's nominal rate in bytes/s so collapse windows
// can charge transfer time; returns f for chaining.
func (f *NetFault) SetRate(bytesPS float64) *NetFault { f.rate = bytesPS; return f }

// SetSeed seeds the deterministic jitter draws; returns f for chaining.
func (f *NetFault) SetSeed(seed uint64) *NetFault { f.seed = seed; return f }

// SetSleep replaces the delay clock (tests); returns f for chaining.
func (f *NetFault) SetSleep(fn func(time.Duration)) *NetFault { f.sleep = fn; return f }

// SetClock replaces the elapsed-time source (virtual clocks); returns f for
// chaining.
func (f *NetFault) SetClock(fn func() time.Duration) *NetFault { f.now = fn; return f }

// UseOpClock drives the schedule off the operation counter: each operation
// advances elapsed time by perOp, so a schedule like "partition from 50ms"
// deterministically means "partition from the 50th operation" at
// perOp = 1ms, independent of machine speed. Forces PartitionDrop (see
// PartitionHang). Returns f for chaining.
func (f *NetFault) UseOpClock(perOp time.Duration) *NetFault {
	f.perOp = perOp
	f.mode = PartitionDrop
	return f
}

// Ops reports how many operations reached the wrapper.
func (f *NetFault) Ops() int64 { return f.ops.Load() }

// Refused reports how many operations a partition refused.
func (f *NetFault) Refused() int64 { return f.refused.Load() }

// ObservedBPS implements BandwidthObserver from the wrapper's own windowed
// measurements (inner store cost, collapse surcharge and spikes included —
// this is the rate the transfer engine actually experiences).
func (f *NetFault) ObservedBPS() (upBPS, downBPS float64) {
	return f.up.rate(), f.down.rate()
}

// PartitionSeconds implements PartitionAccountant: the schedule's downtime
// integrated over elapsed time so far. Under the op clock the horizon is
// the full op count (not the gating view, which lags one op), so refused
// operations push the horizon into the window they were refused in.
func (f *NetFault) PartitionSeconds() float64 {
	horizon := f.elapsed()
	if f.perOp > 0 {
		horizon = time.Duration(f.ops.Load()) * f.perOp
	}
	return f.sched.DownDuring(horizon).Seconds()
}

func (f *NetFault) elapsed() time.Duration {
	if f.perOp > 0 {
		// The op being gated has already been counted; the schedule sees
		// the time of the ops completed before it, so "partition from
		// N×perOp" admits exactly N operations.
		n := f.ops.Load() - 1
		if n < 0 {
			n = 0
		}
		return time.Duration(n) * f.perOp
	}
	if f.now != nil {
		return f.now()
	}
	return time.Since(f.start)
}

// refuse records and returns one partition rejection.
func (f *NetFault) refuse(op, key string) error {
	f.refused.Add(1)
	span.Metrics().Counter("net.fault.partitioned_ops").Inc()
	span.Event("net.partition", "net",
		span.Attr{Key: "op", Val: op},
		span.Attr{Key: "key", Val: key})
	return resilience.MarkTransient(fmt.Errorf("netfault: %s %s: %w", op, key, ErrPartitioned))
}

// gate applies the schedule to one operation: refuses or blocks through
// partitions, sleeps spike/jitter latency, publishes the link gauges, and
// returns the state the operation should charge bandwidth under.
func (f *NetFault) gate(op, key string) (netsim.LinkState, error) {
	n := f.ops.Add(1)
	el := f.elapsed()
	st := f.sched.At(el)
	m := span.Metrics()
	upGauge := m.Gauge("net.link.up")
	if st.Up {
		upGauge.Set(1)
	} else {
		upGauge.Set(0)
	}
	m.Gauge("net.link.bw_frac_milli").Set(int64(st.BandwidthFrac * 1000))

	if !st.Up {
		if f.mode == PartitionHang {
			wake, ok := f.sched.NextUp(el)
			if !ok {
				return st, f.refuse(op, key)
			}
			f.sleep(wake - el)
			st = f.sched.At(wake)
			upGauge.Set(1)
		} else {
			return st, f.refuse(op, key)
		}
	}

	extra := st.ExtraLatency
	if st.JitterProb > 0 && st.JitterExtra > 0 {
		draw := float64(splitmix(f.seed^uint64(n))>>11) / float64(1<<53)
		if draw < st.JitterProb {
			extra += st.JitterExtra
		}
	}
	if extra > 0 {
		f.sleep(extra)
	}
	return st, nil
}

// charge converts a collapse window into transfer delay for n wire bytes.
func (f *NetFault) charge(n int64, st netsim.LinkState) {
	if n <= 0 || f.rate <= 0 || st.BandwidthFrac <= 0 || st.BandwidthFrac >= 1 {
		return
	}
	base := float64(n) / f.rate
	f.sleep(time.Duration(base * (1/st.BandwidthFrac - 1) * float64(time.Second)))
}

// Put implements Store.
func (f *NetFault) Put(key string, data []byte) error {
	st, err := f.gate("put", key)
	if err != nil {
		return err
	}
	start := time.Now()
	f.charge(int64(len(data)), st)
	err = f.inner.Put(key, data)
	if err == nil {
		f.up.add(int64(len(data)), time.Since(start))
	}
	return err
}

// Get implements Store.
func (f *NetFault) Get(key string) ([]byte, error) {
	st, err := f.gate("get", key)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	obj, err := f.inner.Get(key)
	if err != nil {
		return nil, err
	}
	f.charge(int64(len(obj)), st)
	f.down.add(int64(len(obj)), time.Since(start))
	return obj, nil
}

// Delete implements Store; metadata operations ride the link too.
func (f *NetFault) Delete(key string) error {
	if _, err := f.gate("delete", key); err != nil {
		return err
	}
	return f.inner.Delete(key)
}

// List implements Store.
func (f *NetFault) List(prefix string) ([]string, error) {
	if _, err := f.gate("list", prefix); err != nil {
		return nil, err
	}
	return f.inner.List(prefix)
}

// Stat implements Store.
func (f *NetFault) Stat(key string) (int64, error) {
	if _, err := f.gate("stat", key); err != nil {
		return 0, err
	}
	return f.inner.Stat(key)
}
