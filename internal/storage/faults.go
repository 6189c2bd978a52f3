package storage

import (
	"errors"
	"fmt"
	"time"

	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/trace/span"
)

// ErrPartitioned is the root cause of operations a Drop entry refused. The
// fault wrapper returns it wrapped and classified transient: partitions
// heal, and the retry/fallback ladder above decides how long to care.
var ErrPartitioned = errors.New("storage: network partitioned")

// WithFaults wraps inner behind the storage layer of a fault schedule: each
// operation asks sched and does what it decides — fails, is refused as
// partitioned, stalls, pays a collapsed link's transfer time, or (a Get)
// hands back a truncated or bit-flipped copy of the payload. The wrapper
// also measures what it lets through: a windowed per-direction rate meter
// behind BandwidthObserver, the degraded-mode policy's source of truth for
// the rate the link actually sustains, and the schedule's downtime behind
// PartitionAccountant. Like Throttled it implements no AppendGetter,
// PartsPutter or StreamGetter, so every read and write is observed.
func WithFaults(inner Store, sched *faults.Schedule) Store {
	return &faultStore{inner: inner, sched: sched, sleep: time.Sleep}
}

type faultStore struct {
	inner    Store
	sched    *faults.Schedule
	sleep    func(time.Duration) // tests record instead of sleeping
	up, down rateMeter
}

// ObservedBPS implements BandwidthObserver from the wrapper's own windowed
// measurements: the inner store's cost plus a Slow entry's collapse
// surcharge. Hang and Delay stalls are waited before the timer starts, so
// they are not counted.
func (f *faultStore) ObservedBPS() (upBPS, downBPS float64) { return f.up.rate(), f.down.rate() }

// PartitionSeconds implements PartitionAccountant.
func (f *faultStore) PartitionSeconds() float64 { return f.sched.Down().Seconds() }

// gate asks the schedule about one operation, publishes the link gauges,
// and applies its refusal, stall and failure.
func (f *faultStore) gate(op, key string) (faults.Effect, error) {
	eff := f.sched.Store(op, key)
	m := span.Metrics()
	up := int64(1)
	if eff.Drop || eff.Hung {
		up = 0
	}
	m.Gauge("net.link.up").Set(up)
	m.Gauge("net.link.bw_frac_milli").Set(int64(eff.Frac * 1000))
	if eff.Drop {
		return eff, resilience.MarkTransient(fmt.Errorf("storage: %s %s: %w", op, key, ErrPartitioned))
	}
	if eff.Stall > 0 {
		f.sleep(eff.Stall)
	}
	if eff.Err != nil {
		return eff, fmt.Errorf("storage: injected %s fault on %q: %w", op, key, eff.Err)
	}
	return eff, nil
}

// charge sleeps a Slow decision's surcharge for n wire bytes.
func (f *faultStore) charge(eff faults.Effect, n int) {
	if n > 0 && eff.Rate > 0 && eff.Frac < 1 {
		f.sleep(time.Duration(float64(n) / eff.Rate * (1/eff.Frac - 1) * float64(time.Second)))
	}
}

// Put implements Store.
func (f *faultStore) Put(key string, data []byte) error {
	eff, err := f.gate("put", key)
	if err != nil {
		return err
	}
	start := time.Now()
	f.charge(eff, len(data))
	if err := f.inner.Put(key, data); err != nil {
		return err
	}
	f.up.add(int64(len(data)), time.Since(start))
	return nil
}

// Get implements Store.
func (f *faultStore) Get(key string) ([]byte, error) {
	eff, err := f.gate("get", key)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	b, err := f.inner.Get(key)
	if err != nil {
		return nil, err
	}
	f.charge(eff, len(b))
	f.down.add(int64(len(b)), time.Since(start))
	return eff.Corrupt(b), nil
}

// Delete implements Store.
func (f *faultStore) Delete(key string) error {
	if _, err := f.gate("delete", key); err != nil {
		return err
	}
	return f.inner.Delete(key)
}

// List implements Store.
func (f *faultStore) List(prefix string) ([]string, error) {
	if _, err := f.gate("list", prefix); err != nil {
		return nil, err
	}
	return f.inner.List(prefix)
}

// Stat implements Store.
func (f *faultStore) Stat(key string) (int64, error) {
	if _, err := f.gate("stat", key); err != nil {
		return 0, err
	}
	return f.inner.Stat(key)
}
