package storage

import (
	"sync"
	"time"
)

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

// Throttled wraps a Store behind a simulated full-duplex WAN link: uploads
// (Put) and downloads (Get) each get their own serialized direction with a
// shared bandwidth per direction, plus a fixed per-operation latency. It
// exists for benchmarks that need real wall-clock contention — a laptop
// talking to cloud storage can send and receive at line rate simultaneously,
// but two concurrent uploads halve each other — without leaving the process.
//
// Full duplex matters: modelling the link as one half-duplex resource would
// serialize uploads against downloads and erase exactly the overlap a
// streaming dataflow buys.
type Throttled struct {
	inner   Store
	bytesPS float64
	latency time.Duration

	mu   sync.Mutex
	up   time.Time // upload direction busy until
	down time.Time // download direction busy until

	// Windowed effective-rate meters per direction (queueing included),
	// behind the BandwidthObserver interface. They measure what callers
	// actually experience, which under contention is less than bytesPS —
	// the number the degraded-mode policy and the throttle tests share.
	upMeter   rateMeter
	downMeter rateMeter
}

// NewThrottled wraps inner with a bandwidth cap of mbps megabits per second
// in each direction and a fixed per-operation latency. mbps <= 0 disables
// the bandwidth cap (latency still applies).
func NewThrottled(inner Store, mbps float64, latency time.Duration) *Throttled {
	return &Throttled{inner: inner, bytesPS: mbps * 1e6 / 8, latency: latency}
}

// reserve books a transfer of n bytes on one direction and returns when the
// transfer would have completed on the simulated link. Reservations queue:
// each starts when the direction frees up, so concurrent transfers in one
// direction share the pipe serially (equivalent makespan to fair sharing).
func (t *Throttled) reserve(busy *time.Time, meter *rateMeter, n int64) {
	var xfer time.Duration
	if t.bytesPS > 0 {
		xfer = time.Duration(float64(n) / t.bytesPS * float64(time.Second))
	}
	t.mu.Lock()
	now := time.Now()
	start := *busy
	if start.Before(now) {
		start = now
	}
	end := start.Add(xfer)
	*busy = end
	t.mu.Unlock()
	time.Sleep(time.Until(end) + t.latency)
	// Effective rate as the caller saw it: bytes over wall time from
	// reservation to completion, so queueing behind concurrent transfers
	// counts against the observed rate.
	meter.add(n, time.Since(now))
}

// ObservedBPS implements BandwidthObserver: the effective rate each
// direction has recently sustained, in bytes/s (0 until enough transfers
// have been observed).
func (t *Throttled) ObservedBPS() (upBPS, downBPS float64) {
	return t.upMeter.rate(), t.downMeter.rate()
}

// Put implements Store, charging the upload direction.
func (t *Throttled) Put(key string, data []byte) error {
	t.reserve(&t.up, &t.upMeter, int64(len(data)))
	return t.inner.Put(key, data)
}

// Get implements Store, charging the download direction.
func (t *Throttled) Get(key string) ([]byte, error) {
	obj, err := t.inner.Get(key)
	if err != nil {
		time.Sleep(t.latency)
		return nil, err
	}
	t.reserve(&t.down, &t.downMeter, int64(len(obj)))
	return obj, nil
}

// Delete implements Store; metadata operations pay only latency.
func (t *Throttled) Delete(key string) error {
	time.Sleep(t.latency)
	return t.inner.Delete(key)
}

// List implements Store; metadata operations pay only latency.
func (t *Throttled) List(prefix string) ([]string, error) {
	time.Sleep(t.latency)
	return t.inner.List(prefix)
}

// Stat implements Store; metadata operations pay only latency.
func (t *Throttled) Stat(key string) (int64, error) {
	time.Sleep(t.latency)
	return t.inner.Stat(key)
}
