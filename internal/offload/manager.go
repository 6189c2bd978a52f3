package offload

import (
	"fmt"
	"sync"
	"unsafe"

	"ompcloud/internal/arena"
	"ompcloud/internal/resilience"
	"ompcloud/internal/trace"
)

// Plugin is the target-specific half of the offloading runtime (Fig. 2,
// component 3): it owns device initialization, data movement and kernel
// execution for one device class.
type Plugin interface {
	// Name identifies the device ("host-16t", "cloud-spark", ...).
	Name() string
	// Available reports whether the device can currently accept regions;
	// the manager probes it to implement dynamic host fallback.
	Available() bool
	// Cores reports the device's parallel width (threads or cluster
	// cores), the input to Algorithm 1 tiling.
	Cores() int
	// Run executes a target region to completion, writing results into
	// the region's output buffers.
	Run(r *Region) (*trace.Report, error)
}

// DeviceHost is the pseudo-id selecting the host device, mirroring the
// OpenMP convention that omp_get_num_devices() (== number of non-host
// devices) also denotes the host as an execution target.
const DeviceHost = -1

// FallbackPolicy selects what the manager does when a device fails
// mid-flight with a transient error.
type FallbackPolicy int

const (
	// FallbackHost (the default) re-runs the region on the host — the
	// paper's dynamic local execution, extended from entry-time
	// unavailability to mid-flight failure.
	FallbackHost FallbackPolicy = iota
	// FallbackFail surfaces the device error to the caller instead of
	// masking it with a host re-run (CI and benchmark runs that must
	// notice a degraded cloud).
	FallbackFail
)

// String implements fmt.Stringer.
func (f FallbackPolicy) String() string {
	if f == FallbackFail {
		return "fail"
	}
	return "host"
}

// FallbackPolicyProvider is implemented by plugins that carry their own
// fallback configuration; devices without it get FallbackHost.
type FallbackPolicyProvider interface {
	FallbackPolicy() FallbackPolicy
}

// Manager is the target-agnostic offloading wrapper (Fig. 2, component 2):
// it numbers devices, routes lowered regions to plugins, and falls back to
// the host when the requested device is unavailable — the paper's
// "offloading is done dynamically, and thus if the cloud is not available
// the computation is performed locally".
type Manager struct {
	mu      sync.RWMutex
	host    Plugin
	devices []Plugin
}

// NewManager builds a manager around the mandatory host device.
func NewManager(host Plugin) (*Manager, error) {
	if host == nil {
		return nil, fmt.Errorf("offload: manager needs a host plugin")
	}
	return &Manager{host: host}, nil
}

// Register adds a non-host device and returns its device id (0-based, the
// omp_get_device_num ordering).
func (m *Manager) Register(p Plugin) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.devices = append(m.devices, p)
	return len(m.devices) - 1
}

// NumDevices reports the number of non-host devices —
// omp_get_num_devices().
func (m *Manager) NumDevices() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.devices)
}

// Device resolves a device id; DeviceHost or NumDevices() resolve to the
// host.
func (m *Manager) Device(id int) (Plugin, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if id == DeviceHost || id == len(m.devices) {
		return m.host, nil
	}
	if id < 0 || id > len(m.devices) {
		return nil, fmt.Errorf("offload: no device %d (have %d)", id, len(m.devices))
	}
	return m.devices[id], nil
}

// Host reports the host plugin.
func (m *Manager) Host() Plugin {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.host
}

// Run executes a region on the device with the given id. When the device
// reports itself unavailable (bad credentials, unreachable storage, dead
// cluster, open circuit breaker) the region transparently runs on the host
// and the report is flagged FellBack. When an available device fails
// *mid-flight* with an error classified transient — storage faults that
// outlived the retry budget, lost workers — the region also re-runs on the
// host (unless the device's fallback policy says fail): the host pass
// rewrites every output buffer in full, and outputs the loop also reads are
// put back first (see inputAliasedOuts), so a half-completed device run
// leaves no trace. Permanent and unclassified errors always propagate; a
// kernel bug must surface, not be masked by a silent host re-run.
func (m *Manager) Run(id int, r *Region) (*trace.Report, error) {
	dev, err := m.Device(id)
	if err != nil {
		return nil, err
	}
	if dev == m.Host() {
		return dev.Run(r)
	}
	if !dev.Available() {
		return m.runFallback(r, fmt.Sprintf("device %s unavailable", dev.Name()), nil)
	}
	var snap []outSnapshot
	if fallbackPolicyOf(dev) != FallbackFail {
		snap = inputAliasedOuts(r)
		defer func() {
			for _, s := range snap {
				arena.Put(s.data)
			}
		}()
	}
	rep, err := dev.Run(r)
	if err == nil {
		return rep, nil
	}
	if !absorbable(dev, err) {
		return nil, err
	}
	for _, s := range snap {
		copy(r.Outs[s.out].Data, s.data)
	}
	return m.runFallback(r, err.Error(), err)
}

// outSnapshot is the pre-run content of one output buffer, in arena memory
// (internal/arena) until the run and any restore are over.
type outSnapshot struct {
	out  int // index into Region.Outs
	data []byte
}

// inputAliasedOuts copies every output whose bytes overlap an input's. A
// device run may write output tiles into the user's buffers before it fails
// (the streaming dataflow downloads as it goes). For a pure map(from:)
// output that is harmless: the host pass rewrites it in full, as the cloud
// device — which builds every output in driver memory holding whatever its
// last user left, never from the host's bytes — already requires of the
// loop. But a map(tofrom:) variable is the same backing array in Ins and Outs
// (and two mappings may overlap at different offsets), so there the half-done
// run has scribbled over the host pass's *input*; those, and only those, are
// snapshotted while fallback is still possible and restored before the host
// pass.
func inputAliasedOuts(r *Region) []outSnapshot {
	var snap []outSnapshot
	for i := range r.Outs {
		for k := range r.Ins {
			if bytesOverlap(r.Outs[i].Data, r.Ins[k].Data) {
				data := arena.Get(len(r.Outs[i].Data))
				copy(data, r.Outs[i].Data)
				snap = append(snap, outSnapshot{out: i, data: data})
				break
			}
		}
	}
	return snap
}

// bytesOverlap reports whether x and y share any byte of memory (the
// crypto/internal/alias idiom).
func bytesOverlap(x, y []byte) bool {
	return len(x) > 0 && len(y) > 0 &&
		uintptr(unsafe.Pointer(&x[0])) <= uintptr(unsafe.Pointer(&y[len(y)-1])) &&
		uintptr(unsafe.Pointer(&y[0])) <= uintptr(unsafe.Pointer(&x[len(x)-1]))
}

// absorbable is the one fallback decision: a device's failure may be re-run
// on the host when the error is transient and the device's policy is not
// fallback = fail. Manager.Run asks it for a whole region, MultiDevice.Run
// for a member's slice.
func absorbable(dev Plugin, err error) bool {
	return resilience.IsTransient(err) && fallbackPolicyOf(dev) != FallbackFail
}

// fallbackPolicyOf resolves a device's fallback policy.
func fallbackPolicyOf(dev Plugin) FallbackPolicy {
	if fp, ok := dev.(FallbackPolicyProvider); ok {
		return fp.FallbackPolicy()
	}
	return FallbackHost
}

// runFallback executes the region on the host after a device refusal or
// mid-flight failure. devErr, when non-nil, is the device error the host
// run is recovering from; if the host *also* fails, both errors surface.
func (m *Manager) runFallback(r *Region, reason string, devErr error) (*trace.Report, error) {
	rep, err := m.Host().Run(r)
	if err != nil {
		if devErr != nil {
			return nil, fmt.Errorf("offload: host fallback failed: %w (after device error: %v)", err, devErr)
		}
		return nil, err
	}
	rep.FellBack = true
	rep.FallbackReason = reason
	return rep, nil
}
