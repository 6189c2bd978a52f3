package offload

import (
	"fmt"
	"sync"

	"ompcloud/internal/arena"
	"ompcloud/internal/trace"
)

// EnvBuffer declares one variable of a device data environment (`#pragma
// omp target data map(...)`): Upload buffers are copied to the device when
// the environment opens, Download buffers are copied back when it closes,
// and everything in between stays device-resident. This is how the paper
// supports "several parallel for loops within the same target region ...
// performing successive map-reduce transformations within the Spark job":
// intermediates like 2MM's tmp matrix never cross the host-target link.
type EnvBuffer struct {
	Name     string
	Data     []byte // host buffer
	Size     int64  // > 0: size-only, as Buffer.Size
	Upload   bool   // map(to:) / map(tofrom:)
	Download bool   // map(from:) / map(tofrom:)
}

// Env is an open device data environment.
type Env interface {
	// Run executes one lowered parallel loop against the environment.
	// Buffers in the region whose names match environment buffers use the
	// device-resident copies; the region's own Data fields supply sizes
	// and partition strides only.
	Run(r *Region) (*trace.Report, error)
	// Buffer exposes the device-resident bytes of an environment buffer.
	// They are valid until the next Run or Close: a loop that rewrites a
	// buffer may give it new bytes.
	Buffer(name string) ([]byte, error)
	// Close copies Download buffers back to the host and releases the
	// environment. The returned report carries the copy-out costs.
	Close() (*trace.Report, error)
}

// EnvPlugin is implemented by devices that support data environments. The
// open report carries the upload costs.
type EnvPlugin interface {
	Plugin
	OpenEnv(bufs []EnvBuffer) (Env, *trace.Report, error)
}

// checkEnvBuffers rejects unnamed, duplicate and size-only environment
// buffers.
func checkEnvBuffers(bufs []EnvBuffer) error {
	seen := make(map[string]bool, len(bufs))
	for _, b := range bufs {
		if b.Name == "" {
			return fmt.Errorf("offload: unnamed env buffer")
		}
		if b.Size != 0 {
			return fmt.Errorf("offload: env buffer %s is size-only: it has no bytes to run on", b.Name)
		}
		if seen[b.Name] {
			return fmt.Errorf("offload: duplicate env buffer %q", b.Name)
		}
		seen[b.Name] = true
	}
	return nil
}

func envBuffer[T any](bufs map[string]T, name string) (T, error) {
	b, ok := bufs[name]
	if !ok {
		return b, fmt.Errorf("offload: no env buffer %q", name)
	}
	return b, nil
}

// --- Shared-memory environment -----------------------------------------

// sharedEnv is the environment of a device whose loops work on host memory
// directly, so the hoisted transfer legs are empty and open and close are
// free. That is the host device, whose "device copies" are the host buffers
// themselves, and the device set, where buffers stay host-resident as the
// rendezvous between loops: a split loop's intermediates must come home
// anyway, because successive loops partition the data differently across
// members, and each member slice moves exactly the windows it needs through
// that member's own storage path, where the transfer costs are accounted.
type sharedEnv struct {
	dev  Plugin
	bufs map[string][]byte
	open bool
}

func openSharedEnv(dev Plugin, bufs []EnvBuffer) (Env, *trace.Report, error) {
	if err := checkEnvBuffers(bufs); err != nil {
		return nil, nil, err
	}
	e := &sharedEnv{dev: dev, bufs: make(map[string][]byte, len(bufs)), open: true}
	for _, b := range bufs {
		e.bufs[b.Name] = b.Data
	}
	return e, trace.NewReport(dev.Name(), "target-data-open"), nil
}

// OpenEnv implements EnvPlugin.
func (h *HostPlugin) OpenEnv(bufs []EnvBuffer) (Env, *trace.Report, error) {
	return openSharedEnv(h, bufs)
}

// OpenEnv implements EnvPlugin.
func (m *MultiDevice) OpenEnv(bufs []EnvBuffer) (Env, *trace.Report, error) {
	return openSharedEnv(m, bufs)
}

func (e *sharedEnv) Buffer(name string) ([]byte, error) { return envBuffer(e.bufs, name) }

func (e *sharedEnv) Run(r *Region) (*trace.Report, error) {
	if !e.open {
		return nil, fmt.Errorf("offload: environment already closed")
	}
	// Rebind region buffers to the environment's storage by name.
	rebind := func(bufs []Buffer) []Buffer {
		out := append([]Buffer(nil), bufs...)
		for i := range out {
			if b, ok := e.bufs[out[i].Name]; ok {
				out[i].Data = b
			}
		}
		return out
	}
	local := *r
	local.Ins, local.Outs = rebind(r.Ins), rebind(r.Outs)
	return e.dev.Run(&local)
}

func (e *sharedEnv) Close() (*trace.Report, error) {
	if !e.open {
		return nil, fmt.Errorf("offload: environment already closed")
	}
	e.open = false
	return trace.NewReport(e.dev.Name(), "target-data-close"), nil
}

// --- Plan environment -------------------------------------------------

// planEnv keeps the environment's buffers driver-resident between loops for
// the cloud device and the pricing device alike. It only decides bindings;
// each of its three entry points is a plan its device runs — the cloud device
// under its guard, the pricing device priced — so both ship and keep
// resident exactly the same buffers. The resident buffers are arena memory
// (internal/arena), held from the open, or the loop that last rewrote them,
// to the close.
type planEnv struct {
	run    func(*plan) (*trace.Report, error)
	prefix string

	mu     sync.Mutex
	open   bool
	decl   []EnvBuffer
	device map[string]bound // driver-resident copies and their LAN ratios: measured by the upload, or sampled
}

// openPlanEnv opens an environment with a transfer-only plan that ships the
// map(to:) buffers through cloud storage (Fig. 1 steps 1-3) once for the
// whole environment; map(from:)/alloc buffers start zeroed on the device. A
// shipped buffer stays resident at the ratio its upload measured, so no loop
// probes it again; an alloc'd one is probed by the first loop that binds it.
func openPlanEnv(bufs []EnvBuffer, prefix string, run func(*plan) (*trace.Report, error)) (Env, *trace.Report, error) {
	e := &planEnv{
		run:    run,
		prefix: prefix,
		open:   true,
		decl:   append([]EnvBuffer(nil), bufs...),
		device: make(map[string]bound, len(bufs)),
	}
	pl := &plan{kernel: "target-data-open", prefix: e.prefix, keep: true}
	for _, b := range bufs {
		if b.Upload {
			pl.ins = append(pl.ins, bound{name: b.Name, ship: true, host: b.Data, size: b.Size})
		} else {
			dev := arena.Get(len(b.Data))
			clear(dev)
			e.device[b.Name] = bound{name: b.Name, dev: dev, size: b.Size}
		}
	}
	rep, err := run(pl)
	if err != nil {
		for _, b := range e.device {
			arena.Put(b.dev)
		}
		return nil, nil, err
	}
	for _, in := range pl.ins {
		e.device[in.name] = bound{name: in.name, dev: in.dev, size: in.size, ratio: in.shippedRatio()}
	}
	return e, rep, nil
}

// OpenEnv implements EnvPlugin.
func (p *CloudPlugin) OpenEnv(bufs []EnvBuffer) (Env, *trace.Report, error) {
	if err := checkEnvBuffers(bufs); err != nil {
		return nil, nil, err
	}
	return openPlanEnv(bufs, fmt.Sprintf("envs/%s%06d", p.keyScope(), p.jobSeq.Add(1)), p.guard)
}

func (e *planEnv) Buffer(name string) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, err := envBuffer(e.device, name)
	return b.dev, err
}

// Run executes one parallel loop entirely inside the cluster — the
// all-resident plan: partitioned slices of the device buffers scatter to the
// workers, results reconstruct into buffers of their own that replace the
// device buffers the loop rewrote, and nothing touches storage or the WAN.
// The region's own buffers supply sizes only. Every buffer the loop bound
// keeps the ratio the plan sampled for it.
func (e *planEnv) Run(r *Region) (*trace.Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.open {
		return nil, fmt.Errorf("offload: environment already closed")
	}
	pl := &plan{kernel: r.Kernel, region: r}
	bind := func(what string, bufs []Buffer) (bs []bound, err error) {
		for i := range bufs {
			b, ok := e.device[bufs[i].Name]
			if !ok {
				return nil, fmt.Errorf("offload: loop %s %q is not in the data environment", what, bufs[i].Name)
			}
			if b.len() != bufs[i].Len() {
				return nil, fmt.Errorf("offload: env buffer %q is %d bytes, loop expects %d", bufs[i].Name, b.len(), bufs[i].Len())
			}
			bs = append(bs, b)
		}
		return bs, nil
	}
	var err error
	if pl.ins, err = bind("input", r.Ins); err != nil {
		return nil, err
	}
	if pl.outs, err = bind("output", r.Outs); err != nil {
		return nil, err
	}
	rep, err := e.run(pl)
	if err != nil {
		return rep, err
	}
	for _, bs := range [][]bound{pl.ins, pl.outs} {
		for _, b := range bs {
			d := e.device[b.name]
			d.ratio = b.ratio
			if b.final != nil {
				arena.Put(d.dev)
				d.dev = b.final
			}
			e.device[b.name] = d
		}
	}
	return rep, nil
}

// Close brings the Download buffers home (Fig. 1 steps 7-8) with a
// transfer-only plan, then invalidates the environment and gives its buffers
// back to the arena; the plan ending deletes the environment's stored
// objects. A plan the guard did not admit (open breaker, failed health probe)
// never ran: the environment stays open with its results and objects intact,
// so the transient error can be retried.
func (e *planEnv) Close() (*trace.Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.open {
		return nil, fmt.Errorf("offload: environment already closed")
	}
	pl := &plan{kernel: "target-data-close", prefix: e.prefix}
	for _, b := range e.decl {
		if b.Download {
			pl.outs = append(pl.outs, bound{name: b.Name, ship: true, host: b.Data, dev: e.device[b.Name].dev, size: b.Size})
		}
	}
	rep, err := e.run(pl)
	if err == errUnavailable {
		return rep, err
	}
	e.open = false
	for _, b := range e.device {
		arena.Put(b.dev)
	}
	e.device = nil
	return rep, err
}

var (
	_ EnvPlugin = (*HostPlugin)(nil)
	_ EnvPlugin = (*MultiDevice)(nil)
	_ EnvPlugin = (*CloudPlugin)(nil)
	_ EnvPlugin = (*PricingDevice)(nil)
)
