// Package omp is the programmer-facing surface of the reproduction: a Go
// rendering of the OpenMP 4.5 accelerator model as the paper uses it. Go has
// no pragmas, so the directives appear as a small builder API whose shape
// follows the annotations one-to-one; each construct lowers to exactly the
// runtime calls a Clang-lowered `#pragma omp target` would make.
//
// Listing 1 of the paper becomes:
//
//	rt, _ := omp.NewRuntime(16)
//	cloud := rt.RegisterDevice(cloudPlugin)
//	_, err := rt.Target(cloud,
//	        omp.To("A", a).Partition(n),   // map(to: A[i*N:(i+1)*N]) — Listing 2's extension
//	        omp.To("B", b),                // map(to: B[:N*N])
//	        omp.From("C", c).Partition(n), // map(from: C[i*N:(i+1)*N])
//	).ParallelFor(int64(n), "matmul", int64(n))
//
// The loop body ("matmul") lives in the fat-binary registry and runs on
// whichever device the region targets, with transparent host fallback when
// the cloud is unavailable.
package omp

import (
	"fmt"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/offload"
	"ompcloud/internal/trace"
)

// Runtime owns the device table, wrapping the target-agnostic offloading
// manager. It corresponds to the OpenMP runtime a program links against.
type Runtime struct {
	mgr *offload.Manager
}

// NewRuntime builds a runtime whose host device uses the given OpenMP
// thread count (the OMP_NUM_THREADS of the OmpThread baseline).
func NewRuntime(hostThreads int) (*Runtime, error) {
	host, err := offload.NewHostPlugin(hostThreads)
	if err != nil {
		return nil, err
	}
	mgr, err := offload.NewManager(host)
	if err != nil {
		return nil, err
	}
	return &Runtime{mgr: mgr}, nil
}

// Device is an opaque device handle, the value of a device(...) clause.
type Device struct {
	id int
	rt *Runtime
}

// HostDevice returns the handle for host execution — device(N) in OpenMP
// numbering, or simply not offloading.
func (rt *Runtime) HostDevice() Device { return Device{id: offload.DeviceHost, rt: rt} }

// RegisterDevice attaches a non-host device plugin (e.g. the cloud) and
// returns its handle.
func (rt *Runtime) RegisterDevice(p offload.Plugin) Device {
	return Device{id: rt.mgr.Register(p), rt: rt}
}

// NumDevices mirrors omp_get_num_devices(): the count of non-host devices.
func (rt *Runtime) NumDevices() int { return rt.mgr.NumDevices() }

// DefaultDevice mirrors omp_get_default_device(): the first registered
// device, or the host when none is registered.
func (rt *Runtime) DefaultDevice() Device {
	if rt.mgr.NumDevices() > 0 {
		return Device{id: 0, rt: rt}
	}
	return rt.HostDevice()
}

// Manager exposes the underlying offloading manager for advanced callers.
func (rt *Runtime) Manager() *offload.Manager { return rt.mgr }

// direction is the map-type of a clause.
type direction int

const (
	dirTo direction = iota
	dirFrom
	dirToFrom
	dirAlloc
)

// Mapping is one map(...) clause entry. Build with To/From/ToFrom, refine
// with Partition and reduction modifiers.
type Mapping struct {
	name    string
	bytes   []byte    // what the device sees: the user's own memory whenever it can be
	floats  []float32 // non-nil when the user mapped a []float32
	copied  bool      // bytes is a serialized copy of floats, not a view of it
	size    int64     // a size-only matrix's byte length; bytes is then nil
	perIter int64     // elements per iteration; 0 = unpartitioned
	reduce  offload.ReduceOp
	dir     direction
	err     error
}

func newMapping(name string, v any, dir direction) Mapping {
	m := Mapping{name: name, dir: dir}
	switch buf := v.(type) {
	case []byte:
		m.bytes = buf
	case []float32:
		m.mapFloats(buf)
	case *data.Matrix:
		if buf.SizeOnly() {
			m.size = int64(buf.Rows) * int64(buf.Cols) * data.FloatSize
		} else {
			m.mapFloats(buf.V)
		}
	default:
		m.err = fmt.Errorf("omp: map(%s): unsupported type %T (want []byte, []float32 or *data.Matrix)", name, v)
	}
	return m
}

// mapFloats maps a float32 variable like a []byte one: the device reads and
// writes the user's memory through data.ByteView, so a map(from:) result is
// in f the moment the device wrote it. Only where no view exists (a
// big-endian host) does the mapping hold a copy for syncFloats to bring home.
func (m *Mapping) mapFloats(f []float32) {
	m.floats = f
	b, shared := data.ByteView(f)
	m.bytes, m.copied = b, !shared
}

// To declares map(to: name[...]): an input copied to the device.
func To(name string, v any) Mapping { return newMapping(name, v, dirTo) }

// From declares map(from: name[...]): an output copied back to the host.
func From(name string, v any) Mapping { return newMapping(name, v, dirFrom) }

// ToFrom declares map(tofrom: name[...]): both input and output. ToFrom
// buffers must be partitioned, because an unpartitioned tofrom would feed
// stale values into the bit-OR reconstruction.
func ToFrom(name string, v any) Mapping { return newMapping(name, v, dirToFrom) }

// Alloc declares map(alloc: name[...]): device-only storage, neither copied
// in nor copied out. Only meaningful inside a TargetData environment, where
// it holds intermediates between loops (2MM's tmp, 3MM's E and F).
func Alloc(name string, v any) Mapping { return newMapping(name, v, dirAlloc) }

// Partition applies the paper's §III.B extension: iteration i owns elements
// [i*elemsPerIter, (i+1)*elemsPerIter) of this buffer — the Go spelling of
// `#pragma omp target data map(to: A[i*N:(i+1)*N])`. Elements are float32
// sized for []float32 mappings and bytes for []byte mappings.
func (m Mapping) Partition(elemsPerIter int) Mapping {
	if elemsPerIter <= 0 {
		m.err = fmt.Errorf("omp: map(%s): partition stride must be positive", m.name)
		return m
	}
	unit := int64(1)
	if m.floats != nil || m.size > 0 {
		unit = data.FloatSize
	}
	m.perIter = int64(elemsPerIter) * unit
	return m
}

// Sum declares reduction(+: name) on an output.
func (m Mapping) Sum() Mapping {
	m.reduce = offload.ReduceSumF32
	return m
}

// Max declares reduction(max: name) on an output.
func (m Mapping) Max() Mapping {
	m.reduce = offload.ReduceMaxF32
	return m
}

// Min declares reduction(min: name) on an output.
func (m Mapping) Min() Mapping {
	m.reduce = offload.ReduceMinF32
	return m
}

// TargetRegion is an `omp target` construct under assembly.
type TargetRegion struct {
	dev      Device
	maps     []Mapping
	tiles    int
	registry *fatbin.Registry
	err      error
}

// Target opens a target region on dev with the given map clauses —
// `#pragma omp target device(dev) map(...)`.
func (rt *Runtime) Target(dev Device, maps ...Mapping) *TargetRegion {
	t := &TargetRegion{dev: dev, maps: maps}
	if dev.rt != rt {
		t.err = fmt.Errorf("omp: device belongs to a different runtime")
	}
	return t
}

// Tiles overrides Algorithm 1's automatic loop tiling (tile count = device
// cores); useful for ablation studies.
func (t *TargetRegion) Tiles(n int) *TargetRegion {
	t.tiles = n
	return t
}

// WithRegistry resolves kernels from a non-default fat-binary registry.
func (t *TargetRegion) WithRegistry(reg *fatbin.Registry) *TargetRegion {
	t.registry = reg
	return t
}

// lower turns a loop construct's map clauses — a `target` region's, or those
// of a loop inside a `target data` environment, which reference environment
// buffers by name — into the Region a Clang-lowered `target` would hand the
// runtime.
func lower(maps []Mapping, kernel string, n int64, scalars []int64, tiles int, reg *fatbin.Registry) (*offload.Region, error) {
	region := &offload.Region{
		Kernel:   kernel,
		Registry: reg,
		N:        n,
		Scalars:  scalars,
		Tiles:    tiles,
	}
	for i := range maps {
		m := &maps[i]
		if m.err != nil {
			return nil, m.err
		}
		buf := offload.Buffer{Name: m.name, Data: m.bytes, Size: m.size, BytesPerIter: m.perIter}
		switch m.dir {
		case dirTo:
			if m.reduce != offload.ReduceNone {
				return nil, fmt.Errorf("omp: map(to: %s) cannot carry a reduction", m.name)
			}
			region.Ins = append(region.Ins, buf)
		case dirFrom:
			out := buf
			if !out.Partitioned() && m.reduce == offload.ReduceNone {
				out.Reduce = offload.ReduceBitOr // the paper's default (Eq. 8)
			} else {
				out.Reduce = m.reduce
			}
			region.Outs = append(region.Outs, out)
		case dirToFrom:
			if !buf.Partitioned() {
				return nil, fmt.Errorf("omp: map(tofrom: %s) must be partitioned", m.name)
			}
			region.Ins = append(region.Ins, buf)
			region.Outs = append(region.Outs, buf)
		case dirAlloc:
			return nil, fmt.Errorf("omp: map(alloc: %s) is only valid as a TargetData clause; loops map with To/From/ToFrom", m.name)
		}
	}
	return region, nil
}

// ParallelFor closes the construct with `#pragma omp parallel for` over n
// iterations whose body is the registered kernel: it lowers the region,
// executes it on the target device (with host fallback), and copies the
// from-mapped buffers back. scalars are the firstprivate values the body
// receives.
func (t *TargetRegion) ParallelFor(n int64, kernel string, scalars ...int64) (*trace.Report, error) {
	if t.err != nil {
		return nil, t.err
	}
	region, err := lower(t.maps, kernel, n, scalars, t.tiles, t.registry)
	if err != nil {
		return nil, err
	}
	rep, err := t.dev.rt.mgr.Run(t.dev.id, region)
	if err != nil {
		return nil, err
	}
	syncFloats(t.maps)
	return rep, nil
}

// syncFloats is the map(from:) copy-out for the []float32 mappings whose
// device bytes could not be a view of the user's slice.
func syncFloats(maps []Mapping) {
	for i := range maps {
		m := &maps[i]
		if m.copied && m.dir != dirTo {
			copy(m.floats, data.Floats(m.bytes))
		}
	}
}
