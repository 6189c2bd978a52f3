package omp

import (
	"fmt"

	"ompcloud/internal/fatbin"
	"ompcloud/internal/offload"
	"ompcloud/internal/trace"
)

// DataEnv is an open `#pragma omp target data` environment: its buffers
// live on the device across several ParallelFor loops, so intermediates of
// multi-kernel benchmarks (2MM's tmp, 3MM's E and F) never cross the
// host-target link — the paper's "successive map-reduce transformations
// within the Spark job" (§III.D).
type DataEnv struct {
	env     offload.Env
	device  string
	maps    []Mapping
	reports []*trace.Report
	fell    bool
}

// TargetData opens a device data environment on dev with the given map
// clauses. Partition modifiers are ignored here (partitioning is a per-loop
// property); direction decides upload (to/tofrom) and download (from/
// tofrom). If the device is unavailable the environment transparently opens
// on the host, mirroring the runtime's dynamic fallback.
func (rt *Runtime) TargetData(dev Device, maps ...Mapping) (*DataEnv, error) {
	if dev.rt != rt {
		return nil, fmt.Errorf("omp: device belongs to a different runtime")
	}
	plugin, err := rt.mgr.Device(dev.id)
	if err != nil {
		return nil, err
	}
	fell := false
	if !plugin.Available() {
		plugin = rt.mgr.Host()
		fell = true
	}
	ep, ok := plugin.(offload.EnvPlugin)
	if !ok {
		return nil, fmt.Errorf("omp: device %s does not support target data environments", plugin.Name())
	}
	bufs := make([]offload.EnvBuffer, 0, len(maps))
	for i := range maps {
		m := &maps[i]
		if m.err != nil {
			return nil, m.err
		}
		bufs = append(bufs, offload.EnvBuffer{
			Name:     m.name,
			Data:     m.bytes,
			Size:     m.size,
			Upload:   m.dir == dirTo || m.dir == dirToFrom,
			Download: m.dir == dirFrom || m.dir == dirToFrom,
		})
	}
	env, rep, err := ep.OpenEnv(bufs)
	if err != nil {
		return nil, err
	}
	if fell {
		rep.FellBack = true
	}
	return &DataEnv{
		env:     env,
		device:  plugin.Name(),
		maps:    maps,
		reports: []*trace.Report{rep},
		fell:    fell,
	}, nil
}

// FellBack reports whether the environment opened on the host because the
// requested device was unavailable.
func (e *DataEnv) FellBack() bool { return e.fell }

// EnvRegion is one parallel loop inside a data environment.
type EnvRegion struct {
	env      *DataEnv
	maps     []Mapping
	tiles    int
	registry *fatbin.Registry
}

// Loop opens a loop construct whose map clauses reference environment
// buffers by name; partition strides here are per-loop, exactly like the
// `target data map` lines of Listing 2.
func (e *DataEnv) Loop(maps ...Mapping) *EnvRegion {
	return &EnvRegion{env: e, maps: maps}
}

// Tiles overrides Algorithm 1's automatic tiling for this loop.
func (r *EnvRegion) Tiles(n int) *EnvRegion {
	r.tiles = n
	return r
}

// WithRegistry resolves the kernel from a non-default registry.
func (r *EnvRegion) WithRegistry(reg *fatbin.Registry) *EnvRegion {
	r.registry = reg
	return r
}

// ParallelFor executes the loop inside the environment. Results stay
// device-resident; only DataEnv.Close copies them back.
func (r *EnvRegion) ParallelFor(n int64, kernel string, scalars ...int64) (*trace.Report, error) {
	region, err := lower(r.maps, kernel, n, scalars, r.tiles, r.registry)
	if err != nil {
		return nil, err
	}
	rep, err := r.env.env.Run(region)
	if err != nil {
		return nil, err
	}
	r.env.reports = append(r.env.reports, rep)
	return rep, nil
}

// Close ends the environment: download-mapped buffers return to the host
// and user []float32 slices are synchronized. The device's environment is the
// one owner of the open/closed state: it refuses loops and a second Close
// once closed, and stays open — so Close can be retried — when the device
// turned the close away with a transient error before running it.
func (e *DataEnv) Close() (*trace.Report, error) {
	rep, err := e.env.Close()
	if err != nil {
		return nil, err
	}
	e.reports = append(e.reports, rep)
	syncFloats(e.maps)
	return rep, nil
}

// Report merges open, loop and close reports into the environment's total.
func (e *DataEnv) Report() *trace.Report {
	return trace.Merge(e.device, "target-data", trace.Sequential, e.reports...)
}
