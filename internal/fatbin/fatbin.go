// Package fatbin is the reproduction's stand-in for the paper's fat binary
// (§III.A, component 1): the single artifact that carries the host code, the
// Spark job and the natively compiled loop bodies that workers invoke
// through JNI. In Go, host and workers share one binary, so the moral
// equivalent of the ELF/JAR symbol table is a registry mapping kernel names
// to loop-body functions; the cloud device ships only the *name* and each
// worker resolves it locally — exactly the paper's JNI_region(...) dispatch,
// with a calibrated per-call overhead charged by the cost model.
package fatbin

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// LoopBody is the kernel ABI, the analog of the JNI_region(...) entry point.
// It computes loop iterations [lo, hi) of the annotated parallel-for.
//
//   - scalars carries the firstprivate scalar parameters of the target
//     region (e.g. the matrix dimension N).
//   - in[k] is the k-th mapped input in clause order: for a partitioned
//     input, the byte window covering exactly iterations [lo, hi); for an
//     unpartitioned (broadcast) input, the whole buffer. Inputs are
//     read-only.
//   - out[l] is the l-th mapped output: for a partitioned output, a
//     writable window covering [lo, hi); for an unpartitioned output, a
//     full-size buffer holding the reduction's identity (zeroes for the
//     default bitwise OR of Eq. 8) that the runtime later combines with the
//     declared reduction.
//
// A partitioned out window is *not* zeroed: on the host device it is the
// caller's live buffer, holding whatever the previous run left there, and on
// the cloud device it is a window of the driver's reconstruction buffer,
// which may hold the bytes of an earlier attempt of the same tile that failed
// part-way. So a body must write every element of it. And it may alias an
// input: a map(tofrom:) variable is one buffer in both lists, so on the host
// in[k] and out[l] can be the same memory. A body that writes its results in
// place must therefore read element i of such an input before it writes
// element i of the output. Windows are 4-byte aligned whenever the mapped
// buffer is.
//
// A body must touch only the windows it is handed: tiles compute into
// disjoint windows of one buffer, concurrently.
type LoopBody func(lo, hi int64, scalars []int64, in [][]byte, out [][]byte) error

// Kernel pairs a registered loop body with its metadata.
type Kernel struct {
	Name string
	Body LoopBody
}

// Registry is a named symbol table of kernels. The package-level Default
// registry plays the role of the process's fat binary; independent
// registries exist for tests.
type Registry struct {
	mu      sync.RWMutex
	kernels map[string]Kernel
	calls   atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{kernels: make(map[string]Kernel)}
}

// Default is the process-wide registry, populated by kernel packages in
// their init functions (the "linking" step of the fat binary).
var Default = NewRegistry()

// Register adds a kernel. Registering a duplicate name panics: two loop
// bodies with one symbol is a linker error, not a runtime condition.
func (r *Registry) Register(name string, body LoopBody) {
	if name == "" || body == nil {
		panic("fatbin: empty kernel name or nil body")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.kernels[name]; dup {
		panic(fmt.Sprintf("fatbin: duplicate kernel %q", name))
	}
	r.kernels[name] = Kernel{Name: name, Body: body}
}

// Lookup resolves a kernel by name.
func (r *Registry) Lookup(name string) (Kernel, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.kernels[name]
	if !ok {
		return Kernel{}, fmt.Errorf("fatbin: kernel %q not found (is its package linked in?)", name)
	}
	return k, nil
}

// Names lists the registered kernels, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.kernels))
	for n := range r.kernels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Invoke resolves and calls a kernel, counting the call — the JNI boundary
// crossing whose amortization motivates the paper's Algorithm 1 tiling.
func (r *Registry) Invoke(name string, lo, hi int64, scalars []int64, in, out [][]byte) error {
	k, err := r.Lookup(name)
	if err != nil {
		return err
	}
	if hi < lo {
		return fmt.Errorf("fatbin: inverted iteration range [%d, %d)", lo, hi)
	}
	r.calls.Add(1)
	return k.Body(lo, hi, scalars, in, out)
}

// Calls reports how many kernel invocations (JNI crossings) happened.
func (r *Registry) Calls() int64 { return r.calls.Load() }

// Register registers into the Default registry.
func Register(name string, body LoopBody) { Default.Register(name, body) }

// Lookup resolves from the Default registry.
func Lookup(name string) (Kernel, error) { return Default.Lookup(name) }
