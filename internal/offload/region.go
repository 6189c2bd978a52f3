// Package offload is the reproduction's libomptarget: the target-agnostic
// offloading wrapper of the paper's Fig. 2 (component 2) plus the
// target-specific plugins (component 3). A compiler lowering `#pragma omp
// target device(...) map(...)` produces exactly one Region value and hands
// it to the device manager, which routes it to a plugin — the host-threads
// device or the cloud device — or falls back to the host when the requested
// device is unavailable (§III.A).
package offload

import (
	"cmp"
	"fmt"

	"ompcloud/internal/fatbin"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
)

// ReduceOp selects how per-tile copies of an output variable are combined
// by the driver (Eq. 8 of the paper).
type ReduceOp int

const (
	// ReduceNone marks a partitioned output: every tile writes a disjoint
	// window, the driver reassembles by offset.
	ReduceNone ReduceOp = iota
	// ReduceBitOr combines full-size per-tile copies with bitwise OR —
	// the paper's default for unpartitioned outputs, correct because each
	// DOALL iteration writes disjoint elements and untouched elements
	// stay zero.
	ReduceBitOr
	// ReduceSumF32 is a declared OpenMP reduction(+: x) over float32
	// elements; Spark "performs the reduction using the predefined
	// function instead of the bitwise-or".
	ReduceSumF32
	// ReduceMaxF32 is a declared OpenMP reduction(max: x).
	ReduceMaxF32
	// ReduceMinF32 is a declared OpenMP reduction(min: x).
	ReduceMinF32
)

// String implements fmt.Stringer.
func (op ReduceOp) String() string {
	switch op {
	case ReduceNone:
		return "none"
	case ReduceBitOr:
		return "bitor"
	case ReduceSumF32:
		return "sum"
	case ReduceMaxF32:
		return "max"
	case ReduceMinF32:
		return "min"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}

// Buffer is one mapped variable of a target region.
type Buffer struct {
	// Name identifies the variable in storage keys and logs.
	Name string
	// Data is the host buffer: read for inputs, overwritten for outputs.
	Data []byte
	// Size > 0 makes the buffer size-only: Size bytes long, Data nil. Only
	// a device that prices a program without running it (perf's model)
	// takes one; every device that executes refuses it.
	Size int64
	// BytesPerIter > 0 declares the partitioning extension of §III.B:
	// loop iteration i owns the byte window [i*BytesPerIter,
	// (i+1)*BytesPerIter). Zero means unpartitioned: inputs are broadcast
	// whole to every worker, outputs are combined with Reduce.
	BytesPerIter int64
	// Reduce applies to unpartitioned outputs only.
	Reduce ReduceOp
}

// Partitioned reports whether the buffer uses the partitioning extension.
func (b *Buffer) Partitioned() bool { return b.BytesPerIter > 0 }

// Len reports the buffer's length in bytes, size-only or not.
func (b *Buffer) Len() int64 { return int64(len(b.Data)) + b.Size }

// window reports the bytes of the buffer a tile of iterations [lo, hi)
// touches: its window when partitioned, all of it otherwise.
func (b *Buffer) window(lo, hi int64) int64 {
	if b.Partitioned() {
		return (hi - lo) * b.BytesPerIter
	}
	return b.Len()
}

// Region is the lowered form of one `omp target` construct containing a
// single DOALL `parallel for` of N iterations. More complex constructs
// (several parallel loops in one target region) lower to several Regions
// executed back to back, as the paper implements them with "successive
// map-reduce transformations within the Spark job".
type Region struct {
	// Kernel names the loop body in the fat-binary registry.
	Kernel string
	// Registry resolves the kernel; nil means fatbin.Default.
	Registry *fatbin.Registry
	// N is the parallel-for trip count.
	N int64
	// Base is the global iteration index of local iteration 0. Kernel
	// bodies receive global indices (broadcast inputs are indexed by the
	// original loop variable), so a sub-region covering iterations
	// [Base, Base+N) of a split loop carries window-sliced partitioned
	// buffers plus this offset; plugins invoke the kernel with
	// [Base+lo, Base+hi). Zero for an unsplit region.
	Base int64
	// Scalars are the firstprivate scalar parameters.
	Scalars []int64
	// Ins and Outs are the map(to:) and map(from:) buffers, in clause
	// order — the V_IN and V_OUT sets of Eq. 2 and Eq. 6.
	Ins  []Buffer
	Outs []Buffer
	// Tiles overrides the tile count; 0 applies Algorithm 1 (tile the
	// loop to the device's core count).
	Tiles int
}

func (r *Region) registry() *fatbin.Registry {
	if r.Registry != nil {
		return r.Registry
	}
	return fatbin.Default
}

// Validate checks the region's internal consistency.
func (r *Region) Validate() error {
	if r.Kernel == "" {
		return fmt.Errorf("offload: region has no kernel")
	}
	if r.N < 0 {
		return fmt.Errorf("offload: negative trip count %d", r.N)
	}
	if r.Base < 0 {
		return fmt.Errorf("offload: negative iteration base %d", r.Base)
	}
	if r.Tiles < 0 {
		return fmt.Errorf("offload: negative tile count %d", r.Tiles)
	}
	if _, err := r.registry().Lookup(r.Kernel); err != nil {
		return err
	}
	check := func(b *Buffer, out bool) error {
		if b.Name == "" {
			return fmt.Errorf("offload: unnamed buffer in region %s", r.Kernel)
		}
		if b.Size != 0 {
			return fmt.Errorf("offload: buffer %s is size-only: it has no bytes to run on", b.Name)
		}
		if b.BytesPerIter < 0 {
			return fmt.Errorf("offload: buffer %s: negative BytesPerIter", b.Name)
		}
		if b.Partitioned() && int64(len(b.Data)) != r.N*b.BytesPerIter {
			return fmt.Errorf("offload: buffer %s: %d bytes, want N*BytesPerIter = %d",
				b.Name, len(b.Data), r.N*b.BytesPerIter)
		}
		if out && !b.Partitioned() && b.Reduce == ReduceNone {
			return fmt.Errorf("offload: unpartitioned output %s needs a reduction (use ReduceBitOr)", b.Name)
		}
		if !out && b.Reduce != ReduceNone {
			return fmt.Errorf("offload: input %s cannot declare a reduction", b.Name)
		}
		if out && b.Partitioned() && b.Reduce != ReduceNone {
			return fmt.Errorf("offload: partitioned output %s cannot also declare a reduction", b.Name)
		}
		if (b.Reduce == ReduceSumF32 || b.Reduce == ReduceMaxF32 || b.Reduce == ReduceMinF32) && len(b.Data)%4 != 0 {
			return fmt.Errorf("offload: float reduction on %s requires a float32 buffer", b.Name)
		}
		return nil
	}
	for i := range r.Ins {
		if err := check(&r.Ins[i], false); err != nil {
			return err
		}
	}
	for i := range r.Outs {
		if err := check(&r.Outs[i], true); err != nil {
			return err
		}
	}
	if len(r.Outs) == 0 {
		return fmt.Errorf("offload: region %s has no outputs", r.Kernel)
	}
	return nil
}

// TileCount applies Algorithm 1: the outer loop is tiled so the tile count
// matches the device core count ("the closer the number of iterations is to
// the number of cores, the smaller will be the [JNI] overhead"), clamped to
// the trip count. An explicit Tiles value wins, also clamped.
func (r *Region) TileCount(cores int) int {
	if r.N == 0 {
		return 0
	}
	return int(max(1, min(int64(cmp.Or(r.Tiles, cores)), r.N)))
}

// TileRange reports the iteration interval [lo, hi) of tile p out of tiles:
// Spark's partition of the loop, so partitioned buffers line up with loop
// tiles.
func TileRange(n int64, tiles, p int) (lo, hi int64) {
	l, h := spark.PartitionRange(int(n), tiles, p)
	return int64(l), int64(h)
}

// OutBytesRaw sums the raw sizes of all outputs.
func (r *Region) OutBytesRaw() int64 {
	var n int64
	for i := range r.Outs {
		n += r.Outs[i].Len()
	}
	return n
}

// JNI is the cost model of the Java Native Interface boundary each Spark
// task crosses to run the native loop body: a fixed call cost plus byte
// marshalling of the task's inputs and outputs.
type JNI struct {
	CallBase  simtime.Duration // per-invocation constant
	BytesPerS float64          // marshalling throughput
}

// DefaultJNI models the per-task native boundary at 300 MB/s: JNI array
// copies plus the worker-side deserialization/decompression of the task's
// inputs. This is the term behind the paper's *sublinear* computation
// speedups (3MM reaches 143x, not 256x, on 256 cores): per-task work
// shrinks with the cluster but each task still touches its full broadcast
// inputs at the boundary.
func DefaultJNI() JNI {
	return JNI{CallBase: simtime.Millisecond, BytesPerS: 3e8}
}

// PerCall reports the virtual JNI overhead for a task moving n bytes across
// the boundary.
func (j JNI) PerCall(n int64) simtime.Duration {
	if n < 0 {
		panic("offload: negative JNI byte count")
	}
	d := j.CallBase
	if j.BytesPerS > 0 {
		d += simtime.FromSeconds(float64(n) / j.BytesPerS)
	}
	return d
}
