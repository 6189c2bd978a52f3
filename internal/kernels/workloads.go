package kernels

import (
	"fmt"
	"math"

	"ompcloud/internal/data"
	"ompcloud/internal/omp"
	"ompcloud/internal/trace"
)

// Benchmark describes one evaluation workload of the paper's §IV.
type Benchmark struct {
	// Name is the paper's spelling ("2mm", "collinear-list", ...).
	Name string
	// Suite is "polybench" or "mgbench".
	Suite string
	// PaperN is the dataset dimension at paper scale (~1 GB matrices for
	// the dense-matrix benchmarks; point count for collinear-list).
	PaperN int
	// Ops reports the floating-point operation count at dimension n.
	Ops func(n int) float64
	// Prepare generates a workload instance with seeded inputs. Under
	// data.SizeOnly its matrices have shapes and no elements: Run lowers onto
	// a device that prices without executing, and nothing else applies.
	Prepare func(n int, kind data.Kind, seed int64) *Workload
}

// Workload is one prepared benchmark instance: call Run to execute it on a
// device, then Verify to compare against the serial reference.
type Workload struct {
	Bench *Benchmark
	N     int
	Kind  data.Kind

	// Run executes the workload's target regions on dev and returns the
	// merged report. Run may be called several times (e.g. once per
	// device); each call recomputes from the pristine inputs.
	Run func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error)
	// Serial computes the expected output with the serial.go transcription
	// of the paper's C loops: Verify's reference, and the single-core time
	// perf.Calibrate measures, so model-mode predictions follow the paper's
	// program and not however the registered loop bodies are tuned.
	Serial func() []float32
	// Verify checks the outputs of the most recent Run against Serial.
	Verify func() error
	// Outputs exposes the live output buffers of the most recent Run,
	// for harnesses that compare two devices (or two transfer policies)
	// bit for bit rather than against the serial reference.
	Outputs func() [][]float32
}

// All lists the eight benchmarks in the paper's Figure 4/5 order.
var All = []*Benchmark{SYRK, SYR2K, COVAR, GEMM, TwoMM, ThreeMM, MatMul, Collinear}

// ByName resolves a benchmark by its paper name.
func ByName(name string) (*Benchmark, error) {
	for _, b := range All {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown benchmark %q", name)
}

// paperDim is the matrix dimension giving ~1 GB float32 matrices
// (4 * 16384^2 bytes = 1 GiB), matching "most matrices used by the
// benchmarks have been scaled to about 1GB".
const paperDim = 16384

// GEMM is Polybench gemm: C = Alpha*A*B + Beta*C, parallel over rows of C.
// A and C are row-partitioned (the Listing 2 extension), B is broadcast.
var GEMM = &Benchmark{
	Name: "gemm", Suite: "polybench", PaperN: paperDim,
	Ops: func(n int) float64 { f := float64(n); return 2*f*f*f + 2*f*f },
}

// MatMul is MgBench mat-mul: plain C = A x B.
var MatMul = &Benchmark{
	Name: "mat-mul", Suite: "mgbench", PaperN: paperDim,
	Ops: func(n int) float64 { f := float64(n); return 2 * f * f * f },
}

// SYRK is Polybench syrk: C = Alpha*A*A^T + Beta*C. Every row of C needs
// all of A, so A is broadcast whole — the benchmark with the heaviest
// intra-cluster traffic, which is exactly why the paper measures its Spark
// overhead growing from 17% to 69% across the core sweep.
var SYRK = &Benchmark{
	Name: "syrk", Suite: "polybench", PaperN: paperDim,
	Ops: func(n int) float64 { f := float64(n); return 2*f*f*f + 2*f*f },
}

// SYR2K is Polybench syr2k: C = Alpha*A*B^T + Alpha*B*A^T + Beta*C.
var SYR2K = &Benchmark{
	Name: "syr2k", Suite: "polybench", PaperN: paperDim,
	Ops: func(n int) float64 { f := float64(n); return 4*f*f*f + 2*f*f },
}

// COVAR is Polybench covariance: column means, then the covariance matrix.
// Two parallel loops share a target data environment, so the mean vector
// stays on the device between them.
var COVAR = &Benchmark{
	Name: "covar", Suite: "polybench", PaperN: paperDim,
	Ops: func(n int) float64 { f := float64(n); return 3*f*f*f + 2*f*f },
}

// TwoMM is Polybench 2mm: D = Alpha*A*B*C + Beta*D, two chained
// multiplications with the intermediate tmp pinned on the device.
var TwoMM = &Benchmark{
	Name: "2mm", Suite: "polybench", PaperN: paperDim,
	Ops: func(n int) float64 { f := float64(n); return 4*f*f*f + 2*f*f },
}

// ThreeMM is Polybench 3mm: G = (A x B) x (C x D), three multiplications
// with both intermediates device-resident.
var ThreeMM = &Benchmark{
	Name: "3mm", Suite: "polybench", PaperN: paperDim,
	Ops: func(n int) float64 { f := float64(n); return 6 * f * f * f },
}

// Collinear is MgBench collinear-list: count collinear triples among n 2D
// points. Tiny data, cubic compute — the paper's high
// computation-to-communication benchmark.
var Collinear = &Benchmark{
	Name: "collinear-list", Suite: "mgbench", PaperN: paperDim,
	Ops: func(n int) float64 { f := float64(n); return 2 * f * f * f },
}

func init() {
	GEMM.Prepare = prepareGEMM
	MatMul.Prepare = prepareMatMul
	SYRK.Prepare = prepareSYRK
	SYR2K.Prepare = prepareSYR2K
	COVAR.Prepare = prepareCOVAR
	TwoMM.Prepare = prepareTwoMM
	ThreeMM.Prepare = prepareThreeMM
	Collinear.Prepare = prepareCollinear
}

// compare verifies an offloaded result against the serial reference within
// an absolute tolerance of 1e-2: the check of the benchmarks whose bodies
// have not been shown bit-exact end to end.
func compare(what string, got, want []float32) error {
	diff, err := data.MaxAbsDiff(got, want)
	if err != nil {
		return fmt.Errorf("kernels: %s: %w", what, err)
	}
	if diff > 1e-2 {
		return fmt.Errorf("kernels: %s diverges from serial reference by %g", what, diff)
	}
	return nil
}

// compareExact verifies an offloaded result against the serial reference bit
// for bit: the check of gemm, mat-mul, 2mm and 3mm, whose every element
// mulAdd computes in serial.go's order and rounding on both of its paths.
func compareExact(what string, got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("kernels: %s: %d elements, serial reference %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			return fmt.Errorf("kernels: %s element %d = %v (%#x), serial reference %v (%#x)",
				what, i, got[i], g, want[i], w)
		}
	}
	return nil
}

func prepareGEMM(n int, kind data.Kind, seed int64) *Workload {
	a := data.Generate(n, n, kind, seed)
	b := data.Generate(n, n, kind, seed+1)
	c0 := data.Generate(n, n, kind, seed+2)
	c := c0.Clone()
	w := &Workload{Bench: GEMM, N: n, Kind: kind}
	w.Run = func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error) {
		copy(c.V, c0.V) // pristine inputs per run
		return rt.Target(dev,
			omp.To("A", a).Partition(n),
			omp.To("B", b),
			omp.ToFrom("C", c).Partition(n),
		).ParallelFor(int64(n), "gemm", int64(n))
	}
	w.Serial = func() []float32 { return serialGEMM(n, a.V, b.V, c0.V) }
	w.Verify = func() error { return compareExact("gemm C", c.V, w.Serial()) }
	w.Outputs = func() [][]float32 { return [][]float32{c.V} }
	return w
}

func prepareMatMul(n int, kind data.Kind, seed int64) *Workload {
	a := data.Generate(n, n, kind, seed)
	b := data.Generate(n, n, kind, seed+1)
	c := data.Zeros(n, n, kind)
	w := &Workload{Bench: MatMul, N: n, Kind: kind}
	w.Run = func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error) {
		return rt.Target(dev,
			omp.To("A", a).Partition(n),
			omp.To("B", b),
			omp.From("C", c).Partition(n),
		).ParallelFor(int64(n), "mm", int64(n))
	}
	w.Serial = func() []float32 { return serialMM(n, a.V, b.V) }
	w.Verify = func() error { return compareExact("mat-mul C", c.V, w.Serial()) }
	w.Outputs = func() [][]float32 { return [][]float32{c.V} }
	return w
}

func prepareSYRK(n int, kind data.Kind, seed int64) *Workload {
	a := data.Generate(n, n, kind, seed)
	c0 := data.Generate(n, n, kind, seed+1)
	c := c0.Clone()
	w := &Workload{Bench: SYRK, N: n, Kind: kind}
	w.Run = func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error) {
		copy(c.V, c0.V)
		return rt.Target(dev,
			omp.To("A", a),
			omp.ToFrom("C", c).Partition(n),
		).ParallelFor(int64(n), "syrk", int64(n))
	}
	w.Serial = func() []float32 { return serialSYRK(n, a.V, c0.V) }
	w.Verify = func() error { return compare("syrk C", c.V, w.Serial()) }
	w.Outputs = func() [][]float32 { return [][]float32{c.V} }
	return w
}

func prepareSYR2K(n int, kind data.Kind, seed int64) *Workload {
	a := data.Generate(n, n, kind, seed)
	b := data.Generate(n, n, kind, seed+1)
	c0 := data.Generate(n, n, kind, seed+2)
	c := c0.Clone()
	w := &Workload{Bench: SYR2K, N: n, Kind: kind}
	w.Run = func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error) {
		copy(c.V, c0.V)
		return rt.Target(dev,
			omp.To("A", a),
			omp.To("B", b),
			omp.ToFrom("C", c).Partition(n),
		).ParallelFor(int64(n), "syr2k", int64(n))
	}
	w.Serial = func() []float32 { return serialSYR2K(n, a.V, b.V, c0.V) }
	w.Verify = func() error { return compare("syr2k C", c.V, w.Serial()) }
	w.Outputs = func() [][]float32 { return [][]float32{c.V} }
	return w
}

func prepareCOVAR(n int, kind data.Kind, seed int64) *Workload {
	d := data.Generate(n, n, kind, seed)
	mean := data.Zeros(1, n, kind)
	sym := data.Zeros(n, n, kind)
	w := &Workload{Bench: COVAR, N: n, Kind: kind}
	w.Run = func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error) {
		env, err := rt.TargetData(dev,
			omp.To("data", d),
			omp.Alloc("mean", mean),
			omp.From("sym", sym),
		)
		if err != nil {
			return nil, err
		}
		if _, err := env.Loop(
			omp.To("data", d),
			omp.From("mean", mean).Partition(1),
		).ParallelFor(int64(n), "covar.mean", int64(n), int64(n)); err != nil {
			return nil, err
		}
		if _, err := env.Loop(
			omp.To("data", d),
			omp.To("mean", mean),
			omp.From("sym", sym).Partition(n),
		).ParallelFor(int64(n), "covar.sym", int64(n), int64(n)); err != nil {
			return nil, err
		}
		if _, err := env.Close(); err != nil {
			return nil, err
		}
		return env.Report(), nil
	}
	w.Serial = func() []float32 {
		_, wantSym := serialCovar(n, n, d.V)
		return wantSym
	}
	w.Verify = func() error { return compare("covar sym", sym.V, w.Serial()) }
	w.Outputs = func() [][]float32 { return [][]float32{sym.V} }
	return w
}

func prepareTwoMM(n int, kind data.Kind, seed int64) *Workload {
	a := data.Generate(n, n, kind, seed)
	b := data.Generate(n, n, kind, seed+1)
	c := data.Generate(n, n, kind, seed+2)
	d0 := data.Generate(n, n, kind, seed+3)
	dm := d0.Clone()
	tmp := data.Zeros(n, n, kind)
	w := &Workload{Bench: TwoMM, N: n, Kind: kind}
	w.Run = func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error) {
		copy(dm.V, d0.V)
		env, err := rt.TargetData(dev,
			omp.To("A", a),
			omp.To("B", b),
			omp.To("C", c),
			omp.ToFrom("D", dm).Partition(n),
			omp.Alloc("tmp", tmp),
		)
		if err != nil {
			return nil, err
		}
		// tmp = A x B
		if _, err := env.Loop(
			omp.To("A", a).Partition(n),
			omp.To("B", b),
			omp.From("tmp", tmp).Partition(n),
		).ParallelFor(int64(n), "mm", int64(n)); err != nil {
			return nil, err
		}
		// D = Alpha*tmp*C + Beta*D
		if _, err := env.Loop(
			omp.To("tmp", tmp).Partition(n),
			omp.To("C", c),
			omp.ToFrom("D", dm).Partition(n),
		).ParallelFor(int64(n), "gemm", int64(n)); err != nil {
			return nil, err
		}
		if _, err := env.Close(); err != nil {
			return nil, err
		}
		return env.Report(), nil
	}
	w.Serial = func() []float32 {
		return serialGEMM(n, serialMM(n, a.V, b.V), c.V, d0.V)
	}
	w.Verify = func() error { return compareExact("2mm D", dm.V, w.Serial()) }
	w.Outputs = func() [][]float32 { return [][]float32{dm.V} }
	return w
}

func prepareThreeMM(n int, kind data.Kind, seed int64) *Workload {
	a := data.Generate(n, n, kind, seed)
	b := data.Generate(n, n, kind, seed+1)
	c := data.Generate(n, n, kind, seed+2)
	d := data.Generate(n, n, kind, seed+3)
	e := data.Zeros(n, n, kind)
	f := data.Zeros(n, n, kind)
	g := data.Zeros(n, n, kind)
	w := &Workload{Bench: ThreeMM, N: n, Kind: kind}
	w.Run = func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error) {
		env, err := rt.TargetData(dev,
			omp.To("A", a), omp.To("B", b), omp.To("C", c), omp.To("D", d),
			omp.Alloc("E", e), omp.Alloc("F", f),
			omp.From("G", g),
		)
		if err != nil {
			return nil, err
		}
		steps := []struct {
			x, y, out string
			xm, ym    *data.Matrix
			om        *data.Matrix
		}{
			{"A", "B", "E", a, b, e},
			{"C", "D", "F", c, d, f},
			{"E", "F", "G", e, f, g},
		}
		for _, s := range steps {
			if _, err := env.Loop(
				omp.To(s.x, s.xm).Partition(n),
				omp.To(s.y, s.ym),
				omp.From(s.out, s.om).Partition(n),
			).ParallelFor(int64(n), "mm", int64(n)); err != nil {
				return nil, err
			}
		}
		if _, err := env.Close(); err != nil {
			return nil, err
		}
		return env.Report(), nil
	}
	w.Serial = func() []float32 {
		return serialMM(n, serialMM(n, a.V, b.V), serialMM(n, c.V, d.V))
	}
	w.Verify = func() error { return compareExact("3mm G", g.V, w.Serial()) }
	w.Outputs = func() [][]float32 { return [][]float32{g.V} }
	return w
}

func prepareCollinear(n int, kind data.Kind, seed int64) *Workload {
	// kind selects the coordinate distribution: dense points are
	// uniform, sparse ones are snapped to a coarse grid (many exact
	// collinearities, compressible coordinates).
	pts := data.Generate(1, 2*n, kind, seed)
	if kind == data.Sparse {
		for i, v := range pts.V {
			pts.V[i] = float32(int(v*8)) / 8
		}
	}
	count := data.Zeros(1, 1, kind)
	w := &Workload{Bench: Collinear, N: n, Kind: kind}
	w.Run = func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error) {
		clear(count.V)
		return rt.Target(dev,
			omp.To("pts", pts),
			omp.From("count", count).Sum(),
		).ParallelFor(int64(n), "collinear", int64(n))
	}
	w.Serial = func() []float32 { return []float32{serialCollinear(n, pts.V)} }
	w.Verify = func() error { return compare("collinear count", count.V, w.Serial()) }
	w.Outputs = func() [][]float32 { return [][]float32{count.V} }
	return w
}
