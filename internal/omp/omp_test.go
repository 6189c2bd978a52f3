package omp

import (
	"errors"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/offload"
	"ompcloud/internal/resilience"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
)

var testReg = fatbin.NewRegistry()

func init() {
	// matmul over linearized n x n float32 matrices: A row-partitioned,
	// B broadcast, C row-partitioned (Listing 1 + Listing 2).
	testReg.Register("matmul", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a := data.Floats(in[0]) // rows [lo, hi) of A
		b := data.Floats(in[1]) // all of B
		rows := int(hi - lo)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				var sum float32
				for k := 0; k < n; k++ {
					sum += a[i*n+k] * b[k*n+j]
				}
				data.PutFloat(out[0], i*n+j, sum)
			}
		}
		return nil
	})
	// axpyInPlace: tofrom partitioned buffer Y += 2*X.
	testReg.Register("axpyInPlace", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		x := data.Floats(in[0])
		y := data.Floats(in[1])
		for i := range y {
			data.PutFloat(out[0], i, y[i]+2*x[i])
		}
		return nil
	})
	// dotpart: reduction(+: s) over partitioned x, y.
	testReg.Register("dotpart", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		x := data.Floats(in[0])
		y := data.Floats(in[1])
		var s float32
		for i := range x {
			s += x[i] * y[i]
		}
		data.PutFloat(out[0], 0, s)
		return nil
	})
}

func newCloudRuntime(t *testing.T) (*Runtime, Device) {
	t.Helper()
	rt, err := NewRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	plugin, err := offload.NewCloudPlugin(offload.CloudConfig{
		Spec:  spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
		Store: storage.NewMemStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, rt.RegisterDevice(plugin)
}

func serialMatMul(a, b *data.Matrix) *data.Matrix {
	n := a.Rows
	c := data.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for k := 0; k < n; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, sum)
		}
	}
	return c
}

func TestListing1MatMulOnCloud(t *testing.T) {
	rt, cloud := newCloudRuntime(t)
	n := 24
	a := data.Generate(n, n, data.Dense, 1)
	b := data.Generate(n, n, data.Dense, 2)
	c := data.NewMatrix(n, n)

	rep, err := rt.Target(cloud,
		To("A", a).Partition(n),
		To("B", b),
		From("C", c).Partition(n),
	).WithRegistry(testReg).ParallelFor(int64(n), "matmul", int64(n))
	if err != nil {
		t.Fatal(err)
	}
	want := serialMatMul(a, b)
	if !data.AlmostEqual(c.V, want.V, 1e-4) {
		t.Fatal("cloud matmul result wrong")
	}
	if rep.FellBack {
		t.Fatal("should not have fallen back")
	}
	if rep.Tiles == 0 || rep.Total() <= 0 {
		t.Fatalf("report empty: %+v", rep)
	}
}

func TestMatMulOnHostMatchesCloud(t *testing.T) {
	rt, cloud := newCloudRuntime(t)
	n := 16
	a := data.Generate(n, n, data.Sparse, 3)
	b := data.Generate(n, n, data.Dense, 4)
	cHost := data.NewMatrix(n, n)
	cCloud := data.NewMatrix(n, n)

	for _, tc := range []struct {
		dev Device
		out *data.Matrix
	}{{rt.HostDevice(), cHost}, {cloud, cCloud}} {
		_, err := rt.Target(tc.dev,
			To("A", a).Partition(n),
			To("B", b),
			From("C", tc.out).Partition(n),
		).WithRegistry(testReg).ParallelFor(int64(n), "matmul", int64(n))
		if err != nil {
			t.Fatal(err)
		}
	}
	if d, _ := data.MaxAbsDiff(cHost.V, cCloud.V); d != 0 {
		t.Fatalf("host and cloud differ by %v", d)
	}
}

func TestToFromInPlace(t *testing.T) {
	rt, cloud := newCloudRuntime(t)
	n := 64
	x := data.Generate(1, n, data.Dense, 5)
	y := data.Generate(1, n, data.Dense, 6)
	orig := y.Clone()
	_, err := rt.Target(cloud,
		To("X", x).Partition(1),
		ToFrom("Y", y).Partition(1),
	).WithRegistry(testReg).ParallelFor(int64(n), "axpyInPlace")
	if err != nil {
		t.Fatal(err)
	}
	for i := range y.V {
		want := orig.V[i] + 2*x.V[i]
		if y.V[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, y.V[i], want)
		}
	}
}

func TestSumReductionClause(t *testing.T) {
	rt, cloud := newCloudRuntime(t)
	n := 128
	x := data.Generate(1, n, data.Dense, 7)
	y := data.Generate(1, n, data.Dense, 8)
	s := []float32{0}
	_, err := rt.Target(cloud,
		To("X", x).Partition(1),
		To("Y", y).Partition(1),
		From("s", s).Sum(),
	).WithRegistry(testReg).ParallelFor(int64(n), "dotpart")
	if err != nil {
		t.Fatal(err)
	}
	var want float32
	for i := range x.V {
		want += x.V[i] * y.V[i]
	}
	if !data.AlmostEqual(s, []float32{want}, 1e-3) {
		t.Fatalf("dot = %v, want %v", s[0], want)
	}
}

func TestDeviceNumbering(t *testing.T) {
	rt, err := NewRuntime(2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumDevices() != 0 {
		t.Fatalf("fresh runtime NumDevices = %d", rt.NumDevices())
	}
	if rt.DefaultDevice() != rt.HostDevice() {
		t.Fatal("default device without registrations must be host")
	}
	plugin, _ := offload.NewCloudPlugin(offload.CloudConfig{
		Spec:  spark.ClusterSpec{Workers: 1, CoresPerWorker: 1},
		Store: storage.NewMemStore(),
	})
	dev := rt.RegisterDevice(plugin)
	if rt.NumDevices() != 1 {
		t.Fatalf("NumDevices = %d", rt.NumDevices())
	}
	if rt.DefaultDevice() != dev {
		t.Fatal("default device should be the first registered")
	}
	if rt.Manager() == nil {
		t.Fatal("Manager accessor broken")
	}
}

func TestMappingErrors(t *testing.T) {
	rt, _ := NewRuntime(2)
	host := rt.HostDevice()

	// Unsupported type.
	if _, err := rt.Target(host, To("A", 42)).ParallelFor(1, "x"); err == nil {
		t.Fatal("mapping an int should fail")
	}
	// Bad partition stride.
	if _, err := rt.Target(host, To("A", []float32{1}).Partition(0)).
		ParallelFor(1, "x"); err == nil {
		t.Fatal("zero stride should fail")
	}
	// Reduction on an input.
	m := To("A", []float32{1})
	m.reduce = offload.ReduceSumF32
	if _, err := rt.Target(host, m).ParallelFor(1, "x"); err == nil {
		t.Fatal("reduction on input should fail")
	}
	// Unpartitioned tofrom.
	if _, err := rt.Target(host, ToFrom("A", []float32{1})).
		ParallelFor(1, "x"); err == nil {
		t.Fatal("unpartitioned tofrom should fail")
	}
	// Cross-runtime device.
	rt2, _ := NewRuntime(2)
	if _, err := rt.Target(rt2.HostDevice()).ParallelFor(1, "x"); err == nil {
		t.Fatal("cross-runtime device should fail")
	}
}

func TestByteMappings(t *testing.T) {
	// Raw []byte mapping with byte-granularity partitioning.
	reg := fatbin.NewRegistry()
	reg.Register("bytecopy", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		copy(out[0], in[0])
		return nil
	})
	rt, _ := NewRuntime(2)
	in := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	out := make([]byte, 8)
	_, err := rt.Target(rt.HostDevice(),
		To("in", in).Partition(2),
		From("out", out).Partition(2),
	).WithRegistry(reg).ParallelFor(4, "bytecopy")
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("byte mapping copy failed at %d", i)
		}
	}
}

func TestTilesOverride(t *testing.T) {
	rt, cloud := newCloudRuntime(t)
	n := 32
	a := data.Generate(n, n, data.Dense, 9)
	b := data.Generate(n, n, data.Dense, 10)
	c := data.NewMatrix(n, n)
	rep, err := rt.Target(cloud,
		To("A", a).Partition(n),
		To("B", b),
		From("C", c).Partition(n),
	).Tiles(2).WithRegistry(testReg).ParallelFor(int64(n), "matmul", int64(n))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tiles != 2 {
		t.Fatalf("Tiles = %d, want override 2", rep.Tiles)
	}
}

func TestSequentialKernelOffload(t *testing.T) {
	// §III.D: "similar techniques also allow one to implement the
	// offloading of sequential code kernels" — a single-iteration target
	// region runs the whole kernel as one tile on one cloud core.
	reg := fatbin.NewRegistry()
	reg.Register("seqsum", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		a := data.Floats(in[0])
		var s float32
		for _, v := range a {
			s += v
		}
		data.PutFloat(out[0], 0, s)
		return nil
	})
	rt, cloud := newCloudRuntime(t)
	x := data.Generate(1, 1000, data.Dense, 70)
	out := []float32{0}
	rep, err := rt.Target(cloud,
		To("x", x),
		From("s", out).Sum(),
	).WithRegistry(reg).ParallelFor(1, "seqsum")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tiles != 1 {
		t.Fatalf("sequential kernel should run as one tile, got %d", rep.Tiles)
	}
	var want float32
	for _, v := range x.V {
		want += v
	}
	if !data.AlmostEqual(out, []float32{want}, 1e-3) {
		t.Fatalf("seq sum = %v, want %v", out[0], want)
	}
}

func TestMinReductionClause(t *testing.T) {
	reg := fatbin.NewRegistry()
	reg.Register("minval", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		x := data.Floats(in[0])
		m := float32(1e38)
		for _, v := range x {
			if v < m {
				m = v
			}
		}
		data.PutFloat(out[0], 0, m)
		return nil
	})
	rt, cloud := newCloudRuntime(t)
	n := 256
	x := data.Generate(1, n, data.Dense, 71)
	out := []float32{0}
	for _, dev := range []Device{rt.HostDevice(), cloud} {
		out[0] = 0
		if _, err := rt.Target(dev,
			To("x", x).Partition(1),
			From("m", out).Min(),
		).WithRegistry(reg).ParallelFor(int64(n), "minval"); err != nil {
			t.Fatal(err)
		}
		want := x.V[0]
		for _, v := range x.V {
			if v < want {
				want = v
			}
		}
		if out[0] != want {
			t.Fatalf("min = %v, want %v", out[0], want)
		}
	}
}

// scribbler is a device that writes into the region's first output the way a
// streamed download would, checks what the host program sees at that moment,
// and then fails or succeeds as told.
type scribbler struct {
	seen func() // runs right after the device wrote, before Run returns
	err  error
}

func (s *scribbler) Name() string    { return "scribbler" }
func (s *scribbler) Available() bool { return true }
func (s *scribbler) Cores() int      { return 1 }
func (s *scribbler) Run(r *offload.Region) (*trace.Report, error) {
	out := r.Outs[0].Data
	for i := 0; i < len(out)/data.FloatSize; i++ {
		data.PutFloat(out, i, -7)
	}
	s.seen()
	if s.err != nil {
		return nil, s.err
	}
	return trace.NewReport(s.Name(), r.Kernel), nil
}

// TestFloatMappingsAreViews pins the omp half of the zero-copy data path: a
// mapped []float32 is the device's buffer, not a serialized copy of it.
func TestFloatMappingsAreViews(t *testing.T) {
	rt, err := NewRuntime(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	x := data.Generate(1, n, data.Dense, 5)
	y := data.Generate(1, n, data.Dense, 6)
	orig := y.Clone()

	// A device write is in the user's slice before any copy-out ran.
	sawWrite := false
	dev := &scribbler{seen: func() { sawWrite = y.V[0] == -7 && y.V[n-1] == -7 }}
	if _, err := rt.Target(rt.RegisterDevice(dev),
		To("X", x).Partition(1),
		From("Y", y.V).Partition(1),
	).WithRegistry(testReg).ParallelFor(n, "axpyInPlace"); err != nil {
		t.Fatal(err)
	}
	if !sawWrite {
		t.Fatal("device write was not visible in the mapped []float32 while the region ran")
	}

	// So a device that scribbles over a tofrom variable and then fails
	// transiently has scribbled over the host pass's input: Manager.Run's
	// snapshot of input-aliased outputs must put it back first.
	copy(y.V, orig.V)
	dev = &scribbler{seen: func() {}, err: resilience.MarkTransient(errors.New("lost worker"))}
	rep, err := rt.Target(rt.RegisterDevice(dev),
		To("X", x).Partition(1),
		ToFrom("Y", y).Partition(1),
	).WithRegistry(testReg).ParallelFor(n, "axpyInPlace")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack {
		t.Fatal("transient device failure did not fall back to the host")
	}
	for i := range y.V {
		if want := orig.V[i] + 2*x.V[i]; y.V[i] != want {
			t.Fatalf("y[%d] = %v after fallback, want %v: the host pass read the failed device's bytes", i, y.V[i], want)
		}
	}
}
