package offload

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/simtime"
	"ompcloud/internal/trace"
)

// testRegistry holds the kernels shared by the offload tests.
var testRegistry = fatbin.NewRegistry()

func init() {
	// scale2: out[i] = 2 * in[i]; both buffers partitioned, one float per
	// iteration.
	testRegistry.Register("scale2", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		a := data.Floats(in[0])
		for i := range a {
			data.PutFloat(out[0], i, 2*a[i])
		}
		return nil
	})
	// sumsq: scalar reduction out[0] += in[i]^2 over the tile;
	// unpartitioned single-float output with ReduceSumF32.
	testRegistry.Register("sumsq", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		a := data.Floats(in[0])
		var s float32
		for _, v := range a {
			s += v * v
		}
		data.PutFloat(out[0], 0, s)
		return nil
	})
	// maxval: unpartitioned single-float output with ReduceMaxF32.
	testRegistry.Register("maxval", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		a := data.Floats(in[0])
		m := float32(-1e38)
		for _, v := range a {
			if v > m {
				m = v
			}
		}
		data.PutFloat(out[0], 0, m)
		return nil
	})
	// fillwindow: unpartitioned full-size output; each tile writes only
	// its own global window, so bit-OR reconstruction must equal direct
	// writes (the paper's Eq. 8 default path).
	testRegistry.Register("fillwindow", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		a := data.Floats(in[0])
		for i := int64(0); i < hi-lo; i++ {
			data.PutFloat(out[0], int(lo+i), a[i]+1)
		}
		return nil
	})
	// usesN: checks scalar passing; out[i] = in[i] + N.
	testRegistry.Register("usesN", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := float32(scalars[0])
		a := data.Floats(in[0])
		for i := range a {
			data.PutFloat(out[0], i, a[i]+n)
		}
		return nil
	})
}

func scale2Region(n int64, in, out []byte) *Region {
	return &Region{
		Kernel:   "scale2",
		Registry: testRegistry,
		N:        n,
		Ins:      []Buffer{{Name: "A", Data: in, BytesPerIter: 4}},
		Outs:     []Buffer{{Name: "B", Data: out, BytesPerIter: 4}},
	}
}

func TestRegionValidate(t *testing.T) {
	in := make([]byte, 40)
	out := make([]byte, 40)
	if err := scale2Region(10, in, out).Validate(); err != nil {
		t.Fatal(err)
	}

	cases := map[string]*Region{
		"no kernel": {Registry: testRegistry, N: 1, Outs: []Buffer{{Name: "o", Data: out, BytesPerIter: 4}}},
		"unknown kernel": {Kernel: "nope", Registry: testRegistry, N: 10,
			Outs: []Buffer{{Name: "o", Data: out, BytesPerIter: 4}}},
		"negative N":     func() *Region { r := scale2Region(10, in, out); r.N = -1; return r }(),
		"negative tiles": func() *Region { r := scale2Region(10, in, out); r.Tiles = -2; return r }(),
		"bad partition size": func() *Region {
			r := scale2Region(10, in, out)
			r.Ins[0].BytesPerIter = 8 // 10*8 != 40
			return r
		}(),
		"unnamed buffer": func() *Region { r := scale2Region(10, in, out); r.Ins[0].Name = ""; return r }(),
		"unpartitioned out without reduce": {Kernel: "scale2", Registry: testRegistry, N: 10,
			Ins:  []Buffer{{Name: "A", Data: in, BytesPerIter: 4}},
			Outs: []Buffer{{Name: "B", Data: out}}},
		"input with reduce": func() *Region {
			r := scale2Region(10, in, out)
			r.Ins[0].Reduce = ReduceBitOr
			return r
		}(),
		"partitioned out with reduce": func() *Region {
			r := scale2Region(10, in, out)
			r.Outs[0].Reduce = ReduceSumF32
			return r
		}(),
		"no outputs": {Kernel: "scale2", Registry: testRegistry, N: 10,
			Ins: []Buffer{{Name: "A", Data: in, BytesPerIter: 4}}},
		"float reduce on odd buffer": {Kernel: "scale2", Registry: testRegistry, N: 10,
			Ins:  []Buffer{{Name: "A", Data: in, BytesPerIter: 4}},
			Outs: []Buffer{{Name: "B", Data: make([]byte, 7), Reduce: ReduceSumF32}}},
	}
	for name, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", name)
		}
	}
}

// TestSizeOnlyBuffersAreRefused: a size-only buffer has a length for a
// device that prices it, and no bytes for one that executes; every such
// device refuses it, in a region and in an environment.
func TestSizeOnlyBuffersAreRefused(t *testing.T) {
	r := scale2Region(10, nil, nil)
	r.Ins[0].Size, r.Outs[0].Size = 40, 40
	if got := r.Ins[0].Len() + r.OutBytesRaw(); got != 80 {
		t.Fatalf("size-only region is %d bytes long, want 80", got)
	}
	if err := r.Validate(); err == nil {
		t.Fatal("Validate accepts a size-only region")
	}
	host, err := NewHostPlugin(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := host.OpenEnv([]EnvBuffer{{Name: "A", Size: 40, Upload: true}}); err == nil {
		t.Fatal("the host opens a size-only environment")
	}
}

func TestTileCount(t *testing.T) {
	r := scale2Region(100, make([]byte, 400), make([]byte, 400))
	if got := r.TileCount(16); got != 16 {
		t.Fatalf("auto tiles = %d, want cores", got)
	}
	if got := r.TileCount(256); got != 100 {
		t.Fatalf("tiles must clamp to N: %d", got)
	}
	r.Tiles = 8
	if got := r.TileCount(256); got != 8 {
		t.Fatalf("explicit tiles = %d", got)
	}
	r.N = 0
	if got := r.TileCount(16); got != 0 {
		t.Fatalf("N=0 tiles = %d", got)
	}
}

// Property: Algorithm 1 preserves the iteration set — tiles cover [0, N)
// exactly and disjointly.
func TestTileRangeProperty(t *testing.T) {
	f := func(nRaw uint16, tilesRaw uint8) bool {
		n := int64(nRaw)
		tiles := int(tilesRaw%32) + 1
		if int64(tiles) > n {
			if n == 0 {
				return true
			}
			tiles = int(n)
		}
		var prev int64
		for p := 0; p < tiles; p++ {
			lo, hi := TileRange(n, tiles, p)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJNIPerCall(t *testing.T) {
	j := JNI{CallBase: simtime.Millisecond, BytesPerS: 1e9}
	if got := j.PerCall(0); got != simtime.Millisecond {
		t.Fatalf("base-only = %v", got)
	}
	if got := j.PerCall(1e9); got != simtime.Millisecond+simtime.Second {
		t.Fatalf("PerCall(1GB) = %v", got)
	}
	if got := (JNI{CallBase: simtime.Millisecond}).PerCall(100); got != simtime.Millisecond {
		t.Fatalf("zero throughput should charge base only: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative bytes should panic")
		}
	}()
	j.PerCall(-1)
}

func TestCombineBitOrEqualsDirectWrites(t *testing.T) {
	// Disjoint writers OR-combined equal a single direct write pass.
	f := func(seed int64, tilesRaw uint8) bool {
		tiles := int(tilesRaw%7) + 2
		n := 64
		rng := rand.New(rand.NewSource(seed))
		direct := make([]byte, n)
		rng.Read(direct)
		acc := reduceIdentity(ReduceBitOr, n)
		for p := 0; p < tiles; p++ {
			lo, hi := TileRange(int64(n), tiles, p)
			copyBuf := make([]byte, n)
			copy(copyBuf[lo:hi], direct[lo:hi])
			if err := combine(ReduceBitOr, acc, copyBuf); err != nil {
				return false
			}
		}
		return bytes.Equal(acc, direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCombineSumAndMax(t *testing.T) {
	a := data.Bytes([]float32{1, 2})
	b := data.Bytes([]float32{10, -5})
	if err := combine(ReduceSumF32, a, b); err != nil {
		t.Fatal(err)
	}
	got := data.Floats(a)
	if got[0] != 11 || got[1] != -3 {
		t.Fatalf("sum = %v", got)
	}
	m := reduceIdentity(ReduceMaxF32, 8)
	if err := combine(ReduceMaxF32, m, data.Bytes([]float32{3, -7})); err != nil {
		t.Fatal(err)
	}
	if err := combine(ReduceMaxF32, m, data.Bytes([]float32{1, 4})); err != nil {
		t.Fatal(err)
	}
	gm := data.Floats(m)
	if gm[0] != 3 || gm[1] != 4 {
		t.Fatalf("max = %v", gm)
	}
}

func TestCombineErrors(t *testing.T) {
	if err := combine(ReduceBitOr, make([]byte, 4), make([]byte, 8)); err == nil {
		t.Fatal("size mismatch should error")
	}
	if err := combine(ReduceNone, make([]byte, 4), make([]byte, 4)); err == nil {
		t.Fatal("ReduceNone cannot combine")
	}
}

func TestReduceOpString(t *testing.T) {
	for op, want := range map[ReduceOp]string{ReduceNone: "none", ReduceBitOr: "bitor",
		ReduceSumF32: "sum", ReduceMaxF32: "max", ReduceOp(9): "ReduceOp(9)"} {
		if op.String() != want {
			t.Fatalf("%d.String() = %q", int(op), op.String())
		}
	}
}

func TestHostPluginScale2(t *testing.T) {
	h, err := NewHostPlugin(4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "host-4t" || !h.Available() || h.Cores() != 4 {
		t.Fatalf("host plugin meta wrong: %s %d", h.Name(), h.Cores())
	}
	n := int64(1000)
	in := data.Generate(1, int(n), data.Dense, 1)
	out := make([]byte, 4*n)
	rep, err := h.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	got := data.Floats(out)
	for i, v := range in.V {
		if got[i] != 2*v {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], 2*v)
		}
	}
	if rep.Tiles != 4 || rep.ComputeTime() <= 0 {
		t.Fatalf("report wrong: %+v", rep)
	}
	if rep.HostTargetComm() != 0 {
		t.Fatal("host device must not report communication")
	}
}

func TestHostPluginReductions(t *testing.T) {
	h, _ := NewHostPlugin(3)
	n := int64(100)
	in := data.Generate(1, int(n), data.Dense, 2)
	sum := make([]byte, 4)
	r := &Region{
		Kernel:   "sumsq",
		Registry: testRegistry,
		N:        n,
		Ins:      []Buffer{{Name: "A", Data: in.Bytes(), BytesPerIter: 4}},
		Outs:     []Buffer{{Name: "s", Data: sum, Reduce: ReduceSumF32}},
	}
	if _, err := h.Run(r); err != nil {
		t.Fatal(err)
	}
	var want float32
	for _, v := range in.V {
		want += v * v
	}
	if got := data.GetFloat(sum, 0); !data.AlmostEqual([]float32{got}, []float32{want}, 1e-3) {
		t.Fatalf("sumsq = %v, want %v", got, want)
	}

	maxOut := make([]byte, 4)
	r2 := &Region{
		Kernel:   "maxval",
		Registry: testRegistry,
		N:        n,
		Ins:      []Buffer{{Name: "A", Data: in.Bytes(), BytesPerIter: 4}},
		Outs:     []Buffer{{Name: "m", Data: maxOut, Reduce: ReduceMaxF32}},
	}
	if _, err := h.Run(r2); err != nil {
		t.Fatal(err)
	}
	wantMax := in.V[0]
	for _, v := range in.V {
		if v > wantMax {
			wantMax = v
		}
	}
	if got := data.GetFloat(maxOut, 0); got != wantMax {
		t.Fatalf("maxval = %v, want %v", got, wantMax)
	}
}

func TestHostPluginBitOrWindow(t *testing.T) {
	h, _ := NewHostPlugin(5)
	n := int64(64)
	in := data.Generate(1, int(n), data.Dense, 3)
	out := make([]byte, 4*n)
	r := &Region{
		Kernel:   "fillwindow",
		Registry: testRegistry,
		N:        n,
		Ins:      []Buffer{{Name: "A", Data: in.Bytes(), BytesPerIter: 4}},
		Outs:     []Buffer{{Name: "B", Data: out, Reduce: ReduceBitOr}},
	}
	if _, err := h.Run(r); err != nil {
		t.Fatal(err)
	}
	got := data.Floats(out)
	for i, v := range in.V {
		if got[i] != v+1 {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], v+1)
		}
	}
}

func TestHostPluginScalars(t *testing.T) {
	h, _ := NewHostPlugin(2)
	n := int64(10)
	in := data.Generate(1, int(n), data.Dense, 4)
	out := make([]byte, 4*n)
	r := &Region{
		Kernel:   "usesN",
		Registry: testRegistry,
		N:        n,
		Scalars:  []int64{1000},
		Ins:      []Buffer{{Name: "A", Data: in.Bytes(), BytesPerIter: 4}},
		Outs:     []Buffer{{Name: "B", Data: out, BytesPerIter: 4}},
	}
	if _, err := h.Run(r); err != nil {
		t.Fatal(err)
	}
	if got := data.GetFloat(out, 3); got != in.V[3]+1000 {
		t.Fatalf("scalar not passed: %v", got)
	}
}

func TestHostPluginEmptyRegion(t *testing.T) {
	h, _ := NewHostPlugin(2)
	r := scale2Region(0, nil, nil)
	rep, err := h.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tiles != 0 || rep.Total() != 0 {
		t.Fatalf("empty region report: %+v", rep)
	}
}

func TestNewHostPluginInvalid(t *testing.T) {
	if _, err := NewHostPlugin(0); err == nil {
		t.Fatal("0 threads should error")
	}
}

func TestManagerRoutingAndFallback(t *testing.T) {
	host, _ := NewHostPlugin(2)
	m, err := NewManager(host)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(nil); err == nil {
		t.Fatal("nil host should error")
	}
	if m.NumDevices() != 0 {
		t.Fatalf("NumDevices = %d", m.NumDevices())
	}
	down := &stubPlugin{name: "down", available: false}
	id := m.Register(down)
	if id != 0 || m.NumDevices() != 1 {
		t.Fatalf("registration wrong: id=%d n=%d", id, m.NumDevices())
	}
	// Device id == NumDevices() and DeviceHost both resolve to host.
	for _, hid := range []int{DeviceHost, 1} {
		dev, err := m.Device(hid)
		if err != nil || dev != Plugin(host) {
			t.Fatalf("Device(%d) = %v, %v", hid, dev, err)
		}
	}
	if _, err := m.Device(5); err == nil {
		t.Fatal("unknown device should error")
	}

	n := int64(16)
	in := data.Generate(1, int(n), data.Dense, 5)
	out := make([]byte, 4*n)
	rep, err := m.Run(id, scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack {
		t.Fatal("unavailable device must fall back to host")
	}
	if got := data.GetFloat(out, 1); got != 2*in.V[1] {
		t.Fatalf("fallback produced wrong result: %v", got)
	}
	if _, err := m.Run(9, scale2Region(n, in.Bytes(), out)); err == nil {
		t.Fatal("running on missing device should error")
	}
}

// stubPlugin is a controllable Plugin for manager tests.
type stubPlugin struct {
	name      string
	available bool
	ran       int
}

func (s *stubPlugin) Name() string    { return s.name }
func (s *stubPlugin) Available() bool { return s.available }
func (s *stubPlugin) Cores() int      { return 1 }
func (s *stubPlugin) Run(r *Region) (*trace.Report, error) {
	s.ran++
	return trace.NewReport(s.name, r.Kernel), nil
}

func TestAccountValidation(t *testing.T) {
	bad := costInputs{Workers: 0, Cores: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero workers should fail")
	}
	mismatch := costInputs{Workers: 1, Cores: 1,
		TaskCompute: make([]simtime.Duration, 2), TaskEffective: make([]simtime.Duration, 3)}
	if err := mismatch.Validate(); err == nil {
		t.Fatal("vector length mismatch should fail")
	}
	inverted := costInputs{Workers: 1, Cores: 1,
		TaskCompute:   []simtime.Duration{5},
		TaskEffective: []simtime.Duration{3}}
	if err := inverted.Validate(); err == nil {
		t.Fatal("effective < compute should fail")
	}
	negative := costInputs{Workers: 1, Cores: 1, CollectWire: -1}
	if err := negative.Validate(); err == nil {
		t.Fatal("negative bytes should fail")
	}
}

func TestTileBytes(t *testing.T) {
	n := int64(8)
	r := &Region{
		Kernel:   "scale2",
		Registry: testRegistry,
		N:        n,
		Ins: []Buffer{
			{Name: "P", Data: make([]byte, 8*n), BytesPerIter: 8},
			{Name: "U", Data: make([]byte, 100)},
		},
		Outs: []Buffer{{Name: "O", Data: make([]byte, 4*n), BytesPerIter: 4}},
	}
	// 2 tiles of 4 iterations: partitioned in 4*8=32, unpartitioned 100,
	// out 4*4=16 -> 148.
	if got := tileBytes(r, 2, 0); got != 148 {
		t.Fatalf("tileBytes = %d", got)
	}
}

func TestCombineMin(t *testing.T) {
	m := reduceIdentity(ReduceMinF32, 8)
	if got := data.Floats(m); got[0] != 1e38 {
		t.Fatalf("min identity = %v", got[0])
	}
	if err := combine(ReduceMinF32, m, data.Bytes([]float32{3, -7})); err != nil {
		t.Fatal(err)
	}
	if err := combine(ReduceMinF32, m, data.Bytes([]float32{1, 4})); err != nil {
		t.Fatal(err)
	}
	got := data.Floats(m)
	if got[0] != 1 || got[1] != -7 {
		t.Fatalf("min = %v", got)
	}
	if ReduceMinF32.String() != "min" {
		t.Fatalf("String = %q", ReduceMinF32.String())
	}
}
