package omp

import (
	"strings"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/offload"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
)

var envReg = fatbin.NewRegistry()

func init() {
	// square: B[i] = A[i]^2 (partitioned in/out).
	envReg.Register("square", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		a := data.Floats(in[0])
		for i := range a {
			data.PutFloat(out[0], i, a[i]*a[i])
		}
		return nil
	})
	// addone: B[i] = A[i] + 1.
	envReg.Register("addone", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		a := data.Floats(in[0])
		for i := range a {
			data.PutFloat(out[0], i, a[i]+1)
		}
		return nil
	})
}

// chainEnv runs square then addone inside one environment: C = A^2 + 1 with
// the intermediate B device-resident.
func chainEnv(t *testing.T, rt *Runtime, dev Device, n int64, a *data.Matrix) (*data.Matrix, *DataEnv) {
	t.Helper()
	b := data.NewMatrix(1, int(n))
	c := data.NewMatrix(1, int(n))
	env, err := rt.TargetData(dev,
		To("A", a),
		Alloc("B", b),
		From("C", c),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Loop(
		To("A", a).Partition(1),
		From("B", b).Partition(1),
	).WithRegistry(envReg).ParallelFor(n, "square"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Loop(
		To("B", b).Partition(1),
		From("C", c).Partition(1),
	).WithRegistry(envReg).ParallelFor(n, "addone"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Close(); err != nil {
		t.Fatal(err)
	}
	return c, env
}

func TestTargetDataChainOnCloudAndHost(t *testing.T) {
	rt, cloud := newCloudRuntime(t)
	n := int64(300)
	a := data.Generate(1, int(n), data.Dense, 50)

	cCloud, env := chainEnv(t, rt, cloud, n, a)
	for i := range a.V {
		want := a.V[i]*a.V[i] + 1
		if cCloud.V[i] != want {
			t.Fatalf("cloud env chain wrong at %d: %v != %v", i, cCloud.V[i], want)
		}
	}
	if env.FellBack() {
		t.Fatal("unexpected fallback")
	}
	rep := env.Report()
	if rep.Phases[trace.PhaseUpload] <= 0 || rep.Phases[trace.PhaseDownload] <= 0 {
		t.Fatalf("env totals missing host legs: %v", rep.Phases)
	}
	// The intermediate B must not have crossed the host-target link:
	// uploaded ~= A, downloaded ~= C.
	if rep.BytesUploaded > int64(len(a.Bytes()))+512 {
		t.Fatalf("uploaded %d bytes; intermediate leaked", rep.BytesUploaded)
	}

	cHost, _ := chainEnv(t, rt, rt.HostDevice(), n, a)
	if d, _ := data.MaxAbsDiff(cCloud.V, cHost.V); d != 0 {
		t.Fatalf("host and cloud env results differ by %v", d)
	}
}

func TestTargetDataFallback(t *testing.T) {
	rt, err := NewRuntime(2)
	if err != nil {
		t.Fatal(err)
	}
	// A cloud device with unreachable storage: TargetData must open on
	// the host transparently.
	srv, err := storage.Serve("127.0.0.1:0", storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	client, err := storage.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	plugin, err := offload.NewCloudPlugin(offload.CloudConfig{
		Spec:  spark.ClusterSpec{Workers: 1, CoresPerWorker: 1},
		Store: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := rt.RegisterDevice(plugin)
	srv.Close() // storage gone before the environment opens

	n := int64(40)
	a := data.Generate(1, int(n), data.Dense, 51)
	c, env := chainEnv(t, rt, dev, n, a)
	if !env.FellBack() {
		t.Fatal("environment should have fallen back to the host")
	}
	if !env.Report().FellBack {
		t.Fatal("merged report should be flagged FellBack")
	}
	for i := range a.V {
		if c.V[i] != a.V[i]*a.V[i]+1 {
			t.Fatalf("fallback env computed wrong result at %d", i)
		}
	}
}

func TestTargetDataLifecycleErrors(t *testing.T) {
	rt, cloud := newCloudRuntime(t)
	n := int64(16)
	a := data.Generate(1, int(n), data.Dense, 52)
	c := data.NewMatrix(1, int(n))

	env, err := rt.TargetData(cloud, To("A", a), From("C", c))
	if err != nil {
		t.Fatal(err)
	}
	// Loop referencing a buffer outside the environment.
	if _, err := env.Loop(
		To("missing", a).Partition(1),
		From("C", c).Partition(1),
	).WithRegistry(envReg).ParallelFor(n, "square"); err == nil ||
		!strings.Contains(err.Error(), "not in the data environment") {
		t.Fatalf("expected missing-buffer error, got %v", err)
	}
	// Alloc inside a Loop is invalid.
	if _, err := env.Loop(Alloc("A", a)).WithRegistry(envReg).ParallelFor(n, "square"); err == nil {
		t.Fatal("Alloc inside Loop should fail")
	}
	if _, err := env.Close(); err != nil {
		t.Fatal(err)
	}
	// Use-after-close.
	if _, err := env.Close(); err == nil {
		t.Fatal("double close should fail")
	}
	if _, err := env.Loop(
		To("A", a).Partition(1),
		From("C", c).Partition(1),
	).WithRegistry(envReg).ParallelFor(n, "square"); err == nil {
		t.Fatal("loop after close should fail")
	}
}

func TestTargetDataValidation(t *testing.T) {
	rt, cloud := newCloudRuntime(t)
	rt2, _ := NewRuntime(1)
	a := []float32{1, 2}
	if _, err := rt.TargetData(rt2.HostDevice(), To("A", a)); err == nil {
		t.Fatal("cross-runtime device should fail")
	}
	if _, err := rt.TargetData(cloud, To("A", 42)); err == nil {
		t.Fatal("bad mapping type should fail")
	}
	if _, err := rt.TargetData(cloud, To("", a)); err == nil {
		t.Fatal("unnamed buffer should fail")
	}
	if _, err := rt.TargetData(cloud, To("A", a), To("A", a)); err == nil {
		t.Fatal("duplicate buffer should fail")
	}
}

func TestTargetDataToFromRoundTrip(t *testing.T) {
	// tofrom env buffers upload and download through the same name.
	rt, cloud := newCloudRuntime(t)
	n := int64(64)
	v := data.Generate(1, int(n), data.Dense, 53)
	orig := v.Clone()
	env, err := rt.TargetData(cloud, ToFrom("V", v))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Loop(
		ToFrom("V", v).Partition(1),
	).WithRegistry(envReg).ParallelFor(n, "addone"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range v.V {
		if v.V[i] != orig.V[i]+1 {
			t.Fatalf("tofrom env wrong at %d", i)
		}
	}
}

func TestEnvBufferAccessor(t *testing.T) {
	rt, cloud := newCloudRuntime(t)
	a := data.Generate(1, 8, data.Dense, 54)
	env, err := rt.TargetData(cloud, To("A", a))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	// The offload-level env exposes device-resident bytes.
	type hasEnv interface{ Report() *trace.Report }
	var _ hasEnv = env
	got, err := env.env.Buffer("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(a.Bytes()) {
		t.Fatalf("device buffer size %d", len(got))
	}
	if _, err := env.env.Buffer("nope"); err == nil {
		t.Fatal("unknown buffer should error")
	}
}

// A Close the device turns away before running it (open breaker) leaves the
// environment open at this layer too: the retry brings the results home.
func TestTargetDataCloseRetriesAfterRejection(t *testing.T) {
	rt, err := NewRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	plugin, err := offload.NewCloudPlugin(offload.CloudConfig{
		Spec:            spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
		Store:           storage.NewMemStore(),
		BreakerFailures: 1,
		BreakerCooldown: time.Minute,
		BreakerNow:      func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(16)
	a := data.Generate(1, int(n), data.Dense, 53)
	c := data.NewMatrix(1, int(n))
	env, err := rt.TargetData(rt.RegisterDevice(plugin), To("A", a), From("C", c))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Loop(
		To("A", a).Partition(1),
		From("C", c).Partition(1),
	).WithRegistry(envReg).ParallelFor(n, "square"); err != nil {
		t.Fatal(err)
	}
	plugin.Breaker().Failure()
	if _, err := env.Close(); err == nil {
		t.Fatal("close against an open breaker should fail")
	}
	now = now.Add(2 * time.Minute)
	if _, err := env.Close(); err != nil {
		t.Fatalf("retried close: %v", err)
	}
	for i, v := range a.V {
		if c.V[i] != v*v {
			t.Fatalf("C[%d] = %v, want %v", i, c.V[i], v*v)
		}
	}
}
