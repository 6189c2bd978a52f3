package offload

import (
	"strings"
	"testing"

	"ompcloud/internal/cloud"
	"ompcloud/internal/data"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/xcompress"
)

func memCloudConfig() CloudConfig {
	return CloudConfig{
		Spec:  spark.ClusterSpec{Workers: 4, CoresPerWorker: 2},
		Store: storage.NewMemStore(),
	}
}

func TestCloudPluginEndToEnd(t *testing.T) {
	p, err := NewCloudPlugin(memCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Available() {
		t.Fatal("mem-backed cloud plugin should be available")
	}
	if p.Name() != "cloud-spark-4x2" || p.Cores() != 8 {
		t.Fatalf("plugin meta: %s / %d", p.Name(), p.Cores())
	}

	n := int64(1000)
	in := data.Generate(1, int(n), data.Dense, 11)
	cloudOut := make([]byte, 4*n)
	rep, err := p.Run(scale2Region(n, in.Bytes(), cloudOut))
	if err != nil {
		t.Fatal(err)
	}

	// Results identical to the host device, element for element.
	h, _ := NewHostPlugin(4)
	hostOut := make([]byte, 4*n)
	if _, err := h.Run(scale2Region(n, in.Bytes(), hostOut)); err != nil {
		t.Fatal(err)
	}
	if d, _ := data.MaxAbsDiff(data.Floats(cloudOut), data.Floats(hostOut)); d != 0 {
		t.Fatalf("cloud result diverges from host by %v", d)
	}

	// Full Fig. 5 decomposition present.
	for _, ph := range []trace.Phase{trace.PhaseUpload, trace.PhaseSpark, trace.PhaseCompute, trace.PhaseDownload} {
		if rep.Phases[ph] <= 0 {
			t.Fatalf("phase %s missing from report: %+v", ph, rep.Phases)
		}
	}
	if rep.Tiles != 8 {
		t.Fatalf("tiles = %d, want cores", rep.Tiles)
	}
	if rep.BytesUploaded == 0 || rep.BytesDownloaded == 0 {
		t.Fatal("wire byte counters empty")
	}
	if rep.Total() != rep.HostTargetComm()+rep.SparkTime() {
		t.Fatal("phase sum identity broken")
	}

	// The job must clean up its storage objects.
	keys, _ := p.cfg.Store.List("jobs/")
	if len(keys) != 0 {
		t.Fatalf("job left objects behind: %v", keys)
	}
}

func TestCloudPluginUnpartitionedBroadcastAndReduce(t *testing.T) {
	p, err := NewCloudPlugin(memCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(256)
	in := data.Generate(1, int(n), data.Sparse, 12)
	out := make([]byte, 4*n)
	r := &Region{
		Kernel:   "fillwindow",
		Registry: testRegistry,
		N:        n,
		Ins:      []Buffer{{Name: "A", Data: in.Bytes(), BytesPerIter: 4}},
		Outs:     []Buffer{{Name: "B", Data: out, Reduce: ReduceBitOr}},
	}
	rep, err := p.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	got := data.Floats(out)
	for i, v := range in.V {
		if got[i] != v+1 {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], v+1)
		}
	}
	if rep.Phases[trace.PhaseSpark] <= 0 {
		t.Fatal("bit-OR reconstruction must charge Spark overhead")
	}
}

func TestCloudPluginSumReduction(t *testing.T) {
	p, _ := NewCloudPlugin(memCloudConfig())
	n := int64(500)
	in := data.Generate(1, int(n), data.Dense, 13)
	sum := make([]byte, 4)
	r := &Region{
		Kernel:   "sumsq",
		Registry: testRegistry,
		N:        n,
		Ins:      []Buffer{{Name: "A", Data: in.Bytes(), BytesPerIter: 4}},
		Outs:     []Buffer{{Name: "s", Data: sum, Reduce: ReduceSumF32}},
	}
	if _, err := p.Run(r); err != nil {
		t.Fatal(err)
	}
	var want float32
	for _, v := range in.V {
		want += v * v
	}
	if got := data.GetFloat(sum, 0); !data.AlmostEqual([]float32{got}, []float32{want}, 1e-2) {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestCloudPluginFaultTolerance(t *testing.T) {
	cfg := memCloudConfig()
	cfg.Faults = failAttempts(1, 2)
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A schedule without storage entries leaves the store unwrapped, on its
	// own zero-copy read path.
	if _, ok := p.cfg.Store.(storage.AppendGetter); !ok {
		t.Fatalf("a task-only schedule wrapped the store: %T", p.cfg.Store)
	}
	n := int64(400)
	in := data.Generate(1, int(n), data.Dense, 14)
	out := make([]byte, 4*n)
	rep, err := p.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TaskFailures != 2 {
		t.Fatalf("TaskFailures = %d, want 2", rep.TaskFailures)
	}
	for i, v := range in.V {
		if data.GetFloat(out, i) != 2*v {
			t.Fatalf("result corrupted by retry at %d", i)
		}
	}
}

func TestCloudPluginUnavailableStore(t *testing.T) {
	// A remote store whose server is gone: the device must report itself
	// unavailable so the manager can fall back.
	srv, err := storage.Serve("127.0.0.1:0", storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	client, err := storage.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cfg := memCloudConfig()
	cfg.Store = client
	// This test kills the store mid-session and expects the very next
	// Available() to notice; disable the health-verdict TTL cache.
	cfg.HealthTTL = -1
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Available() {
		t.Fatal("should be available while the server lives")
	}
	srv.Close()
	if p.Available() {
		t.Fatal("should be unavailable after the server dies")
	}

	host, _ := NewHostPlugin(2)
	m, _ := NewManager(host)
	id := m.Register(p)
	n := int64(64)
	in := data.Generate(1, int(n), data.Dense, 15)
	out := make([]byte, 4*n)
	rep, err := m.Run(id, scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack {
		t.Fatal("manager must fall back to host")
	}
	if data.GetFloat(out, 0) != 2*in.V[0] {
		t.Fatal("fallback computed wrong result")
	}
}

func TestCloudPluginRemoteStorageEndToEnd(t *testing.T) {
	srv, err := storage.Serve("127.0.0.1:0", storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := storage.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cfg := memCloudConfig()
	cfg.Store = client
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(512)
	in := data.Generate(1, int(n), data.Sparse, 16)
	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	for i, v := range in.V {
		if data.GetFloat(out, i) != 2*v {
			t.Fatalf("remote-storage run wrong at %d", i)
		}
	}
}

func TestCloudPluginAutoStartStop(t *testing.T) {
	provider := cloud.NewSimProvider(
		cloud.Credentials{AccessKey: "AK", SecretKey: "SK", Region: "us-east-1"},
		cloud.WithBootTime(simtime.Second))
	cfg := memCloudConfig()
	cfg.Provider = provider
	cfg.InstanceType = "c3.xlarge"
	cfg.AutoStartStop = true
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.InitError() != nil {
		t.Fatal(p.InitError())
	}
	cl := p.Cluster()
	if cl == nil || len(cl.Workers) != 4 {
		t.Fatalf("cluster not provisioned: %+v", cl)
	}
	// Parked before the first job.
	if cl.Workers[0].State() != cloud.Stopped {
		t.Fatalf("workers should be parked, state %v", cl.Workers[0].State())
	}
	n := int64(128)
	in := data.Generate(1, int(n), data.Dense, 17)
	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	// Parked again after the job, and money was spent.
	if cl.Workers[0].State() != cloud.Stopped {
		t.Fatalf("workers should be stopped after the job, state %v", cl.Workers[0].State())
	}
	if p.AccumulatedCost() <= 0 {
		t.Fatal("auto start/stop must accrue cost")
	}
}

func TestCloudPluginBadCredentialsFallsBack(t *testing.T) {
	provider := cloud.NewSimProvider(cloud.Credentials{}) // no access key
	cfg := memCloudConfig()
	cfg.Provider = provider
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Available() {
		t.Fatal("plugin with failed provisioning must be unavailable")
	}
	if p.InitError() == nil || !strings.Contains(p.InitError().Error(), "authentication") {
		t.Fatalf("InitError = %v", p.InitError())
	}
	if _, err := p.Run(scale2Region(4, make([]byte, 16), make([]byte, 16))); err == nil {
		t.Fatal("direct Run on unavailable plugin should error")
	}
	if p.AccumulatedCost() != 0 {
		t.Fatal("no cluster, no cost")
	}
}

func TestCloudPluginEmptyRegion(t *testing.T) {
	p, _ := NewCloudPlugin(memCloudConfig())
	out := make([]byte, 16)
	for i := range out {
		out[i] = 0xff
	}
	r := &Region{
		Kernel:   "fillwindow",
		Registry: testRegistry,
		N:        0,
		Ins:      []Buffer{{Name: "A", Data: nil, BytesPerIter: 4}},
		Outs:     []Buffer{{Name: "B", Data: out, Reduce: ReduceBitOr}},
	}
	rep, err := p.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tiles != 0 {
		t.Fatalf("tiles = %d", rep.Tiles)
	}
	for _, b := range out {
		if b != 0 {
			t.Fatal("zero-trip region must reset reduced outputs to identity")
		}
	}
}

func TestCloudPluginConstructorErrors(t *testing.T) {
	if _, err := NewCloudPlugin(CloudConfig{Store: storage.NewMemStore()}); err == nil {
		t.Fatal("invalid spec should error")
	}
	if _, err := NewCloudPlugin(CloudConfig{Spec: spark.ClusterSpec{Workers: 1, CoresPerWorker: 1}}); err == nil {
		t.Fatal("missing store should error")
	}
}

func TestCloudVsHostSparseAndDenseCompression(t *testing.T) {
	// Sparse inputs must ship fewer wire bytes than dense ones — the
	// mechanism behind Figure 5's sparse/dense contrast.
	run := func(kind data.Kind) int64 {
		p, _ := NewCloudPlugin(memCloudConfig())
		n := int64(64 * 1024)
		in := data.Generate(1, int(n), kind, 18)
		out := make([]byte, 4*n)
		rep, err := p.Run(scale2Region(n, in.Bytes(), out))
		if err != nil {
			t.Fatal(err)
		}
		return rep.BytesUploaded
	}
	sparse, dense := run(data.Sparse), run(data.Dense)
	if sparse >= dense {
		t.Fatalf("sparse upload %d should be smaller than dense %d", sparse, dense)
	}
	if float64(sparse) > 0.3*float64(dense) {
		t.Fatalf("sparse should compress far better: %d vs %d", sparse, dense)
	}
}

func TestRunOnDriverEliminatesWANCost(t *testing.T) {
	// §III.D: running the application on the driver node removes the
	// host-target communication overhead — the host legs ride the LAN.
	// A leg is max(codec, wire). Raw frames keep the measured codec share to
	// a memcpy, three orders of magnitude under the WAN's 40 ms latency, so
	// both sides compare wire time: a pure function of bytes and profile.
	run := func(onDriver bool) simtime.Duration {
		cfg := memCloudConfig()
		cfg.RunOnDriver = onDriver
		cfg.Codec = xcompress.Codec{Algo: xcompress.AlgoRaw}
		p, err := NewCloudPlugin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(64 * 1024)
		in := data.Generate(1, int(n), data.Dense, 95)
		out := make([]byte, 4*n)
		rep, err := p.Run(scale2Region(n, in.Bytes(), out))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if data.GetFloat(out, i) != 2*in.V[i] {
				t.Fatal("run-on-driver result wrong")
			}
		}
		return rep.HostTargetComm()
	}
	laptop, driver := run(false), run(true)
	if driver >= laptop {
		t.Fatalf("driver-resident comm %v should beat laptop %v", driver, laptop)
	}
}
