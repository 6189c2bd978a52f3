package offload

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
)

// resilientConfig is memCloudConfig with fast, silent retries: small chunks
// so the data path is chunk-granular, and no real backoff sleeping.
func resilientConfig(fs storage.Store) CloudConfig {
	return CloudConfig{
		Spec:       spark.ClusterSpec{Workers: 4, CoresPerWorker: 2},
		Store:      fs,
		ChunkBytes: 1024,
		RetryMax:   4,
		RetrySleep: func(time.Duration) {},
	}
}

// faultyConfig is resilientConfig over a fresh memory store, run under a
// fault schedule of es.
func faultyConfig(es ...faults.Entry) (CloudConfig, *faults.Schedule) {
	cfg := resilientConfig(storage.NewMemStore())
	cfg.Faults = faults.New(1).Add(es...)
	return cfg, cfg.Faults
}

// failAttempts is a schedule failing the first n attempts of partition in
// every job; n <= 0 fails every attempt.
func failAttempts(partition, n int) *faults.Schedule {
	return faults.New(1).Add(faults.Entry{Layer: faults.Before, Partition: partition, Worker: faults.Any, To: n})
}

// deadJobs fails every operation on a job's objects; health probes pass.
var deadJobs = faults.Entry{Key: "jobs/"}

func TestRunRecoversFromStorageFaults(t *testing.T) {
	// Two failed puts, one failed get and one truncated part read, all on
	// the job's objects: every leg must retry through and the result must
	// be byte-exact.
	cfg, sched := faultyConfig(
		faults.Entry{Op: "put", Key: "jobs/", Count: 2},
		faults.Entry{Op: "get", Key: "jobs/", Count: 1},
		faults.Entry{Op: "get", Key: ".part", Count: 1, Do: faults.Truncate, Keep: 7})
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(1000)
	in := data.Generate(1, int(n), data.Dense, 21)
	out := make([]byte, 4*n)
	rep, err := p.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatalf("retries did not absorb the injected faults: %v", err)
	}
	if rep.StorageRetries == 0 {
		t.Fatal("recovered run must report its storage retries")
	}
	if sched.Fired(faults.Store) == 0 {
		t.Fatal("fault schedule never fired; test exercised nothing")
	}
	for i, v := range in.V {
		if data.GetFloat(out, i) != 2*v {
			t.Fatalf("recovered run wrong at %d", i)
		}
	}
	if rep.FellBack {
		t.Fatal("recovered run must not be marked as fallback")
	}
}

func TestManagerMidFlightFallback(t *testing.T) {
	// The store dies for job objects only: health probes pass, so the
	// device looks available at entry and the failure happens mid-flight,
	// after the upload leg exhausts its retries.
	cfg, _ := faultyConfig(deadJobs)
	cfg.RetryMax = -1 // one attempt per op: fail fast
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Available() {
		t.Fatal("device must look available at entry (probes are clean)")
	}
	host, _ := NewHostPlugin(2)
	m, _ := NewManager(host)
	id := m.Register(p)

	n := int64(500)
	in := data.Generate(1, int(n), data.Dense, 22)
	out := make([]byte, 4*n)
	rep, err := m.Run(id, scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatalf("mid-flight fallback failed: %v", err)
	}
	if !rep.FellBack {
		t.Fatal("report must be flagged FellBack")
	}
	if rep.FallbackReason == "" || !strings.Contains(rep.FallbackReason, "injected") {
		t.Fatalf("FallbackReason must carry the device error, got %q", rep.FallbackReason)
	}
	for i, v := range in.V {
		if data.GetFloat(out, i) != 2*v {
			t.Fatalf("fallback result wrong at %d", i)
		}
	}
}

// scribbleDevice is a device that dies the worst way the fallback guard has
// to cover: it overwrites every output buffer, then fails transiently.
type scribbleDevice struct{}

func (scribbleDevice) Name() string    { return "scribble" }
func (scribbleDevice) Available() bool { return true }
func (scribbleDevice) Cores() int      { return 2 }
func (scribbleDevice) Run(r *Region) (*trace.Report, error) {
	for i := range r.Outs {
		for k := range r.Outs[i].Data {
			r.Outs[i].Data[k] = 0xee
		}
	}
	return nil, resilience.MarkTransient(errors.New("scribbled over the outputs, then died"))
}

// TestFallbackSnapshotsOnlyInputAliasedOutputs: after a device has trashed
// the outputs and failed, the host pass must end bit-identical to a host-only
// run. A pure map(from:) output gets there with no snapshot — the host pass
// rewrites it in full. An output the loop also reads — a tofrom variable, or
// one that merely overlaps an input at another offset — is put back first.
func TestFallbackSnapshotsOnlyInputAliasedOutputs(t *testing.T) {
	const n = int64(1000)
	src := data.Generate(1, int(n)+1, data.Dense, 25).Bytes()
	// build lays a region out over its own fresh memory, so that the
	// host-only run and the fallback run start from identical bytes.
	for _, tc := range []struct {
		name      string
		snapshots int
		build     func() *Region
	}{
		{"from, partitioned", 0, func() *Region {
			return scale2Region(n, bytes.Clone(src[:4*n]), make([]byte, 4*n))
		}},
		{"from, sum reduction", 0, func() *Region {
			return &Region{Kernel: "sumsq", Registry: testRegistry, N: n,
				Ins:  []Buffer{{Name: "A", Data: bytes.Clone(src[:4*n]), BytesPerIter: 4}},
				Outs: []Buffer{{Name: "S", Data: make([]byte, 4), Reduce: ReduceSumF32}}}
		}},
		{"from, bit-or reduction", 0, func() *Region {
			return &Region{Kernel: "fillwindow", Registry: testRegistry, N: n,
				Ins:  []Buffer{{Name: "A", Data: bytes.Clone(src[:4*n]), BytesPerIter: 4}},
				Outs: []Buffer{{Name: "B", Data: make([]byte, 4*n), Reduce: ReduceBitOr}}}
		}},
		{"tofrom", 1, func() *Region {
			y := bytes.Clone(src[:4*n])
			return scale2Region(n, y, y)
		}},
		{"output overlaps an input one element on", 1, func() *Region {
			y := bytes.Clone(src)
			r := scale2Region(n, y[:4*n], y[4:])
			r.Tiles = 1 // one thread: the host run itself must be deterministic
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			host, _ := NewHostPlugin(2)
			m, _ := NewManager(host)
			id := m.Register(scribbleDevice{})

			want := tc.build()
			if _, err := m.Run(DeviceHost, want); err != nil {
				t.Fatal(err)
			}
			got := tc.build()
			if snaps := len(inputAliasedOuts(got)); snaps != tc.snapshots {
				t.Fatalf("%d outputs snapshotted, want %d", snaps, tc.snapshots)
			}
			rep, err := m.Run(id, got)
			if err != nil || !rep.FellBack {
				t.Fatalf("fallback: rep %+v, err %v", rep, err)
			}
			for i := range want.Outs {
				if !bytes.Equal(got.Outs[i].Data, want.Outs[i].Data) {
					t.Fatalf("output %s differs from the host-only run", want.Outs[i].Name)
				}
			}
		})
	}
}

func TestManagerFallbackFailPolicy(t *testing.T) {
	cfg, _ := faultyConfig(deadJobs)
	cfg.RetryMax = -1
	cfg.Fallback = FallbackFail
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := NewHostPlugin(2)
	m, _ := NewManager(host)
	id := m.Register(p)

	n := int64(200)
	in := data.Generate(1, int(n), data.Dense, 23)
	out := make([]byte, 4*n)
	if _, err := m.Run(id, scale2Region(n, in.Bytes(), out)); err == nil {
		t.Fatal("fallback=fail must surface the device error")
	}
}

func TestManagerDoesNotMaskUnclassifiedErrors(t *testing.T) {
	// A kernel bug (unclassified error) must propagate, not silently
	// re-run on the host.
	p, err := NewCloudPlugin(resilientConfig(storage.NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	host, _ := NewHostPlugin(2)
	m, _ := NewManager(host)
	id := m.Register(p)

	reg := testRegistry
	r := &Region{
		Kernel: "missing-kernel", Registry: reg, N: 8,
		Outs: []Buffer{{Name: "B", Data: make([]byte, 32), BytesPerIter: 4}},
	}
	if _, err := m.Run(id, r); err == nil {
		t.Fatal("unknown-kernel error must surface through the manager")
	}
}

// healthCountStore counts health-probe puts passing through it.
type healthCountStore struct {
	storage.Store
	mu    sync.Mutex
	pings int
}

func (h *healthCountStore) Put(key string, data []byte) error {
	if strings.HasPrefix(key, "health/") {
		h.mu.Lock()
		h.pings++
		h.mu.Unlock()
	}
	return h.Store.Put(key, data)
}

func (h *healthCountStore) Pings() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pings
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	sched := faults.New(1).Add(deadJobs)
	hc := &healthCountStore{Store: storage.WithFaults(storage.NewMemStore(), sched)}
	clock := time.Unix(0, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	cfg := resilientConfig(hc)
	cfg.RetryMax = -1
	cfg.HealthTTL = -1 // probe on every call, so probe suppression is visible
	cfg.BreakerFailures = 2
	cfg.BreakerCooldown = 10 * time.Second
	cfg.BreakerNow = now
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(300)
	in := data.Generate(1, int(n), data.Dense, 24)
	out := make([]byte, 4*n)

	for i := 0; i < 2; i++ {
		if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err == nil {
			t.Fatalf("run %d should fail on the dead job store", i)
		} else if !resilience.IsTransient(err) {
			t.Fatalf("run %d error lost its transient class: %v", i, err)
		}
	}
	if p.Breaker().State() != resilience.BreakerOpen {
		t.Fatalf("breaker state = %v after 2 transient failures, want open", p.Breaker().State())
	}

	// While open, Available() must answer false from the breaker alone:
	// no storage probes.
	before := hc.Pings()
	for i := 0; i < 5; i++ {
		if p.Available() {
			t.Fatal("open breaker must report unavailable")
		}
	}
	if got := hc.Pings(); got != before {
		t.Fatalf("open breaker still probed storage (%d new pings)", got-before)
	}

	// After the cooldown the half-open probe runs (the store's health keys
	// are clean), closes the breaker, and jobs flow again.
	clockMu.Lock()
	clock = clock.Add(11 * time.Second)
	clockMu.Unlock()
	sched.Clear() // the store heals
	if !p.Available() {
		t.Fatal("half-open probe against a healthy store should close the breaker")
	}
	if p.Breaker().State() != resilience.BreakerClosed {
		t.Fatalf("breaker state = %v after probe success, want closed", p.Breaker().State())
	}
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatalf("recovered device failed: %v", err)
	}
	for i, v := range in.V {
		if data.GetFloat(out, i) != 2*v {
			t.Fatalf("recovered run wrong at %d", i)
		}
	}
}

func TestBreakerDisabled(t *testing.T) {
	cfg := resilientConfig(storage.NewMemStore())
	cfg.BreakerFailures = -1
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Breaker() != nil {
		t.Fatal("negative breaker-failures must disable the breaker")
	}
	if !p.Available() {
		t.Fatal("device without breaker should be available")
	}
}

func TestConcurrentPluginsHealthProbesDoNotCollide(t *testing.T) {
	// Two plugins over one store, each probing on every Available() call.
	// With a shared probe key, one plugin's Delete races the other's Get
	// into spurious unavailability; per-plugin keys make this impossible.
	st := storage.NewMemStore()
	mk := func() *CloudPlugin {
		cfg := resilientConfig(st)
		cfg.HealthTTL = -1
		p, err := NewCloudPlugin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	if a.healthKey == b.healthKey {
		t.Fatalf("plugins share the probe key %q", a.healthKey)
	}
	var wg sync.WaitGroup
	var failures atomic.Int64
	for _, p := range []*CloudPlugin{a, b} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(p *CloudPlugin) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if !p.Available() {
						failures.Add(1)
					}
				}
			}(p)
		}
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d spurious unavailable verdicts from probe collisions", failures.Load())
	}
}
