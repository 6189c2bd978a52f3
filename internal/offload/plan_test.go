package offload

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/xcompress"
)

// pathRow is one way into the cloud device's plan engine. run drives the
// path end to end over the scale2 loop and returns the path's merged report;
// atLoop fires right before the entry point that carries the loop (after the
// open of an environment), which is where the drain check plants its
// request.
type pathRow struct {
	name    string
	overlap int // CloudConfig.Overlap of the row's device
	// absorbs: the path re-runs a failed cloud member on the host, so an
	// injected device failure still returns a (fell-back) report.
	absorbs bool
	// fallback is the device's policy; FallbackFail must hold wherever a
	// host re-run would otherwise mask the device's error.
	fallback FallbackPolicy
	run      func(p *CloudPlugin, n int64, in, out []byte, atLoop func()) (*trace.Report, error)
}

func pathRows() []pathRow {
	standalone := func(p *CloudPlugin, n int64, in, out []byte, atLoop func()) (*trace.Report, error) {
		atLoop()
		return p.Run(scale2Region(n, in, out))
	}
	member := func(p *CloudPlugin, n int64, in, out []byte, atLoop func()) (*trace.Report, error) {
		md, err := NewMultiDevice(MultiDeviceConfig{Members: []Plugin{p}, NoRebalance: true})
		if err != nil {
			return nil, err
		}
		atLoop()
		return md.Run(scale2Region(n, in, out))
	}
	return []pathRow{
		{name: "standalone-barrier", overlap: -1, run: standalone},
		{name: "standalone-per-tile", run: standalone},
		{name: "env-open-loop-close", run: func(p *CloudPlugin, n int64, in, out []byte, atLoop func()) (*trace.Report, error) {
			env, open, err := p.OpenEnv([]EnvBuffer{
				{Name: "A", Data: in, Upload: true},
				{Name: "B", Data: out, Download: true},
			})
			if err != nil {
				return nil, err
			}
			atLoop()
			loop, err := env.Run(scale2Region(n, in, out))
			if err != nil {
				return nil, err
			}
			closed, err := env.Close()
			if err != nil {
				return nil, err
			}
			return trace.Merge(p.Name(), "scale2", trace.Sequential, open, loop, closed), nil
		}},
		{name: "multi-device-member", absorbs: true, run: member},
		{name: "multi-device-member-fallback-fail", fallback: FallbackFail, run: member},
		{name: "manager-run", absorbs: true, run: func(p *CloudPlugin, n int64, in, out []byte, atLoop func()) (*trace.Report, error) {
			host, err := NewHostPlugin(2)
			if err != nil {
				return nil, err
			}
			m, err := NewManager(host)
			if err != nil {
				return nil, err
			}
			id := m.Register(p)
			atLoop()
			return m.Run(id, scale2Region(n, in, out))
		}},
	}
}

// pathDevice is a priced 4x2 cloud device over st with a two-failure
// breaker, small chunks (so regions span several) and no wall backoff.
func pathDevice(t *testing.T, row pathRow, st storage.Store, mutate func(*CloudConfig)) *CloudPlugin {
	t.Helper()
	cfg := CloudConfig{
		Spec:             spark.ClusterSpec{Workers: 4, CoresPerWorker: 2},
		Store:            st,
		DeviceName:       "dev-" + row.name,
		Overlap:          row.overlap,
		ChunkBytes:       1024,
		RetryMax:         3,
		RetrySleep:       func(time.Duration) {},
		BreakerFailures:  2,
		Fallback:         row.fallback,
		CostCoreHourUSD:  0.105,
		CostEgressGiBUSD: 0.09,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGuardHoldsOnEveryPath is the cross-cutting contract of the plan
// engine: whatever the guard applies — cost, breaker feedback, drain
// landing, degraded re-pricing, transfer counters — holds on every path into
// the device, not only on the one it was first written for.
func TestGuardHoldsOnEveryPath(t *testing.T) {
	const n = int64(4000)
	in := data.Generate(1, int(n), data.Dense, 61)
	want := make([]byte, 4*n)
	for i, v := range in.V {
		data.PutFloat(want, i, 2*v)
	}

	for _, row := range pathRows() {
		t.Run(row.name, func(t *testing.T) {
			t.Run("clean: identical, priced, breaker success", func(t *testing.T) {
				p := pathDevice(t, row, storage.NewMemStore(), nil)
				p.Breaker().Failure() // a one-failure streak the clean run must reset
				out := make([]byte, 4*n)
				rep, err := row.run(p, n, in.Bytes(), out, func() {})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, want) {
					t.Fatal("output diverges from the serial reference")
				}
				if row.name == "standalone-per-tile" && rep.CriticalPath == 0 {
					t.Fatal("row did not release per tile")
				}
				if row.name == "standalone-barrier" && rep.CriticalPath != 0 {
					t.Fatal("row did not run barriered")
				}
				wantCost := 0.105*float64(rep.Cores)*rep.Effective().Seconds()/3600 +
					0.09*float64(rep.BytesDownloaded)/(1<<30)
				if rep.CostUSD <= 0 || math.Abs(rep.CostUSD-wantCost) > wantCost*1e-9 {
					t.Fatalf("CostUSD = %v, want applyCost's formula on the merged report = %v", rep.CostUSD, wantCost)
				}
				// Success reset the streak: one more failure must not trip
				// a two-failure breaker.
				p.Breaker().Failure()
				if s := p.Breaker().State(); s != resilience.BreakerClosed {
					t.Fatalf("clean run did not report success to the breaker (state %v)", s)
				}
			})

			t.Run("deferred drain lands at the loop boundary", func(t *testing.T) {
				p := pathDevice(t, row, storage.NewMemStore(), nil)
				sctx := p.SparkContext()
				out := make([]byte, 4*n)
				if _, err := row.run(p, n, in.Bytes(), out, func() { sctx.DrainWorkers(1) }); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, want) {
					t.Fatal("output diverges from the serial reference")
				}
				if d := sctx.DrainingWorkers(); d != 0 || p.Cores() != 6 {
					t.Fatalf("drain requested before the loop is still pending after it (%d draining, %d cores)", d, p.Cores())
				}
			})

			t.Run("dead input leg counts one breaker failure", func(t *testing.T) {
				p := pathDevice(t, row, storage.NewMemStore(), func(c *CloudConfig) {
					c.Faults = faults.New(1).Add(faults.Entry{Op: "put", Key: "/in/"})
				})
				out := make([]byte, 4*n)
				rep, err := row.run(p, n, in.Bytes(), out, func() {})
				switch {
				case row.absorbs && (err != nil || !rep.FellBack):
					t.Fatalf("failed member should be absorbed: rep %+v, err %v", rep, err)
				case row.absorbs && !bytes.Equal(out, want):
					t.Fatal("host re-run diverges from the serial reference")
				case !row.absorbs && !resilience.IsTransient(err):
					t.Fatalf("want a transient error past the retry budget, got %v", err)
				}
				if s := p.Breaker().State(); s != resilience.BreakerClosed {
					t.Fatalf("one failed plan must not trip a two-failure breaker (state %v)", s)
				}
				p.Breaker().Failure()
				if p.Breaker().State() != resilience.BreakerOpen || p.Breaker().Trips() != 1 {
					t.Fatal("the failed plan was not counted: a second failure should have tripped the breaker")
				}
			})

			t.Run("degraded link is priced at the observed rate", func(t *testing.T) {
				const observed = 1e5 // bytes/s, ~0.8 Mbps against a 200 Mbps WAN
				st := &obsStore{Store: storage.NewMemStore(), up: observed, down: observed}
				p := pathDevice(t, row, st, func(c *CloudConfig) { c.AdaptDegraded = true })
				out := make([]byte, 4*n)
				rep, err := row.run(p, n, in.Bytes(), out, func() {})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, want) {
					t.Fatal("degraded output diverges from the serial reference")
				}
				if rep.DegradedSwitches < 1 {
					t.Fatalf("DegradedSwitches = %d, the latch never engaged", rep.DegradedSwitches)
				}
				// At the provisioned rate each leg would be latency-bound, well
				// under this floor.
				for _, leg := range []struct {
					ph    trace.Phase
					bytes int64
				}{{trace.PhaseUpload, rep.BytesUploaded}, {trace.PhaseDownload, rep.BytesDownloaded}} {
					if floor := float64(leg.bytes) / observed; rep.Phases[leg.ph].Seconds() < floor {
						t.Fatalf("%s = %v for %d bytes: priced faster than the observed rate allows (%.3fs)",
							leg.ph, rep.Phases[leg.ph], leg.bytes, floor)
					}
				}
			})

			t.Run("transfer counters surface", func(t *testing.T) {
				// Two failed input PUTs retry through; the first output PUT
				// stalls past its deadline and is abandoned and retried.
				p := pathDevice(t, row, storage.NewMemStore(), func(c *CloudConfig) {
					c.Faults = faults.New(1).Add(faults.Entry{Op: "put", Key: "/in/", Count: 2},
						faults.Entry{Op: "put", Key: "/out/", Count: 1, Do: faults.Hang, Dur: time.Second})
					c.DeadlineMult = 1
					c.DeadlineFloor = 50 * time.Millisecond
					c.DeadlineCap = 50 * time.Millisecond
				})
				out := make([]byte, 4*n)
				rep, err := row.run(p, n, in.Bytes(), out, func() {})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, want) {
					t.Fatal("output diverges from the serial reference")
				}
				if rep.FellBack {
					t.Fatalf("recoverable faults must not fall back: %s", rep.FallbackReason)
				}
				if rep.StorageRetries < 2 {
					t.Fatalf("StorageRetries = %d, want the recovered faults reported", rep.StorageRetries)
				}
				if rep.DeadlineAborts < 1 {
					t.Fatalf("DeadlineAborts = %d, want the abandoned attempt reported", rep.DeadlineAborts)
				}
			})
		})
	}
}

// TestEnvLoopIssuesNoStoreOps guards the availability gate: a plan with no
// storage legs must not pay health-probe round trips, even on a device that
// probes on every Available() call.
func TestEnvLoopIssuesNoStoreOps(t *testing.T) {
	m := storage.NewMetered(storage.NewMemStore())
	p, err := NewCloudPlugin(CloudConfig{
		Spec:      spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
		Store:     m,
		HealthTTL: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(256)
	in := data.Generate(1, int(n), data.Dense, 62)
	out := make([]byte, 4*n)
	env, _, err := p.OpenEnv([]EnvBuffer{
		{Name: "A", Data: in.Bytes(), Upload: true},
		{Name: "B", Data: out, Download: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	for i := 0; i < 3; i++ {
		if _, err := env.Run(scale2Region(n, in.Bytes(), out)); err != nil {
			t.Fatal(err)
		}
	}
	if after := m.Snapshot(); after != before {
		t.Fatalf("env loops touched the store:\n before %+v\n after  %+v", before, after)
	}
	if _, err := env.Close(); err != nil {
		t.Fatal(err)
	}
}

// A zero-trip loop writes the reduce identity into its reduction outputs on
// every path; inside an environment it used to leave them untouched.
func TestEnvZeroTripLoopWritesReduceIdentity(t *testing.T) {
	p, err := NewCloudPlugin(memCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	host := make([]byte, 4)
	data.PutFloat(host, 0, 42)
	env, _, err := p.OpenEnv([]EnvBuffer{
		{Name: "A", Data: nil, Upload: true},
		{Name: "M", Data: host, Upload: true, Download: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &Region{
		Kernel: "maxval", Registry: testRegistry, N: 0,
		Ins:  []Buffer{{Name: "A", BytesPerIter: 4}},
		Outs: []Buffer{{Name: "M", Data: host, Reduce: ReduceMaxF32}},
	}
	if _, err := env.Run(r); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Close(); err != nil {
		t.Fatal(err)
	}

	standalone := make([]byte, 4)
	data.PutFloat(standalone, 0, 42)
	r.Outs[0].Data = standalone
	if _, err := p.Run(r); err != nil {
		t.Fatal(err)
	}
	if got, want := data.GetFloat(host, 0), data.GetFloat(standalone, 0); got != want || want != -1e38 {
		t.Fatalf("zero-trip max: env wrote %v, standalone wrote %v, want the identity -1e38 from both", got, want)
	}
}

// A failed open deletes what it stored: the upload landed, the driver fetch
// did not, and no envs/ object may outlive the error.
func TestFailedOpenEnvCleansUp(t *testing.T) {
	mem := storage.NewMemStore()
	cfg := resilientConfig(mem)
	cfg.Faults = faults.New(1).Add(faults.Entry{Op: "get", Key: "envs/"})
	cfg.BreakerFailures = -1
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := data.Generate(1, 2000, data.Dense, 63)
	if _, _, err := p.OpenEnv([]EnvBuffer{{Name: "A", Data: in.Bytes(), Upload: true}}); err == nil {
		t.Fatal("open with a dead fetch leg should fail")
	}
	keys, err := mem.List("envs/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("failed open leaked %d objects: %v", len(keys), keys)
	}
}

// OpenEnv on an unavailable device is retryable, and says so the way Run
// does.
func TestOpenEnvUnavailableIsTransient(t *testing.T) {
	cfg := memCloudConfig()
	cfg.Faults = faults.New(1).Add(faults.Entry{Key: "health/"})
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := data.Generate(1, 16, data.Dense, 64)
	out := make([]byte, 64)
	_, runErr := p.Run(scale2Region(16, in.Bytes(), out))
	_, _, openErr := p.OpenEnv([]EnvBuffer{{Name: "A", Data: in.Bytes(), Upload: true}})
	if !resilience.IsTransient(runErr) || !resilience.IsTransient(openErr) {
		t.Fatalf("unavailable device: Run transient=%v (%v), OpenEnv transient=%v (%v); want both",
			resilience.IsTransient(runErr), runErr, resilience.IsTransient(openErr), openErr)
	}
}

// A close the guard turns away (open breaker) never ran, so it must not cost
// the environment: the results are still on the device, the stored objects
// are still owned, and the same Close succeeds once the device admits it.
func TestEnvCloseRejectedIsRetryable(t *testing.T) {
	st := storage.NewMemStore()
	now := time.Unix(0, 0)
	cfg := memCloudConfig()
	cfg.Store = st
	cfg.BreakerFailures = 2
	cfg.BreakerCooldown = time.Minute
	cfg.BreakerNow = func() time.Time { return now }
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(2000)
	in := data.Generate(1, int(n), data.Dense, 65)
	out := make([]byte, 4*n)
	env, _, err := p.OpenEnv([]EnvBuffer{
		{Name: "A", Data: in.Bytes(), Upload: true},
		{Name: "B", Data: out, Download: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	p.Breaker().Failure()
	p.Breaker().Failure()
	if _, err := env.Close(); !resilience.IsTransient(err) {
		t.Fatalf("close against an open breaker: %v, want a transient rejection", err)
	}
	if _, err := env.Buffer("B"); err != nil {
		t.Fatalf("rejected close dropped the environment: %v", err)
	}

	now = now.Add(2 * time.Minute) // cooldown over: the retry is the half-open probe
	if _, err := env.Close(); err != nil {
		t.Fatalf("retried close: %v", err)
	}
	want := make([]byte, 4*n)
	for i, v := range data.Floats(in.Bytes()) {
		data.PutFloat(want, i, 2*v)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("retried close did not bring the results home")
	}
	if keys, _ := st.List("envs/"); len(keys) != 0 {
		t.Fatalf("closed environment leaked %d objects: %v", len(keys), keys)
	}
	if _, err := env.Close(); err == nil || resilience.IsTransient(err) {
		t.Fatalf("second close after success: %v, want a permanent already-closed error", err)
	}
}

// The outputs of a loop travel to the driver at their size-weighted
// compression ratio whether they are shipped or resident: under an unweighted
// mean a tiny compressible output would halve the modelled volume of a large
// dense one.
func TestResidentCollectWireIsSizeWeighted(t *testing.T) {
	cfg := memCloudConfig()
	cfg.Codec = xcompress.Codec{MinSize: 1, Algo: xcompress.AlgoDeflate}
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 4<<10) // zeros: compresses to almost nothing
	large := data.Generate(1, 64<<10, data.Dense, 66).Bytes()
	r := &Region{
		Kernel: "two-outs", N: 1024,
		Outs: []Buffer{
			{Name: "S", Data: small, BytesPerIter: 4},
			{Name: "L", Data: large, BytesPerIter: 256},
		},
	}
	pl := &plan{kernel: r.Kernel, region: r, outs: []bound{{name: "S", dev: small}, {name: "L", dev: large}}}
	raw := r.OutBytesRaw()
	pl.tiles, pl.tileRaw = 8, raw
	p.sampleResident(pl)
	ci := pl.cost(&p.cfg, p.sctx.Spec())

	rs, rl := pl.outs[0].ratio, pl.outs[1].ratio
	weighted := int64(rs*float64(len(small)) + rl*float64(len(large)))
	if diff := ci.CollectWire - weighted; diff < -2 || diff > 2 {
		t.Fatalf("CollectWire = %d, want the size-weighted %d (ratios %.3f over %d B, %.3f over %d B)",
			ci.CollectWire, weighted, rs, len(small), rl, len(large))
	}
	if mean := int64(float64(raw) * (rs + rl) / 2); ci.CollectWire < mean*3/2 {
		t.Fatalf("CollectWire = %d is not told apart from the unweighted mean %d: pick buffers whose ratios differ", ci.CollectWire, mean)
	}
}

// The accountant asks for a ratio, not a benchmark: pricing a plan whose
// three buffers are all driver-resident encodes each buffer's sampled head at
// most once, into pooled scratch. It used to run xcompress.Codec.Measure —
// four rounds of encode + allocating decode, ~8 MiB allocated per MiB
// sampled — serially after every loop of an environment.
func TestCostInputsResidentProbeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops entries at random, so every probe may rebuild its gzip writer")
	}
	p, err := NewCloudPlugin(memCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2 << 20 // sampleResident samples the first MiB of each
	sparse := data.Generate(1, n/data.FloatSize, data.Sparse, 71).Bytes()
	dense := data.Generate(1, n/data.FloatSize, data.Dense, 72).Bytes()
	out := data.Generate(1, n/data.FloatSize, data.Sparse, 73).Bytes()
	r := &Region{
		Kernel: "resident", N: 1024,
		Ins: []Buffer{
			{Name: "A", Data: sparse, BytesPerIter: n / 1024},
			{Name: "B", Data: dense},
		},
		Outs: []Buffer{{Name: "C", Data: out, BytesPerIter: n / 1024}},
	}
	pl := &plan{kernel: r.Kernel, region: r,
		ins:  []bound{{name: "A", dev: sparse}, {name: "B", dev: dense}},
		outs: []bound{{name: "C", dev: out}}}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pl.tiles, pl.tileRaw = 8, n
	p.sampleResident(pl)
	ci := pl.cost(&p.cfg, p.sctx.Spec())
	runtime.ReadMemStats(&after)

	if ci.DistributeWire <= 0 || ci.DistributeWire >= n/2 || ci.BroadcastWire != n || ci.CollectWire <= 0 || ci.CollectWire >= n/2 {
		t.Fatalf("LAN volumes = %d scattered / %d broadcast / %d collected: want sparse A and C well under %d and dense B at it",
			ci.DistributeWire, ci.BroadcastWire, ci.CollectWire, n)
	}
	const sampled = 3 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > sampled*3/2 {
		t.Fatalf("pricing allocated %d bytes to price %d sampled bytes, want at most 1.5x", got, sampled)
	}
}

// An environment input crossed the link once, and the open measured its
// wire: a loop moves it over the LAN at that ratio. It used to probe the
// input's head MiB again, and on a buffer whose head is dense but whose bulk
// is sparse that head-only verdict ("raw") scattered the whole 4 MiB for a
// buffer that uploaded in about one.
func TestEnvInputMovesAtItsTransferRatio(t *testing.T) {
	p, err := NewCloudPlugin(memCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20 // floats: a 4 MiB input
	in := data.Generate(1, n, data.Sparse, 83).Bytes()
	copy(in, data.Generate(1, n/4, data.Dense, 84).Bytes())
	out := make([]byte, 4*n)
	env, open, err := p.OpenEnv([]EnvBuffer{
		{Name: "A", Data: in, Upload: true},
		{Name: "B", Data: out, Download: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	loop, err := env.Run(scale2Region(n, in, out))
	if err != nil {
		t.Fatal(err)
	}
	if open.BytesUploaded <= 0 || open.BytesUploaded >= n*4/2 {
		t.Fatalf("open uploaded %d B of %d: want the sparse bulk compressed", open.BytesUploaded, 4*n)
	}
	if loop.BytesScattered != open.BytesUploaded {
		t.Fatalf("loop scattered %d B, want the %d B the open's upload measured", loop.BytesScattered, open.BytesUploaded)
	}
}

// Each shipped input of an environment carries the ratio its upload
// measured: wire over length, 1 over SkipRatio, the stored object's ratio on
// a cache hit. A zero-length input carries none and the first loop that
// reads it probes it.
func TestEnvCarriesUploadRatio(t *testing.T) {
	const n = 256 << 10 // floats: 1 MiB
	sparse := data.Generate(1, n, data.Sparse, 85).Bytes()
	dense := data.Generate(1, n, data.Dense, 86).Bytes()
	small := sparse[:xcompress.DefaultMinSize/2]
	carried := func(t *testing.T, env Env, name string) float64 {
		t.Helper()
		e := env.(*planEnv)
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.device[name].ratio
	}
	measured := func(open *trace.Report, in []byte) float64 {
		return float64(open.BytesUploaded) / float64(len(in))
	}
	one := func(*trace.Report, []byte) float64 { return 1 }
	for _, c := range []struct {
		name  string
		codec xcompress.Codec
		in    []byte
		want  func(open *trace.Report, in []byte) float64
	}{
		{"auto-sparse", xcompress.Codec{}, sparse, measured},
		{"raw", xcompress.Codec{Algo: xcompress.AlgoRaw}, sparse, one},
		{"disabled", xcompress.Codec{MinSize: -1}, sparse, one},
		{"under-min-size", xcompress.Codec{}, small, one},
		{"dense", xcompress.Codec{}, dense, one},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := memCloudConfig()
			cfg.Codec = c.codec
			p, err := NewCloudPlugin(cfg)
			if err != nil {
				t.Fatal(err)
			}
			env, open, err := p.OpenEnv([]EnvBuffer{{Name: "A", Data: c.in, Upload: true}})
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			if got, want := carried(t, env, "A"), c.want(open, c.in); got != want || got <= 0 || got > 1 {
				t.Fatalf("carried ratio %v, want %v (%d B uploaded of %d)", got, want, open.BytesUploaded, len(c.in))
			}
		})
	}

	t.Run("cache-hit", func(t *testing.T) {
		p := cachedPlugin(t)
		var ratios [2]float64
		for i := range ratios {
			env, open, err := p.OpenEnv([]EnvBuffer{{Name: "A", Data: sparse, Upload: true}})
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 && open.BytesUploaded != 0 {
				t.Fatalf("second open uploaded %d B, want a cache hit", open.BytesUploaded)
			}
			ratios[i] = carried(t, env, "A")
			if i == 0 && ratios[0] != measured(open, sparse) {
				t.Fatalf("first open carries %v, want its upload's %v", ratios[0], measured(open, sparse))
			}
			if _, err := env.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if ratios[0] <= 0 || ratios[0] >= xcompress.SkipRatio || ratios[1] != ratios[0] {
			t.Fatalf("carried ratios %v: want the cache hit to keep the stored object's compressible ratio", ratios)
		}
	})

	t.Run("zero-length", func(t *testing.T) {
		p, err := NewCloudPlugin(memCloudConfig())
		if err != nil {
			t.Fatal(err)
		}
		const n = 16
		in := data.Generate(1, n, data.Dense, 87).Bytes()
		out := make([]byte, 4*n)
		env, _, err := p.OpenEnv([]EnvBuffer{
			{Name: "A", Data: in, Upload: true},
			{Name: "Z", Data: nil, Upload: true},
			{Name: "B", Data: out, Download: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		if got := carried(t, env, "Z"); got != 0 {
			t.Fatalf("zero-length input carries %v, want 0 until a loop probes it", got)
		}
		r := scale2Region(n, in, out)
		r.Ins = append(r.Ins, Buffer{Name: "Z"})
		if _, err := env.Run(r); err != nil {
			t.Fatal(err)
		}
		if got := carried(t, env, "Z"); got != 1 {
			t.Fatalf("zero-length input after a loop carries %v, want the probe's 1", got)
		}
	})
}
