package offload

import (
	"math"
	"strings"
	"testing"

	"ompcloud/internal/cloud"
	"ompcloud/internal/config"
	"ompcloud/internal/data"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
)

func elasticCloud(t *testing.T, name string, workers, cores int, mutate func(*CloudConfig)) *CloudPlugin {
	t.Helper()
	cfg := CloudConfig{
		Spec:       spark.ClusterSpec{Workers: workers, CoresPerWorker: cores},
		Store:      storage.NewMemStore(),
		DeviceName: name,
		RetryBase:  -1,
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

// Satellite fix: a membership change must invalidate the device's learned
// split rates, or Eq. 3 keeps steering by throughput observed at the old
// width. After ScaleWorkers the scaled member's gauges are zeroed (the
// others' survive), the next split re-seeds from provisioned capacity, and
// the run after that has re-learned rates at the new width.
func TestScaleInvalidatesSplitRates(t *testing.T) {
	span.ResetMetrics()
	t.Cleanup(func() { span.ResetMetrics() })

	grow := elasticCloud(t, "grow", 2, 2, nil)
	steady := elasticCloud(t, "steady", 2, 2, nil)
	md, err := NewMultiDevice(MultiDeviceConfig{Members: []Plugin{grow, steady}})
	if err != nil {
		t.Fatal(err)
	}

	n := int64(4096)
	in := data.Generate(1, int(n), data.Dense, 31)
	out := make([]byte, 4*n)
	run := func() []int64 {
		t.Helper()
		if _, err := md.Run(scale2Region(n, in.Bytes(), out)); err != nil {
			t.Fatal(err)
		}
		return md.LastShares()
	}

	before := run()
	rateOf := func(dev string) int64 {
		return span.Metrics().Gauge(span.DevKey(splitRateMetric+"scale2", dev)).Value()
	}
	if rateOf("grow") <= 0 || rateOf("steady") <= 0 {
		t.Fatalf("twin members should publish rates: grow=%d steady=%d", rateOf("grow"), rateOf("steady"))
	}

	// Scale grow 2 -> 6 workers: its stale 2x2-era rate must not survive.
	if got, err := grow.ScaleWorkers(6); err != nil || got != 6 {
		t.Fatalf("ScaleWorkers(6) = %d, %v", got, err)
	}
	if grow.Cores() != 12 {
		t.Fatalf("post-scale Cores() = %d, want 12", grow.Cores())
	}
	if r := rateOf("grow"); r != 0 {
		t.Fatalf("grow's split rate survived the scale event: %d", r)
	}
	if r := rateOf("steady"); r <= 0 {
		t.Fatalf("steady's split rate was collateral damage: %d", r)
	}

	// With grow's rate gone, the next split seeds from provisioned
	// capacity: 12 cores vs 4 must out-share the twins' even split.
	after := run()
	if after[0] <= before[0] {
		t.Fatalf("grown member's share should rise with capacity: before %v, after %v", before, after)
	}
	if after[0]+after[1] != n {
		t.Fatalf("post-scale shares %v do not cover the loop", after)
	}
	if r := rateOf("grow"); r <= 0 {
		t.Fatalf("post-scale run should re-learn grow's rate, got %d", r)
	}

	// Scale-in converges the same way: back down to 2 workers (no job in
	// flight, so the drain lands immediately) and the rate is dropped again.
	if got, err := grow.ScaleWorkers(2); err != nil || got != 2 {
		t.Fatalf("ScaleWorkers(2) = %d, %v", got, err)
	}
	if grow.Cores() != 4 {
		t.Fatalf("post-shrink Cores() = %d, want 4", grow.Cores())
	}
	if r := rateOf("grow"); r != 0 {
		t.Fatalf("shrink left a stale rate: %d", r)
	}
	if _, err := grow.ScaleWorkers(0); err == nil {
		t.Fatal("scaling below one worker should be refused")
	}
}

// A drain that could not land immediately (a job held the engine when the
// autoscaler asked) is completed by Run at the next region boundary —
// the autoscaler never has to poll for it.
func TestRunLandsDeferredDrain(t *testing.T) {
	p := elasticCloud(t, "busy", 4, 2, nil)
	sctx := p.SparkContext()
	sctx.DrainWorkers(2) // requested mid-job: marked draining, not yet removed
	if sctx.DrainingWorkers() != 2 || p.Cores() != 8 {
		t.Fatalf("drain should be pending: %d draining, %d cores", sctx.DrainingWorkers(), p.Cores())
	}

	n := int64(512)
	in := data.Generate(1, int(n), data.Dense, 37)
	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	if p.Cores() != 4 || sctx.DrainingWorkers() != 0 {
		t.Fatalf("Run should land the deferred drain: %d cores, %d draining",
			p.Cores(), sctx.DrainingWorkers())
	}
}

// With a provider configured, scaling keeps the infrastructure ledger in
// step: Grow launches billable instances (charging virtual boot latency),
// Shrink terminates them into the retired ledger so their cost survives.
func TestScaleWorkersDrivesCluster(t *testing.T) {
	clock := &simtime.Clock{}
	prov := cloud.NewSimProvider(cloud.Credentials{AccessKey: "k", SecretKey: "s"},
		cloud.WithClock(clock), cloud.WithBootTime(simtime.FromSeconds(45)))
	p := elasticCloud(t, "elastic", 2, 2, func(c *CloudConfig) {
		c.Provider = prov
		c.InstanceType = "c3.large"
	})
	if err := p.InitError(); err != nil {
		t.Fatal(err)
	}
	cl := p.Cluster()
	if len(cl.Workers) != 2 {
		t.Fatalf("provisioned %d workers", len(cl.Workers))
	}
	t0 := clock.Now()
	if _, err := p.ScaleWorkers(4); err != nil {
		t.Fatal(err)
	}
	if len(cl.Workers) != 4 {
		t.Fatalf("cluster has %d workers after scale-out, want 4", len(cl.Workers))
	}
	if boot := clock.Now() - t0; boot < simtime.FromSeconds(45) {
		t.Fatalf("scale-out charged %v of warm-up, want >= 45s", boot)
	}
	if _, err := p.ScaleWorkers(1); err != nil {
		t.Fatal(err)
	}
	if len(cl.Workers) != 1 || len(cl.Retired) != 3 {
		t.Fatalf("after scale-in: %d live, %d retired", len(cl.Workers), len(cl.Retired))
	}
	if cl.Cost() <= 0 {
		t.Fatal("retired instances should keep their accrued cost")
	}
}

// A priced device stamps Report.CostUSD; an unpriced one leaves it zero;
// a multi-device run sums its members'.
func TestApplyCostStampsReport(t *testing.T) {
	n := int64(2048)
	in := data.Generate(1, int(n), data.Dense, 41)
	out := make([]byte, 4*n)

	free := elasticCloud(t, "free", 2, 2, nil)
	rep, err := free.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CostUSD != 0 {
		t.Fatalf("unpriced device billed $%v", rep.CostUSD)
	}

	paid := elasticCloud(t, "paid", 2, 2, func(c *CloudConfig) {
		c.CostCoreHourUSD = 0.105
		c.CostEgressGiBUSD = 0.09
	})
	rep, err = paid.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.105*float64(rep.Cores)*rep.Effective().Seconds()/3600 +
		0.09*float64(rep.BytesDownloaded)/(1<<30)
	if rep.CostUSD <= 0 || math.Abs(rep.CostUSD-want) > want*1e-9 {
		t.Fatalf("CostUSD = %v, want %v", rep.CostUSD, want)
	}

	merged := trace.Merge("set", "scale2", trace.Parallel, rep, rep)
	if merged.CostUSD != 2*rep.CostUSD {
		t.Fatalf("merged cost %v, want %v", merged.CostUSD, 2*rep.CostUSD)
	}
}

// checkedCloudConfig reads a flat file's cloud device without constructing it.
func checkedCloudConfig(f *config.File) (CloudConfig, error) {
	r := f.Reader("")
	cfg, _ := readCloudConfig(r)
	return cfg, r.Done()
}

// The cost knobs parse from [cluster]: explicit rates, the catalogue-derived
// auto rate, and per-device overrides through a [device] block.
func TestCostConfigParsing(t *testing.T) {
	f, err := config.Parse(strings.NewReader(`
[cluster]
workers = 2
cores-per-worker = 2
instance-type = c3.8xlarge
cost-core-hour = auto
cost-gib-egress = 0.09
`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := checkedCloudConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	it, err := cloud.LookupType("c3.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CostCoreHourUSD != it.PerCoreHourUSD() || cfg.CostEgressGiBUSD != 0.09 {
		t.Fatalf("auto pricing: core-hour %v (want %v), egress %v",
			cfg.CostCoreHourUSD, it.PerCoreHourUSD(), cfg.CostEgressGiBUSD)
	}

	f, err = config.Parse(strings.NewReader(`
[cluster]
cost-core-hour = 0.10

[device "cheap"]
cluster.cost-core-hour = 0.02

[device "flat"]
cluster.workers = 4
`))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := parseDeviceTable(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d device entries", len(entries))
	}
	if entries[0].Name != "cheap" || entries[0].Config.CostCoreHourUSD != 0.02 {
		t.Fatalf("per-device override lost: %+v", entries[0].Config.CostCoreHourUSD)
	}
	if entries[1].Name != "flat" || entries[1].Config.CostCoreHourUSD != 0.10 {
		t.Fatalf("flat-section fallback lost: %v", entries[1].Config.CostCoreHourUSD)
	}

	f, err = config.Parse(strings.NewReader("[cluster]\ncost-core-hour = -1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkedCloudConfig(f); err == nil {
		t.Fatal("negative cost-core-hour accepted")
	}
}
