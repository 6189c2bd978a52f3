package offload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
)

// newTestMulti builds the canonical heterogeneous set of the multi-device
// tests: an 8-thread host plus two asymmetric cloud clusters ("a": 2x2,
// "b": 4x4) on private in-memory stores. overlap selects each cloud
// member's dataflow (0 streaming, negative barriered).
func newTestMulti(t *testing.T, overlap int, noRebalance bool) (*MultiDevice, []*CloudPlugin) {
	t.Helper()
	host, err := NewHostPlugin(8)
	if err != nil {
		t.Fatal(err)
	}
	clouds := make([]*CloudPlugin, 0, 2)
	for _, spec := range []struct {
		name    string
		workers int
		cores   int
	}{{"a", 2, 2}, {"b", 4, 4}} {
		p, err := NewCloudPlugin(CloudConfig{
			Spec:       spark.ClusterSpec{Workers: spec.workers, CoresPerWorker: spec.cores},
			Store:      storage.NewMemStore(),
			DeviceName: spec.name,
			Overlap:    overlap,
			RetryBase:  -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		clouds = append(clouds, p)
	}
	md, err := NewMultiDevice(MultiDeviceConfig{
		Members:     []Plugin{host, clouds[0], clouds[1]},
		NoRebalance: noRebalance,
	})
	if err != nil {
		t.Fatal(err)
	}
	return md, clouds
}

func TestMultiDeviceValidation(t *testing.T) {
	host, _ := NewHostPlugin(4)
	if _, err := NewMultiDevice(MultiDeviceConfig{}); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := NewMultiDevice(MultiDeviceConfig{Members: []Plugin{host, host}}); err == nil {
		t.Fatal("duplicate member name accepted")
	}
	if _, err := NewMultiDevice(MultiDeviceConfig{
		Members: []Plugin{host}, Weights: []float64{1, 2}}); err == nil {
		t.Fatal("weight count mismatch accepted")
	}
	if _, err := NewMultiDevice(MultiDeviceConfig{
		Members: []Plugin{host}, Weights: []float64{0}}); err == nil {
		t.Fatal("zero static weight accepted")
	}
	md, err := NewMultiDevice(MultiDeviceConfig{Members: []Plugin{host}})
	if err != nil {
		t.Fatal(err)
	}
	if !md.Available() || md.Cores() != 4 || !strings.Contains(md.Name(), "host-4t") {
		t.Fatalf("meta: %s / %d / %v", md.Name(), md.Cores(), md.Available())
	}
}

// TestMultiDevicePartitionedBitIdentical: a partitioned-output kernel split
// host+2 clouds must reconstruct the exact bytes a single host run writes,
// in both dataflow modes — each element is computed by exactly one member.
func TestMultiDevicePartitionedBitIdentical(t *testing.T) {
	n := int64(1000)
	in := data.Generate(1, int(n), data.Dense, 11)
	want := make([]byte, 4*n)
	h, _ := NewHostPlugin(4)
	if _, err := h.Run(scale2Region(n, in.Bytes(), want)); err != nil {
		t.Fatal(err)
	}
	for _, overlap := range []int{0, -1} {
		md, _ := newTestMulti(t, overlap, true)
		got := make([]byte, 4*n)
		rep, err := md.Run(scale2Region(n, in.Bytes(), got))
		if err != nil {
			t.Fatalf("overlap %d: %v", overlap, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("overlap %d: split output diverges from host run", overlap)
		}
		if rep.FellBack {
			t.Fatalf("overlap %d: unexpected fallback: %s", overlap, rep.FallbackReason)
		}
		shares := md.LastShares()
		if len(shares) != 3 {
			t.Fatalf("overlap %d: shares %v", overlap, shares)
		}
		var sum int64
		for i, s := range shares {
			if s <= 0 {
				t.Fatalf("overlap %d: member %d got share %d, want every member engaged", overlap, i, s)
			}
			sum += s
		}
		if sum != n {
			t.Fatalf("overlap %d: shares %v sum to %d, want %d", overlap, shares, sum, n)
		}
	}
}

// TestMultiDeviceReductionMerge: reduction tails fold in ascending member
// order, so repeated runs of a pinned split are byte-identical across both
// dataflow modes; order-insensitive reductions (max, bit-or windows) match
// a single host run exactly.
func TestMultiDeviceReductionMerge(t *testing.T) {
	n := int64(2048)
	in := data.Generate(1, int(n), data.Dense, 13)

	sumRegion := func(out []byte) *Region {
		return &Region{
			Kernel:   "sumsq",
			Registry: testRegistry,
			N:        n,
			Ins:      []Buffer{{Name: "A", Data: in.Bytes(), BytesPerIter: 4}},
			Outs:     []Buffer{{Name: "S", Data: out, Reduce: ReduceSumF32}},
		}
	}

	// Serial reference, tolerance only: the fold order differs.
	var serial float64
	for _, v := range data.Floats(in.Bytes()) {
		serial += float64(v) * float64(v)
	}

	var first []byte
	for _, overlap := range []int{0, -1} {
		for run := 0; run < 2; run++ {
			md, _ := newTestMulti(t, overlap, true)
			out := make([]byte, 4)
			if _, err := md.Run(sumRegion(out)); err != nil {
				t.Fatalf("overlap %d run %d: %v", overlap, run, err)
			}
			if first == nil {
				first = append([]byte(nil), out...)
				got := float64(data.Floats(out)[0])
				if rel := (got - serial) / serial; rel > 1e-3 || rel < -1e-3 {
					t.Fatalf("sumsq %v too far from serial %v", got, serial)
				}
				continue
			}
			if !bytes.Equal(out, first) {
				t.Fatalf("overlap %d run %d: pinned split is not byte-deterministic", overlap, run)
			}
		}
	}

	// Max and windowed bit-or are order-insensitive: bit-equal to the host.
	for _, kernel := range []struct {
		name   string
		reduce ReduceOp
	}{{"maxval", ReduceMaxF32}, {"fillwindow", ReduceBitOr}} {
		size := 4
		if kernel.name == "fillwindow" {
			size = int(4 * n)
		}
		region := func(out []byte) *Region {
			return &Region{
				Kernel:   kernel.name,
				Registry: testRegistry,
				N:        n,
				Ins:      []Buffer{{Name: "A", Data: in.Bytes(), BytesPerIter: 4}},
				Outs:     []Buffer{{Name: "O", Data: out, Reduce: kernel.reduce}},
			}
		}
		want := make([]byte, size)
		h, _ := NewHostPlugin(4)
		if _, err := h.Run(region(want)); err != nil {
			t.Fatal(err)
		}
		md, _ := newTestMulti(t, 0, true)
		got := make([]byte, size)
		if _, err := md.Run(region(got)); err != nil {
			t.Fatalf("%s: %v", kernel.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: split result diverges from host run", kernel.name)
		}
	}
}

// TestMultiDeviceChaosAbsorb: one member's storage trips mid-region; its
// slice is re-absorbed on the host and the region still reconstructs the
// exact host-run bytes instead of failing.
func TestMultiDeviceChaosAbsorb(t *testing.T) {
	host, _ := NewHostPlugin(8)
	healthy, err := NewCloudPlugin(CloudConfig{
		Spec:       spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
		Store:      storage.NewMemStore(),
		DeviceName: "ok",
		RetryBase:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every job-object PUT fails and retries are disabled, so the faulty
	// member trips on its first upload; health probes (health/) survive,
	// so the member still looks available at split time.
	faulty, err := NewCloudPlugin(CloudConfig{
		Spec:       spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
		Store:      storage.NewMemStore(),
		Faults:     faults.New(1).Add(faults.Entry{Op: "put", Key: "jobs/"}),
		DeviceName: "trip",
		RetryMax:   -1,
		RetryBase:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	md, err := NewMultiDevice(MultiDeviceConfig{Members: []Plugin{host, healthy, faulty}})
	if err != nil {
		t.Fatal(err)
	}

	n := int64(900)
	in := data.Generate(1, int(n), data.Dense, 17)
	want := make([]byte, 4*n)
	h, _ := NewHostPlugin(4)
	if _, err := h.Run(scale2Region(n, in.Bytes(), want)); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, 4*n)
	rep, err := md.Run(scale2Region(n, in.Bytes(), got))
	if err != nil {
		t.Fatalf("tripped member should degrade the split, not fail it: %v", err)
	}
	if !rep.FellBack || !strings.Contains(rep.FallbackReason, "trip") {
		t.Fatalf("report should record the re-absorbed member: %+v", rep.FallbackReason)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded split output diverges from host run")
	}
	if shares := md.LastShares(); shares[2] == 0 {
		t.Fatalf("faulty member should have been assigned a share before tripping: %v", shares)
	}
}

// downPlugin is a member whose device never becomes available.
type downPlugin struct{}

func (downPlugin) Name() string    { return "down" }
func (downPlugin) Available() bool { return false }
func (downPlugin) Cores() int      { return 8 }
func (downPlugin) Run(*Region) (*trace.Report, error) {
	return nil, fmt.Errorf("down device must not run")
}

// TestMultiDeviceUnavailableMember: a member that is down at split time gets
// weight zero and the others absorb its share; a set with no live member
// falls back to the absorber host for the whole region.
func TestMultiDeviceUnavailableMember(t *testing.T) {
	n := int64(500)
	in := data.Generate(1, int(n), data.Dense, 19)
	want := make([]byte, 4*n)
	h, _ := NewHostPlugin(4)
	if _, err := h.Run(scale2Region(n, in.Bytes(), want)); err != nil {
		t.Fatal(err)
	}

	host, _ := NewHostPlugin(8)
	md, err := NewMultiDevice(MultiDeviceConfig{Members: []Plugin{host, downPlugin{}}})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*n)
	rep, err := md.Run(scale2Region(n, in.Bytes(), got))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FellBack {
		t.Fatalf("live members should cover a down member without fallback: %s", rep.FallbackReason)
	}
	shares := md.LastShares()
	if shares[0] != n || shares[1] != 0 {
		t.Fatalf("down member should hold no share: %v", shares)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("redistributed output diverges from host run")
	}

	// All members down: the absorber runs the whole region, reported as a
	// fallback.
	only, err := NewMultiDevice(MultiDeviceConfig{Members: []Plugin{downPlugin{}}})
	if err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, 4*n)
	rep, err = only.Run(scale2Region(n, in.Bytes(), got2))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack || !strings.Contains(rep.FallbackReason, "no multi-device member") {
		t.Fatalf("all-down set should fall back: %+v", rep.FallbackReason)
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("absorber output diverges from host run")
	}
}

// TestMultiDeviceRebalance: the first run of a kernel splits on provisioned
// seeds; its measured rates land in the metrics registry, so the second run
// shrinks a much slower member's share.
func TestMultiDeviceRebalance(t *testing.T) {
	span.ResetMetrics()
	t.Cleanup(func() { span.ResetMetrics() })

	// The members are twins in everything the seed models (cores, WAN
	// profile); the slow one differs only in a scheduling overhead the
	// seed cannot see, so the even first split is forced and the second
	// run's shift is attributable to the measured rates alone.
	cloudAt := func(name string, submit simtime.Duration) *CloudPlugin {
		costs := spark.DefaultCosts()
		costs.JobSubmit = submit
		p, err := NewCloudPlugin(CloudConfig{
			Spec:       spark.ClusterSpec{Workers: 2, CoresPerWorker: 4},
			Store:      storage.NewMemStore(),
			Costs:      costs,
			DeviceName: name,
			RetryBase:  -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fast := cloudAt("fast", 1500*simtime.Millisecond)
	slow := cloudAt("slow", 60*simtime.Second)
	md, err := NewMultiDevice(MultiDeviceConfig{Members: []Plugin{fast, slow}})
	if err != nil {
		t.Fatal(err)
	}

	n := int64(4096)
	in := data.Generate(1, int(n), data.Dense, 23)
	out := make([]byte, 4*n)

	if _, err := md.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	first := md.LastShares()
	for _, dev := range []string{"fast", "slow"} {
		if v := span.Metrics().Gauge(span.DevKey(splitRateMetric+"scale2", dev)).Value(); v <= 0 {
			t.Fatalf("run 1 should publish an observed rate for %s", dev)
		}
	}

	if _, err := md.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	second := md.LastShares()
	if second[1] >= first[1] {
		t.Fatalf("slower member's share should shrink: run1 %v, run2 %v", first, second)
	}
	if second[0]+second[1] != n {
		t.Fatalf("rebalanced shares %v do not cover the loop", second)
	}
	if second[0] <= second[1] {
		t.Fatalf("fast member should out-share the slow one after rebalance: %v", second)
	}
}

// TestMultiDeviceMetricsKeyedByDevice: two live cloud members must keep
// separable transfer metrics — the satellite fix for registry label
// collisions when several cloud plugins run in one process.
func TestMultiDeviceMetricsKeyedByDevice(t *testing.T) {
	span.ResetMetrics()
	t.Cleanup(func() { span.ResetMetrics() })

	md, _ := newTestMulti(t, 0, true)
	n := int64(1500)
	in := data.Generate(1, int(n), data.Dense, 29)
	out := make([]byte, 4*n)
	if _, err := md.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"a", "b"} {
		if c := span.Metrics().Histogram(span.DevKey("chunkio.put.seconds", dev)).Count(); c == 0 {
			t.Fatalf("device %q has no keyed put histogram", dev)
		}
		if c := span.Metrics().Histogram(span.DevKey("chunkio.get.seconds", dev)).Count(); c == 0 {
			t.Fatalf("device %q has no keyed get histogram", dev)
		}
	}
	// The unkeyed base histogram still aggregates across devices, so
	// existing dashboards keep working.
	base := span.Metrics().Histogram("chunkio.put.seconds").Count()
	a := span.Metrics().Histogram(span.DevKey("chunkio.put.seconds", "a")).Count()
	b := span.Metrics().Histogram(span.DevKey("chunkio.put.seconds", "b")).Count()
	if base < a+b || a == 0 || b == 0 {
		t.Fatalf("base histogram (%d) should aggregate both devices (%d + %d)", base, a, b)
	}
}
