package offload

import (
	"runtime"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/storage"
)

// TestPartitionMidFlightFallsBackCleanly: the WAN partitions hard after the
// health probe and the first uploads succeed, so the failure is mid-flight;
// the manager must complete the region on the host, and the abandoned cloud
// attempt must not leak goroutines.
func TestPartitionMidFlightFallsBackCleanly(t *testing.T) {
	// The partition opens at the 31st storage operation and never heals —
	// deterministically mid-run, after the probe's ops and the first chunk
	// PUTs, regardless of machine speed.
	cfg, sched := faultyConfig(faults.Entry{From: 30, Do: faults.Drop, Dur: time.Millisecond})
	cfg.RetryMax = -1 // partitions don't heal here: fail fast to the manager
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Available() {
		t.Fatal("device must look available before the partition window")
	}
	host, _ := NewHostPlugin(2)
	m, _ := NewManager(host)
	id := m.Register(p)

	before := runtime.NumGoroutine()
	n := int64(4000)
	in := data.Generate(1, int(n), data.Dense, 31)
	out := make([]byte, 4*n)
	rep, err := m.Run(id, scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatalf("partitioned run must fall back, not fail: %v", err)
	}
	if !rep.FellBack {
		t.Fatal("report must be flagged FellBack after a hard partition")
	}
	if sched.Fired(faults.Store) == 0 {
		t.Fatal("partition never refused an operation; test exercised nothing")
	}
	if sched.Down() <= 0 {
		t.Fatal("partition accounting must accrue downtime")
	}
	for i, v := range in.V {
		if data.GetFloat(out, i) != 2*v {
			t.Fatalf("fallback result wrong at %d", i)
		}
	}
	// Abandoned transfer goroutines must drain: give the scheduler a
	// moment, then require the count back near the baseline.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after partition fallback: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// obsStore fakes a bandwidth-observing store: ObservedBPS reports whatever
// the test pins, letting degraded-mode logic be driven without wall time.
type obsStore struct {
	storage.Store
	up, down float64
}

func (o *obsStore) ObservedBPS() (float64, float64) { return o.up, o.down }

// TestDegradedModeSwitchesAndRecovers: a collapsed observed rate flips the
// degraded latch (counted in the report), a recovered rate flips it back,
// and outputs stay byte-exact throughout.
func TestDegradedModeSwitchesAndRecovers(t *testing.T) {
	st := &obsStore{Store: storage.NewMemStore(), up: 1e6, down: 1e6} // ~8 Mbps observed
	cfg := resilientConfig(st)
	cfg.AdaptDegraded = true
	// The default profile's WAN is far above 8 Mbps, so the first leg's
	// bandwidth sample enters degraded mode immediately.
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(3000)
	in := data.Generate(1, int(n), data.Dense, 32)
	out := make([]byte, 4*n)
	rep, err := p.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedSwitches < 1 {
		t.Fatalf("collapsed link must enter degraded mode, switches = %d", rep.DegradedSwitches)
	}
	if !p.degraded.Load() {
		t.Fatal("latch must still be degraded while the rate stays collapsed")
	}
	for i, v := range in.V {
		if data.GetFloat(out, i) != 2*v {
			t.Fatalf("degraded run wrong at %d", i)
		}
	}

	// The link heals well past the exit threshold: the next run must
	// recover (one more transition) and stay healthy.
	st.up, st.down = 1e12, 1e12
	out2 := make([]byte, 4*n)
	rep2, err := p.Run(scale2Region(n, in.Bytes(), out2))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.DegradedSwitches < 1 {
		t.Fatalf("healed link must exit degraded mode, switches = %d", rep2.DegradedSwitches)
	}
	if p.degraded.Load() {
		t.Fatal("latch must clear once the observed rate recovers")
	}
}

// TestDegradedChunkBytes pins the shrink rule: quarter size, floored, never
// grown, sequential policy untouched.
func TestDegradedChunkBytes(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 256 << 10},        // default 1 MiB -> quarter
		{4 << 20, 1 << 20},    // 4 MiB -> 1 MiB
		{128 << 10, 64 << 10}, // floor engages
		{32 << 10, 32 << 10},  // already below floor: never grow
		{-1, -1},              // sequential policy: no chunks to shrink
	}
	for _, c := range cases {
		if got := degradedChunkBytes(c.in); got != c.want {
			t.Errorf("degradedChunkBytes(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}
