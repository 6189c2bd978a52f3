package storage

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
)

// faulty wraps inner behind a fresh schedule of es and records the stalls
// it would sleep.
func faulty(inner Store, es ...faults.Entry) (*faultStore, *faults.Schedule, *time.Duration) {
	sched := faults.New(1).Add(es...)
	fs := WithFaults(inner, sched).(*faultStore)
	slept := new(time.Duration)
	fs.sleep = func(d time.Duration) { *slept += d }
	return fs, sched, slept
}

func TestFaultStoreFailFirstN(t *testing.T) {
	fs, sched, _ := faulty(NewMemStore(), faults.Entry{Op: "put", Count: 2})
	if err := fs.Put("a", []byte("x")); err == nil {
		t.Fatal("first put should fail")
	} else if !resilience.IsTransient(err) || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("injected fault not classified transient: %v", err)
	}
	if err := fs.Put("b", []byte("x")); err == nil {
		t.Fatal("second put should fail")
	}
	if err := fs.Put("c", []byte("x")); err != nil {
		t.Fatalf("third put should pass: %v", err)
	}
	// Other ops are untouched.
	if _, err := fs.Get("c"); err != nil {
		t.Fatalf("get hit a put-only entry: %v", err)
	}
	if n := sched.Fired(faults.Store); n != 2 {
		t.Fatalf("Fired = %d, want 2", n)
	}
}

func TestFaultStoreSkipAndKeyMatch(t *testing.T) {
	fs, _, _ := faulty(NewMemStore(), faults.Entry{Op: "put", Key: "/out/", Skip: 1, Count: 1,
		Err: errors.New("third strike")})
	if err := fs.Put("jobs/1/in/A", []byte("x")); err != nil {
		t.Fatalf("non-matching key failed: %v", err)
	}
	if err := fs.Put("jobs/1/out/C", []byte("x")); err != nil {
		t.Fatalf("skipped match failed: %v", err)
	}
	if err := fs.Put("jobs/1/out/D", []byte("x")); err == nil {
		t.Fatal("armed match should fail")
	}
	if err := fs.Put("jobs/1/out/E", []byte("x")); err != nil {
		t.Fatalf("count exhausted but still failing: %v", err)
	}
}

func TestFaultStoreCorruption(t *testing.T) {
	inner := NewMemStore()
	payload := []byte("hello, object store")
	if err := inner.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	fs, sched, _ := faulty(inner, faults.Entry{Op: "get", Key: "k", Count: 1, Do: faults.Truncate, Keep: 5})
	// First get: truncated to 5 bytes.
	got, err := fs.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[:5]) {
		t.Fatalf("truncation not applied: %q", got)
	}
	// Second get: truncate is spent; arm a bit flip and observe it.
	sched.Add(faults.Entry{Op: "get", Key: "k", Count: 1, Do: faults.Flip, Bit: 3})
	got, err = fs.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("bit flip not applied")
	}
	if len(got) != len(payload) {
		t.Fatalf("bit flip changed length: %d", len(got))
	}
	// Third get: schedule exhausted, pristine payload; and the inner
	// store was never corrupted.
	got, err = fs.Get("k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("store healed wrong: %q, %v", got, err)
	}
	// Composition: two corruptions firing on one call chain in order.
	sched.Add(faults.Entry{Op: "get", Count: 1, Do: faults.Truncate, Keep: 10},
		faults.Entry{Op: "get", Count: 1, Do: faults.Truncate, Keep: 4})
	got, err = fs.Get("k")
	if err != nil || !bytes.Equal(got, payload[:4]) {
		t.Fatalf("composed corruptions wrong: %q, %v", got, err)
	}
}

func TestFaultStoreLatencySpike(t *testing.T) {
	fs, _, slept := faulty(NewMemStore(), faults.Entry{Op: "put", Count: 2, Do: faults.Delay, Dur: 50 * time.Millisecond})
	for i := 0; i < 3; i++ {
		if err := fs.Put("k", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if *slept != 100*time.Millisecond {
		t.Fatalf("latency spikes = %v, want two 50ms", *slept)
	}
}

func TestFaultStoreSeededRandomDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		fs := WithFaults(NewMemStore(), faults.New(seed).Add(faults.Entry{Op: "put", Prob: 0.5}))
		outcomes := make([]bool, 64)
		for i := range outcomes {
			outcomes[i] = fs.Put("k", []byte("x")) != nil
		}
		return outcomes
	}
	a, b := run(9), run(9)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("p=0.5 schedule fired %d/%d times; want a mix", fails, len(a))
	}
	c := run(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestFaultStorePermanentErrorKeepsClass(t *testing.T) {
	fs, _, _ := faulty(NewMemStore(), faults.Entry{Op: "get", Count: 1, Err: resilience.MarkPermanent(errors.New("tombstone"))})
	_, err := fs.Get("k")
	if err == nil || !resilience.IsPermanent(err) {
		t.Fatalf("explicit permanent classification lost: %v", err)
	}
}

func TestFaultStorePassthrough(t *testing.T) {
	fs, sched, slept := faulty(NewMemStore())
	if err := fs.Put("a/b", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get("a/b")
	if err != nil || string(got) != "v" {
		t.Fatalf("passthrough get: %q, %v", got, err)
	}
	if n, err := fs.Stat("a/b"); err != nil || n != 1 {
		t.Fatalf("passthrough stat: %d, %v", n, err)
	}
	keys, err := fs.List("a/")
	if err != nil || len(keys) != 1 {
		t.Fatalf("passthrough list: %v, %v", keys, err)
	}
	if err := fs.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("a/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after delete, got %v", err)
	}
	if *slept != 0 || sched.Fired(faults.Store) != 0 || fs.PartitionSeconds() != 0 {
		t.Fatalf("an empty schedule acted: slept %v, fired %d", *slept, sched.Fired(faults.Store))
	}
}

func TestNetFaultPartitionDropRefusesTransient(t *testing.T) {
	fs, sched, _ := faulty(NewMemStore(), faults.Entry{Do: faults.Drop})
	if err := fs.Put("k", []byte("v")); err == nil {
		t.Fatal("partitioned put should fail")
	} else {
		if !errors.Is(err, ErrPartitioned) {
			t.Fatalf("want ErrPartitioned in the chain, got %v", err)
		}
		if !resilience.IsTransient(err) {
			t.Fatalf("partition errors must be transient, got class %v", resilience.ClassOf(err))
		}
	}
	if _, err := fs.Get("k"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned get should refuse, got %v", err)
	}
	if _, err := fs.List("j"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned list should refuse, got %v", err)
	}
	if n := sched.Fired(faults.Store); n != 3 {
		t.Fatalf("want 3 refused ops, got %d", n)
	}
}

func TestNetFaultOpClockDeterministicWindow(t *testing.T) {
	// Partition from the 4th operation onward, forever, whatever the wall
	// time: each refused operation stands for 1 ms of downtime.
	fs, _, _ := faulty(NewMemStore(), faults.Entry{From: 3, Do: faults.Drop, Dur: time.Millisecond})
	for i := 0; i < 3; i++ {
		if err := fs.Put("k", []byte("v")); err != nil {
			t.Fatalf("op %d before the window should pass: %v", i, err)
		}
	}
	if fs.PartitionSeconds() != 0 {
		t.Fatal("no downtime before the window opens")
	}
	if err := fs.Put("k", []byte("v")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("4th op should be partitioned, got %v", err)
	}
	if got := fs.PartitionSeconds(); got != 0.001 {
		t.Fatalf("partition seconds = %v, want the refused op's 1 ms", got)
	}
}

func TestNetFaultHangBlocksUntilWindowEnds(t *testing.T) {
	// A hang stalls for its stated duration, then the operation proceeds.
	fs, _, slept := faulty(NewMemStore(), faults.Entry{Count: 1, Do: faults.Hang, Dur: 50 * time.Millisecond})
	if err := fs.Put("k", []byte("v")); err != nil {
		t.Fatalf("a hung put should succeed after its stall: %v", err)
	}
	if *slept != 50*time.Millisecond {
		t.Fatalf("op should have stalled 50ms, slept %v", *slept)
	}
	if got := fs.PartitionSeconds(); got != 0.05 {
		t.Fatalf("partition seconds = %v, want the stall's 0.05", got)
	}
	if _, err := fs.Get("k"); err != nil || *slept != 50*time.Millisecond {
		t.Fatalf("a spent hang stalled again (slept %v, err %v)", *slept, err)
	}
	// And it really waits: the default clock is time.Sleep.
	live := WithFaults(NewMemStore(), faults.New(1).Add(faults.Entry{Do: faults.Hang, Dur: 20 * time.Millisecond}))
	start := time.Now()
	if err := live.Put("k", []byte("v")); err != nil || time.Since(start) < 20*time.Millisecond {
		t.Fatalf("hang returned after %v (err %v), want >= 20ms", time.Since(start), err)
	}
}

func TestNetFaultCollapseChargesAndMetersRate(t *testing.T) {
	const rate = 1e6 // 1 MB/s nominal
	fs, _, slept := faulty(NewMemStore(), faults.Entry{Do: faults.Slow, Frac: 0.1, Rate: rate})
	data := make([]byte, 10_000)
	for i := 0; i < meterMinSamples; i++ {
		if err := fs.Put("k", data); err != nil {
			t.Fatal(err)
		}
	}
	// Each put pays n/rate × (1/frac − 1) = 10ms × 9 = 90ms surcharge.
	wantPer := 90 * time.Millisecond
	got := *slept / meterMinSamples
	if got < wantPer-time.Millisecond || got > wantPer+time.Millisecond {
		t.Fatalf("collapse surcharge per op = %v, want ~%v", got, wantPer)
	}
	// Observed rate reflects real wall time, which here excludes the
	// recorded (not slept) surcharge — so just check the meter is live and
	// the observer interface is wired.
	var bo BandwidthObserver = fs
	if up, _ := bo.ObservedBPS(); up <= 0 {
		t.Fatal("upload meter should report a rate after enough samples")
	}
}

func TestNetFaultJitterDeterministicDraws(t *testing.T) {
	run := func(seed uint64) time.Duration {
		fs := WithFaults(NewMemStore(), faults.New(seed).Add(faults.Entry{Do: faults.Delay, Dur: 7 * time.Millisecond, Prob: 0.5})).(*faultStore)
		var slept time.Duration
		fs.sleep = func(d time.Duration) { slept += d }
		for i := 0; i < 64; i++ {
			if err := fs.Put("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		return slept
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("equal seeds must replay identical jitter: %v vs %v", a, b)
	}
	if a == 0 || a == 64*7*time.Millisecond {
		t.Fatalf("prob-0.5 jitter over 64 ops drew %v; want a mix", a)
	}
	if c := run(7); c == a {
		t.Logf("different seeds drew identical jitter totals (%v); unlikely but legal", c)
	}
}

func TestNetFaultHealthyPassThrough(t *testing.T) {
	// A schedule whose entries never match this store's keys is a healthy
	// link.
	fs, _, slept := faulty(NewMemStore(), faults.Entry{Key: "elsewhere/", Do: faults.Drop},
		faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: faults.Any})
	if err := fs.Put("k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get("k")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if n, err := fs.Stat("k"); err != nil || n != 5 {
		t.Fatalf("Stat = %d, %v", n, err)
	}
	if err := fs.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after delete, got %v", err)
	}
	if *slept != 0 {
		t.Fatalf("healthy link stalled %v", *slept)
	}
}
