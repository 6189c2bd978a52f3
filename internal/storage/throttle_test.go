package storage

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestThrottledRoundTrip checks the wrapper is a transparent Store.
func TestThrottledRoundTrip(t *testing.T) {
	st := NewThrottled(NewMemStore(), 0, 0) // uncapped: no sleeping
	if err := st.Put("k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("k")
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if n, err := st.Stat("k"); err != nil || n != 5 {
		t.Fatalf("Stat = %d, %v", n, err)
	}
	keys, err := st.List("")
	if err != nil || len(keys) != 1 {
		t.Fatalf("List = %v, %v", keys, err)
	}
	if err := st.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("k"); err == nil {
		t.Fatal("deleted key still present")
	}
}

// TestThrottledPacesBandwidth checks a capped link actually takes the wire
// time, and that the two directions are independent (full duplex): a
// concurrent upload and download each pay their own transfer, not the sum.
func TestThrottledPacesBandwidth(t *testing.T) {
	// 8 Mbit/s = 1 MB/s; 200 KB transfers at 200 ms each.
	st := NewThrottled(NewMemStore(), 8, 0)
	payload := make([]byte, 200_000)
	start := time.Now()
	if err := st.Put("a", payload); err != nil {
		t.Fatal(err)
	}
	if up := time.Since(start); up < 150*time.Millisecond {
		t.Fatalf("200 KB at 1 MB/s finished in %v, want ~200ms", up)
	}

	// Preload a second object, then run one upload and one download
	// concurrently: full duplex means both finish in ~one transfer time.
	if err := st.Put("b", payload); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = st.Put("c", payload) }()
	go func() { defer wg.Done(); _, _ = st.Get("b") }()
	wg.Wait()
	both := time.Since(start)
	if both > 380*time.Millisecond {
		t.Fatalf("concurrent up+down took %v, want ~200ms (full duplex), not ~400ms (serialized)", both)
	}
}

func TestThrottledObservedBPS(t *testing.T) {
	// 8 Mbps = 1 MB/s; 64 KiB per op takes ~65ms, so the observed rate
	// should land near the configured cap.
	th := NewThrottled(NewMemStore(), 8, 0)
	data := make([]byte, 64<<10)
	for i := 0; i < meterMinSamples; i++ {
		if err := th.Put("k", data); err != nil {
			t.Fatal(err)
		}
	}
	up, down := th.ObservedBPS()
	if down != 0 {
		t.Fatalf("no downloads yet, want down=0, got %v", down)
	}
	if up < 0.5e6 || up > 1.5e6 {
		t.Fatalf("observed upload rate %v, want ~1e6", up)
	}
	for i := 0; i < meterMinSamples; i++ {
		if _, err := th.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	if _, down = th.ObservedBPS(); down < 0.5e6 || down > 1.5e6 {
		t.Fatalf("observed download rate %v, want ~1e6", down)
	}
}
