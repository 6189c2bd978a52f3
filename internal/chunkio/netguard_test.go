package chunkio

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ompcloud/internal/resilience"
	"ompcloud/internal/storage"
)

// hookStore interposes per-call hooks over a MemStore so tests can stall
// exactly one attempt: the guards must route around the stall, not wait it
// out.
type hookStore struct {
	storage.Store
	puts, gets atomic.Int64
	onPut      func(call int64)
	onGet      func(call int64)
}

func (h *hookStore) Put(key string, data []byte) error {
	if n := h.puts.Add(1); h.onPut != nil {
		h.onPut(n)
	}
	return h.Store.Put(key, data)
}

func (h *hookStore) Get(key string) ([]byte, error) {
	if n := h.gets.Add(1); h.onGet != nil {
		h.onGet(n)
	}
	return h.Store.Get(key)
}

// TestPutDeadlineAbortsAndRetries: the first PUT attempt stalls well past
// the deadline; the guard must abandon it as a transient DeadlineError and
// the retry policy's second attempt must land the object.
func TestPutDeadlineAbortsAndRetries(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	st := &hookStore{Store: storage.NewMemStore(), onPut: func(call int64) {
		if call == 1 {
			<-release // stalls until the test ends, far past the deadline
		}
	}}
	var stats TransferStats
	o := Options{
		PutTimeout: 25 * time.Millisecond,
		Stats:      &stats,
		Retry:      resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}},
	}
	payload := []byte("deadline payload")
	if _, err := Upload(st, "k", payload, o); err != nil {
		t.Fatalf("upload should survive one stalled attempt: %v", err)
	}
	if got := stats.DeadlineAborts.Load(); got < 1 {
		t.Fatalf("want >=1 deadline abort, got %d", got)
	}
	raw, _, err := download(st, "k", len(payload), Options{})
	if err != nil || !bytes.Equal(raw, payload) {
		t.Fatalf("object unreadable after deadline recovery: %v", err)
	}
}

// TestGetDeadlineReturnsDeadlineError: every attempt stalls, so a
// single-attempt policy must surface the transient DeadlineError itself.
func TestGetDeadlineReturnsDeadlineError(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	st := &hookStore{Store: storage.NewMemStore(), onGet: func(int64) { <-release }}
	if err := st.Store.Put("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	var stats TransferStats
	_, _, err := download(st, "k", 1, Options{GetTimeout: 20 * time.Millisecond, Stats: &stats})
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlineError, got %v", err)
	}
	if de.Op != "get" || !resilience.IsTransient(err) {
		t.Fatalf("want transient get deadline, got op=%q class=%v", de.Op, resilience.ClassOf(err))
	}
	if stats.DeadlineAborts.Load() < 1 {
		t.Fatal("deadline abort not counted")
	}
}

// TestHedgedGetBackupWins: the primary GET stalls past the hedge delay; the
// backup must be launched, win, and return the right bytes while the primary
// is still stuck.
func TestHedgedGetBackupWins(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	st := &hookStore{Store: storage.NewMemStore(), onGet: func(call int64) {
		if call == 1 {
			<-release
		}
	}}
	payload := []byte("hedged payload")
	if _, err := Upload(st, "k", payload, Options{}); err != nil {
		t.Fatal(err)
	}
	st.gets.Store(0)
	var stats TransferStats
	raw, _, err := download(st, "k", len(payload), Options{HedgeDelay: 10 * time.Millisecond, Stats: &stats})
	if err != nil || !bytes.Equal(raw, payload) {
		t.Fatalf("hedged download = %q, %v", raw, err)
	}
	if stats.HedgedGets.Load() != 1 {
		t.Fatalf("want exactly one hedge launched, got %d", stats.HedgedGets.Load())
	}
	if stats.HedgeWins.Load() != 1 {
		t.Fatalf("the stalled primary cannot have won: wins = %d", stats.HedgeWins.Load())
	}
}

// TestHedgeNotLaunchedWhenFast: a prompt primary must never pay for a
// backup request.
func TestHedgeNotLaunchedWhenFast(t *testing.T) {
	st := &hookStore{Store: storage.NewMemStore()}
	payload := []byte("prompt payload")
	if _, err := Upload(st, "k", payload, Options{}); err != nil {
		t.Fatal(err)
	}
	st.gets.Store(0)
	var stats TransferStats
	if _, _, err := download(st, "k", len(payload), Options{HedgeDelay: 5 * time.Second, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.HedgedGets.Load() != 0 || st.gets.Load() != 1 {
		t.Fatalf("fast primary must not hedge: launched=%d gets=%d", stats.HedgedGets.Load(), st.gets.Load())
	}
}

// TestUploadCancelledContext: a cancelled context fails the transfer
// promptly and permanently, without waiting out retry backoffs.
func TestUploadCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{
		Ctx:       ctx,
		ChunkSize: 1 << 10,
		Retry:     resilience.Policy{MaxAttempts: 5, BaseDelay: time.Hour}, // real sleeps: cancellation must preempt them
	}
	buf := make([]byte, 8<<10)
	start := time.Now()
	_, err := Upload(storage.NewMemStore(), "k", buf, o)
	if err == nil {
		t.Fatal("cancelled upload must fail")
	}
	if !resilience.IsPermanent(err) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want permanent context.Canceled, got class=%v err=%v", resilience.ClassOf(err), err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancelled upload took %v, want prompt return", el)
	}
	if _, _, derr := download(storage.NewMemStore(), "k", 0, Options{Ctx: ctx}); derr == nil || !errors.Is(derr, context.Canceled) {
		t.Fatalf("cancelled download must fail with context.Canceled, got %v", derr)
	}
}
