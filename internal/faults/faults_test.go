package faults

import (
	"errors"
	"testing"
	"time"

	"ompcloud/internal/resilience"
)

func TestTaskEntriesMatchPartitionWorkerAndAttempt(t *testing.T) {
	s := New(1).Add(
		Entry{Layer: Before, Partition: 2, Worker: Any, To: 2},
		Entry{Layer: Before, Partition: Any, Worker: 3},
		Entry{Layer: After, Partition: 1, Worker: Any, Count: 1})
	for _, c := range []struct {
		layer                      Layer
		partition, attempt, worker int
		fail                       bool
	}{
		{Before, 2, 0, 0, true},  // partition 2, attempts 0 and 1
		{Before, 2, 1, 1, true},  //
		{Before, 2, 2, 1, false}, // past the window
		{Before, 5, 7, 3, true},  // every attempt on worker 3
		{Before, 5, 0, 2, false}, //
		{After, 1, 0, 0, true},   // one crash after success
		{After, 1, 1, 0, false},  // Count spent
	} {
		hook := s.Before
		if c.layer == After {
			hook = s.After
		}
		err := hook(1, c.partition, c.attempt, c.worker)
		if (err != nil) != c.fail {
			t.Fatalf("%+v: err %v", c, err)
		}
		if err != nil && (!errors.Is(err, ErrInjected) || !resilience.IsTransient(err)) {
			t.Fatalf("%+v: want a transient injected fault, got %v", c, err)
		}
	}
	if s.Fired(Before) != 3 || s.Fired(After) != 1 || s.Fired(Store) != 0 {
		t.Fatalf("fired before %d after %d store %d", s.Fired(Before), s.Fired(After), s.Fired(Store))
	}
}

func TestEveryNthAndClear(t *testing.T) {
	s := New(1).Add(Entry{Layer: Before, Partition: Any, Worker: Any, Every: 3})
	fails := 0
	for i := 0; i < 9; i++ {
		if s.Before(1, i, 0, 0) != nil {
			fails++
			if i%3 != 2 {
				t.Fatalf("attempt %d failed; want every third", i)
			}
		}
	}
	if fails != 3 {
		t.Fatalf("Every 3 failed %d of 9", fails)
	}
	s.Clear()
	if s.Before(1, 2, 0, 0) != nil {
		t.Fatal("a cleared schedule still injects")
	}
}

func TestEntriesSortByWindowStart(t *testing.T) {
	late, early := errors.New("late"), errors.New("early")
	s := New(1).Add(Entry{From: 2, Err: late}, Entry{From: 0, Err: early})
	s.Store("put", "k")
	s.Store("put", "k")
	if e := s.Store("put", "k"); !errors.Is(e.Err, early) {
		t.Fatalf("the entry with the earlier window runs first: got %v", e.Err)
	}
}

func TestRescuedHangEndsWhenAnotherAttemptPasses(t *testing.T) {
	s := New(1).Add(Entry{Layer: Before, Partition: 5, Worker: 1, Do: Hang, Dur: 10 * time.Second, Rescue: true})
	done := make(chan error, 1)
	go func() { done <- s.Before(7, 5, 0, 1) }()
	select {
	case err := <-done:
		t.Fatalf("the hang ended before any rescue: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.After(7, 4, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.After(8, 5, 0, 2); err != nil { // another job's partition 5
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("another partition or job rescued the hang: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.After(7, 5, 0, 2); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrInjected) || !resilience.IsTransient(err) {
			t.Fatalf("a rescued straggler fails transiently, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the passing attempt did not rescue the hang")
	}
	// Once rescued, a later straggler of the same partition fails at once;
	// with no rescue at all the hang ends at its cap.
	if err := s.Before(7, 5, 1, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("want the rescued partition's straggler to fail, got %v", err)
	}
	capped := New(1).Add(Entry{Layer: Before, Partition: Any, Worker: Any, Do: Hang, Dur: 10 * time.Millisecond, Rescue: true})
	if err := capped.Before(1, 0, 0, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("a capped hang fails once the cap passes, got %v", err)
	}
}

func TestHeartbeatDropAndDie(t *testing.T) {
	s := New(1).Add(
		Entry{Layer: Beat, Worker: 0, From: 1, To: 3, Do: Drop, Rejoin: 2},
		Entry{Layer: Before, Partition: Any, Worker: 1, Skip: 1, Do: Die})
	for tick, want := range []bool{false, true, true, false} {
		if got := s.Silenced(0, tick); got != want {
			t.Fatalf("worker 0 tick %d silenced = %v, want %v", tick, got, want)
		}
	}
	if s.Rejoin(0) != 2 || s.Rejoin(1) != 0 {
		t.Fatalf("rejoin delays %d / %d, want 2 / 0", s.Rejoin(0), s.Rejoin(1))
	}
	// Worker 1 dies when it starts its second task, and stays silent.
	if s.Before(1, 0, 0, 1) != nil || s.Silenced(1, 0) {
		t.Fatal("the first task start must not kill worker 1")
	}
	if err := s.Before(1, 1, 0, 1); err != nil {
		t.Fatalf("a die entry kills through the lease, not the attempt: %v", err)
	}
	for tick := 1; tick < 50; tick++ {
		if !s.Silenced(1, tick) {
			t.Fatalf("dead worker 1 beat at tick %d", tick)
		}
	}
	// A die with a rejoin lifts its silence that many ticks after it began.
	r := New(1).Add(Entry{Layer: Before, Partition: Any, Worker: 2, Do: Die, Rejoin: 3})
	r.Before(1, 0, 0, 2)
	for tick, want := range []bool{true, true, true, false} {
		if got := r.Silenced(2, 10+tick); got != want {
			t.Fatalf("tick %d silenced = %v, want %v", 10+tick, got, want)
		}
	}
}

func TestSeededDrawsReplay(t *testing.T) {
	draw := func(seed uint64) (fails int, pattern uint64) {
		s := New(seed).Add(Entry{Layer: Before, Partition: Any, Worker: Any, Prob: 0.5})
		for i := 0; i < 64; i++ {
			if s.Before(1, i, 0, 0) != nil {
				fails++
				pattern |= 1 << i
			}
		}
		return
	}
	n, a := draw(3)
	if _, b := draw(3); a != b {
		t.Fatal("equal seeds must replay identical draws")
	}
	if n == 0 || n == 64 {
		t.Fatalf("p=0.5 fired %d of 64; want a mix", n)
	}
	if _, c := draw(4); c == a {
		t.Fatal("different seeds drew identical schedules")
	}
}
