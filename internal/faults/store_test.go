package faults

// The storage layer of a schedule is a link's time-varying quality:
// partitions, collapses, spikes and flaps are entries whose windows read the
// store's operation counter, never the wall clock.

import (
	"testing"
	"time"
)

// linkUp asks the schedule about the next n operations and reports, per
// operation, whether the link carried it.
func linkUp(s *Schedule, n int) []bool {
	up := make([]bool, n)
	for i := range up {
		e := s.Store("put", "jobs/1/in/A")
		up[i] = !e.Drop && !e.Hung
	}
	return up
}

func TestScheduleAtDefaultsHealthy(t *testing.T) {
	var nilSched *Schedule
	if err := nilSched.Before(1, 0, 0, 0); err != nil || nilSched.Silenced(0, 0) || nilSched.Rejoin(0) != 0 {
		t.Fatal("a nil schedule must inject nothing")
	}
	for _, s := range []*Schedule{nilSched, New(1)} {
		e := s.Store("get", "k")
		if e.Drop || e.Hung || e.Err != nil || e.Stall != 0 || e.Frac != 1 {
			t.Fatalf("a nil or empty schedule is a healthy link, got %+v", e)
		}
	}
}

func TestSchedulePartitionWindow(t *testing.T) {
	up := linkUp(New(1).Add(Entry{From: 10, To: 20, Do: Drop}), 21)
	if !up[9] {
		t.Fatal("link should be up before the window")
	}
	if up[10] || up[19] {
		t.Fatal("link should be down from the window's first operation to its last")
	}
	if !up[20] {
		t.Fatal("window end is exclusive: link should be up at To")
	}
}

func TestScheduleOpenEndedPartition(t *testing.T) {
	up := linkUp(New(1).Add(Entry{From: 5, Do: Drop}), 1000)
	if !up[4] || up[5] || up[999] {
		t.Fatal("an open-ended partition holds from From forever")
	}
}

func TestScheduleNextUp(t *testing.T) {
	// The link comes back at the window's end, whatever the operations in
	// it waited for: the next operation after To is carried.
	s := New(1).Add(Entry{From: 10, To: 30, Do: Drop})
	up := linkUp(s, 31)
	next := -1
	for i := 15; i < len(up); i++ {
		if up[i] {
			next = i
			break
		}
	}
	if next != 30 {
		t.Fatalf("want recovery at operation 30, got %d", next)
	}
	if n := s.Fired(Store); n != 20 {
		t.Fatalf("the window refused %d operations, want 20", n)
	}
}

func TestScheduleLastWindowWins(t *testing.T) {
	// A narrow partition punches through a broad jitter entry: inside it the
	// operation is refused, outside it the jitter applies.
	s := New(1).Add(
		Entry{Do: Delay, Dur: 40 * time.Millisecond},
		Entry{From: 10, To: 20, Do: Drop})
	for i := 0; i < 20; i++ {
		e := s.Store("get", "k")
		if i < 10 && (e.Drop || e.Stall != 40*time.Millisecond) {
			t.Fatalf("op %d: the spike should apply outside the partition, got %+v", i, e)
		}
		if i >= 10 && !e.Drop {
			t.Fatalf("op %d: the partition should win, got %+v", i, e)
		}
	}
}

func TestScheduleCollapseClampsFrac(t *testing.T) {
	const wan = 2e9 / 8 // a 2 Gbit/s WAN, in bytes per second
	e := New(1).Add(Entry{Do: Slow, Frac: 0.1, Rate: wan}).Store("put", "k")
	if e.Drop || e.Frac != 0.1 || e.Rate != wan {
		t.Fatalf("want a 10x collapse of the WAN rate, got %+v", e)
	}
	if e := New(1).Add(Entry{Do: Slow, Frac: 7}).Store("put", "k"); e.Frac != 1 {
		t.Fatalf("frac must clamp to 1, got %+v", e)
	}
	if e := New(1).Add(Entry{Do: Slow}).Store("put", "k"); e.Frac != 0.01 {
		t.Fatalf("a zero frac must clamp to 0.01, got %+v", e)
	}
}

func TestScheduleFlap(t *testing.T) {
	// Every third operation stalls: down, up, up, down, ... — and each
	// stall ends by itself, so the flap is over once the window closes.
	s := New(1).Add(Entry{To: 9, Every: 3, Do: Hang, Dur: 30 * time.Millisecond})
	up := linkUp(s, 12)
	want := []bool{true, true, false, true, true, false, true, true, false, true, true, true}
	for i := range want {
		if up[i] != want[i] {
			t.Errorf("op %d up = %v, want %v", i, up[i], want[i])
		}
	}
}

func TestScheduleDownDuring(t *testing.T) {
	// Downtime is what the schedule imposed: each refused operation's Dur
	// and each hang's stall, nothing for the operations it carried.
	s := New(1).Add(
		Entry{From: 10, To: 20, Do: Drop, Dur: time.Millisecond},
		Entry{From: 40, To: 41, Do: Hang, Dur: 10 * time.Millisecond})
	linkUp(s, 15)
	if d := s.Down(); d != 5*time.Millisecond {
		t.Fatalf("want 5ms downtime after 15 operations, got %v", d)
	}
	linkUp(s, 85)
	if d := s.Down(); d != 20*time.Millisecond {
		t.Fatalf("want 20ms downtime, got %v", d)
	}
}
