package span

import (
	"sync"
	"testing"

	"ompcloud/internal/simtime"
)

func TestEmitAssignsSequentialIDs(t *testing.T) {
	r := New(Options{})
	a := r.Emit(Span{Name: "a"})
	b := r.Emit(Span{Name: "b"})
	if a == 0 || b == 0 || b <= a {
		t.Fatalf("IDs not sequential: %d, %d", a, b)
	}
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// An End timestamp before the Start (out-of-order close) must clamp to an
// instant, never export a negative duration.
func TestOutOfOrderCloseClamps(t *testing.T) {
	r := New(Options{})
	r.Emit(Span{Name: "backwards", Start: 100, End: 40, Track: TrackVirtual})
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Len() != 0 {
		t.Fatalf("clamped span has Len %v, want 0", sp.Len())
	}
	if sp.End != sp.Start || sp.Start != 100 {
		t.Fatalf("clamped span = [%v, %v], want [100, 100]", sp.Start, sp.End)
	}
	if got := r.VirtualFrontier(); got != 100 {
		t.Fatalf("frontier = %v, want 100 (clamped End)", got)
	}
}

func TestScopeEndIdempotent(t *testing.T) {
	r := New(Options{})
	sc := r.Start("op", "test", 0)
	sc.SetAttr("k", "v")
	sc.End()
	first := sc.ID()
	sc.SetAttr("late", "ignored") // after End: dropped
	sc.End()                      // second close: no new span
	if got := r.Len(); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
	if sc.ID() != first {
		t.Fatalf("ID changed across double End")
	}
	sp := r.Spans()[0]
	if sp.Attr("k") != "v" || sp.Attr("late") != "" {
		t.Fatalf("attrs = %v, want only k=v", sp.Attrs)
	}
}

// Parent scope closed before the child: both spans must still record, and
// the child keeps its (now-closed) parent reference.
func TestChildOutlivesParent(t *testing.T) {
	r := New(Options{})
	parent := r.Start("parent", "test", 0)
	parent.End()
	child := r.Start("child", "test", parent.ID())
	child.End()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("child parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
}

// The capacity bound must count drops exactly: retained + dropped == emitted,
// no matter how emissions land across shards.
func TestDropCounterExactAtBound(t *testing.T) {
	const capacity, emitted = 64, 1000
	r := New(Options{Capacity: capacity, Shards: 8})
	for i := 0; i < emitted; i++ {
		r.Emit(Span{Name: "s", Start: simtime.Duration(i), End: simtime.Duration(i + 1)})
	}
	retained, dropped := r.Len(), r.Dropped()
	if retained != capacity {
		t.Fatalf("retained %d spans, want exactly the %d capacity", retained, capacity)
	}
	if uint64(retained)+dropped != emitted {
		t.Fatalf("retained %d + dropped %d != emitted %d", retained, dropped, emitted)
	}
}

func TestDropCounterExactUnevenShards(t *testing.T) {
	// Capacity not divisible by shards: per-shard caps floor, so the bound
	// is shards*(capacity/shards); drops must still account exactly.
	const capacity, shards, emitted = 10, 3, 50
	r := New(Options{Capacity: capacity, Shards: shards})
	for i := 0; i < emitted; i++ {
		r.Emit(Span{Name: "s"})
	}
	bound := shards * (capacity / shards)
	if got := r.Len(); got != bound {
		t.Fatalf("retained %d, want %d", got, bound)
	}
	if got := uint64(r.Len()) + r.Dropped(); got != emitted {
		t.Fatalf("retained+dropped = %d, want %d", got, emitted)
	}
}

// Concurrent per-chunk emission: run with -race. Checks both safety and the
// exact retained+dropped invariant under contention.
func TestConcurrentEmission(t *testing.T) {
	const workers, perWorker = 16, 500
	r := New(Options{Capacity: 1024, Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%10 == 0 {
					r.Event("chunk.retry", "event", Attr{Key: "worker", Val: "w"})
					continue
				}
				sc := r.Start("chunk.put", "chunk", 0)
				sc.SetAttr("idx", "i")
				sc.End()
			}
		}(w)
	}
	wg.Wait()
	if got := uint64(r.Len()) + r.Dropped(); got != workers*perWorker {
		t.Fatalf("retained+dropped = %d, want %d", got, workers*perWorker)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if id := r.Emit(Span{Name: "x"}); id != 0 {
		t.Fatalf("nil Emit returned %d", id)
	}
	sc := r.Start("x", "y", 0)
	sc.SetAttr("k", "v")
	sc.End()
	r.Event("e", "c")
	if r.Len() != 0 || r.Dropped() != 0 || r.Spans() != nil || r.VirtualFrontier() != 0 {
		t.Fatalf("nil recorder leaked state")
	}
}

func TestDefaultRecorderToggle(t *testing.T) {
	defer Disable()
	Disable()
	if Default() != nil {
		t.Fatalf("a default recorder after Disable")
	}
	Emit(Span{Name: "dropped"}) // no-op while disabled
	r := Enable(Options{Capacity: 16})
	if Default() != r {
		t.Fatalf("Enable did not install recorder")
	}
	Emit(Span{Name: "kept"})
	Event("evt", "test")
	sc := Start("op", "test", 0)
	sc.End()
	if got := r.Len(); got != 3 {
		t.Fatalf("default recorder holds %d spans, want 3", got)
	}
}

func TestVirtualFrontierAdvances(t *testing.T) {
	r := New(Options{})
	r.Emit(Span{Track: TrackVirtual, Start: 0, End: 50})
	r.Emit(Span{Track: TrackHost, Start: 0, End: 900}) // host track: ignored
	r.Emit(Span{Track: TrackVirtual, Start: 10, End: 30})
	if got := r.VirtualFrontier(); got != 50 {
		t.Fatalf("frontier = %v, want 50", got)
	}
}
