package arena

import (
	"runtime"
	"testing"
)

func TestArenaClasses(t *testing.T) {
	seen := make(map[int]int) // class -> capacity
	for n := minSize; n <= 1<<20; n++ {
		class, size := sizeClass(n)
		if size < n || (size-n)*8 >= n {
			t.Fatalf("%d bytes: class capacity %d, want at least n and under n/8 more", n, size)
		}
		if c, again := sizeClass(size); c != class || again != size {
			t.Fatalf("%d bytes: capacity %d maps to class %d (%d), not back to %d", n, size, c, again, class)
		}
		if prev, ok := seen[class]; ok && prev != size {
			t.Fatalf("class %d has capacities %d and %d", class, prev, size)
		}
		seen[class] = size
	}
	for _, n := range []int{1 << 30, 1<<40 + 1, 1 << 62} {
		if class, size := sizeClass(n); class < 0 || class >= len(idle.class) || size < n {
			t.Fatalf("%d bytes: class %d of %d, capacity %d", n, class, len(idle.class), size)
		}
	}
}

// A Get or a Put on the arena allocates nothing once a class has been used:
// drawing driver memory must not cost the daemon's small jobs what it saves
// the stream regions.
func TestArenaGetPutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	Put(Get(40 << 10))
	if allocs := testing.AllocsPerRun(100, func() { Put(Get(40 << 10)) }); allocs != 0 {
		t.Fatalf("Get + Put: %v allocations, want 0", allocs)
	}
}

// A buffer given back is handed out again, dirty, and counted as a hit.
func TestArenaRecyclesDirty(t *testing.T) {
	b := Get(100 << 10)
	for i := range b {
		b[i] = 7
	}
	Put(b)
	again := Get(99 << 10)
	defer Put(again)
	if &again[0] != &b[0] || again[0] != 7 {
		t.Fatal("a buffer of the same class was not reused as it was left")
	}
}

// With poison on, a buffer given back reads 0xFF in every byte of its
// capacity when it is handed out again.
func TestArenaPoison(t *testing.T) {
	Poison(true)
	defer Poison(false)
	b := Get(50 << 10)
	clear(b)
	Put(b)
	again := Get(50 << 10)
	defer Put(again)
	for i, c := range again[:cap(again)] {
		if c != 0xFF {
			t.Fatalf("byte %d of a poisoned buffer reads %#x", i, c)
		}
	}
}

// Held counts the capacity drawn and not given back; Put ignores a buffer
// that is not of a class's capacity.
func TestArenaHeld(t *testing.T) {
	before := Held()
	b := Get(5000)
	if got := Held() - before; got != int64(cap(b)) {
		t.Fatalf("held %d after drawing %d bytes of capacity", got, cap(b))
	}
	Put(make([]byte, 5000)) // not a class capacity: not the arena's
	Put(make([]byte, 100))
	Put(b)
	if got := Held() - before; got != 0 {
		t.Fatalf("held %d after giving everything back", got)
	}
}

// An idle buffer outlives the collection that may be running when it goes
// back and one whole collection after it, and is dropped with the second.
func TestArenaDropsAfterTwoWholeCollections(t *testing.T) {
	var a idleBuffers
	a.class[0] = idleList[*byte]{{new(byte), 10}, {new(byte), 12}}
	for _, step := range []struct {
		done uint64
		want int
	}{{12, 2}, {13, 1}, {14, 1}, {15, 0}} {
		a.dropIdle(step.done)
		if got := len(a.class[0]); got != step.want {
			t.Fatalf("after %d collections: %d idle buffers, want %d", step.done, got, step.want)
		}
	}
	if a.class[0][:1][0].p != nil {
		t.Fatal("a dropped buffer is still referenced")
	}
}

// A pooled value and a scratch buffer given back outlive the two
// collections a benchmark harness's forced collection and the next
// operation's own allocation make between two operations: both are handed
// out again, where a sync.Pool would have emptied.
func TestArenaOutlivesTwoCollections(t *testing.T) {
	type state struct{ window [1 << 10]byte }
	made := 0
	pool := Pool[state]{New: func() *state { made++; return new(state) }}
	v := pool.Get()
	s := Scratch(100)
	if cap(s) < minSize || len(s) != 0 {
		t.Fatalf("Scratch(100): len %d cap %d, want an empty buffer of a class", len(s), cap(s))
	}
	s = append(s, 1)
	pool.Put(v)
	Put(s)
	runtime.GC()
	runtime.GC()
	if got := pool.Get(); got != v || made != 1 {
		t.Fatalf("pool made %d values and handed out %p, want the one given back (%p)", made, got, v)
	}
	if again := Scratch(200); &again[:1][0] != &s[0] {
		t.Fatal("a scratch buffer given back was not reused after two collections")
	} else {
		Put(again)
	}
}

// A pool's idle values age with the buffers: the first sweep after a
// give-back stamps the value with the count it read, and the sweeps keep it
// until the third collection after that count.
func TestPoolAgesWithTheBuffers(t *testing.T) {
	made := 0
	pool := Pool[int]{New: func() *int { made++; return new(int) }}
	v := pool.Get()
	// sweepAfter runs a sweep, which stamps v, then another that reads a
	// count more collections past v's stamp.
	sweepAfter := func(more uint64) {
		idle.age()
		idle.mu.Lock()
		defer idle.mu.Unlock()
		idle.dropIdle(pool.idle[0].gc + more)
	}
	pool.Put(v)
	sweepAfter(idleCycles - 1)
	if got := pool.Get(); got != v {
		t.Fatal("a value idle through two whole collections was dropped")
	}
	pool.Put(v)
	sweepAfter(idleCycles)
	if pool.Get(); made != 2 {
		t.Fatalf("a value idle through a third collection was kept (%d made)", made)
	}
}

// A give-back is stamped by the first sweep after it, with the count that
// sweep read, not by the sweep before; a hand-out from its list leaves the
// stamp alone.
func TestSweepStampsGiveBacks(t *testing.T) {
	var a idleBuffers
	spare := new(byte)
	a.dropIdle(10)
	a.give(0, spare)
	a.give(0, new(byte))
	a.dropIdle(11)
	a.take(0)
	for _, done := range []uint64{12, 13} {
		if a.dropIdle(done); len(a.class[0]) != 1 || a.class[0][0].p != spare {
			t.Fatalf("a buffer first swept at 11 was dropped at %d", done)
		}
	}
	if a.dropIdle(14); len(a.class[0]) != 0 {
		t.Fatal("a buffer first swept at 11 outlived the count 14")
	}
}

// BenchmarkScratchPut times the round trip of a daemon chunk GET's wire
// scratch: drawn and given back once per 4 KiB chunk.
func BenchmarkScratchPut(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		Put(Scratch(4672))
	}
}
