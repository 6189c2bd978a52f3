package arena

import "testing"

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
	a.class[0] = []idleBuf{{new(byte), 10}, {new(byte), 12}}
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
