// Package arena recycles the process's large transient buffers: the driver's
// (offload: Fig. 1 step 3's received inputs, Eq. 8's rebuilt outputs,
// environment-resident buffers, the fallback guard's snapshot) and the store
// server's objects (storage: steps 2 and 7). Made fresh, each was zeroed,
// serially, before a fetch, the tiles or a socket read overwrote every byte
// of it. They come from one process-wide set of size classes instead, and
// the garbage collector decides how long idle memory stays, so there is
// nothing to tune.
//
// A buffer from the arena is dirty: it holds whatever its last holder left.
// Its holder writes every byte before reading it, and gives it back only
// after its last reader and writer have finished; each user states how it
// keeps both rules (offload/plan.go for the driver, storage.MemStore for
// stored objects).
//
// Retention is the garbage collector's: an idle buffer is dropped once two
// whole collections have run since it was given back. The count is the
// runtime's own, read when a buffer is given back and again when one is
// dropped, so a collection that starts before a give-back and ends after it,
// or a cleanup that runs late, costs no buffer a collection early. A process
// that gives its buffers back at the end of one region and draws them at the
// start of the next keeps them unless two whole collections fall between. The
// arena is not a sync.Pool because a pool keeps one item per processor where
// no other processor can take it: with the two same-sized buffers a stream
// region draws (an input's dev and an output's final), about every other
// region missed one of them.
package arena

import (
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"unsafe"

	"ompcloud/internal/trace/span"
)

const (
	// classBits gives each power of two 1<<classBits size classes, so a
	// buffer's capacity exceeds its length by less than an eighth.
	classBits = 3
	// minSize is the smallest pooled capacity; smaller buffers are plain
	// allocations, which Put ignores.
	minSize = 4 << 10

	metricHits   = "arena.hits"
	metricMisses = "arena.misses"
	metricHeld   = "arena.held_bytes"
)

var (
	idle idleBuffers
	// held is the capacity handed out by Get and not yet given back.
	held atomic.Int64
	// poison makes Put overwrite every byte of a buffer it takes back with
	// 0xFF — every float32 a NaN, which survives any arithmetic — so a reader
	// that outlives its buffer corrupts what it computes or sends.
	poison atomic.Bool
)

// idleBuffers holds each class's idle buffers, oldest first.
type idleBuffers struct {
	mu     sync.Mutex
	class  [64 << classBits][]idleBuf
	cycles [1]metrics.Sample // read under mu: a sample on the stack would escape
}

// idleBuf is an idle buffer, a pointer to its first byte (the class gives the
// capacity back), and the number of garbage collections the runtime had
// completed when it was given back.
type idleBuf struct {
	p  *byte
	gc uint64
}

// idleCycles is how many collections must complete after the count an idle
// buffer was given back at before it is dropped: one that may have been
// running at the give-back, and two whole ones.
const idleCycles = 3

func init() { ageOnGC() }

// ageOnGC attaches a cleanup to a throwaway object, so it runs once a garbage
// collection has found the object unreachable: it drops the buffers idle
// through two whole collections and arms itself again.
func ageOnGC() {
	runtime.AddCleanup(new([64]byte), func(struct{}) {
		idle.age()
		ageOnGC()
	}, struct{}{})
}

// gcCycles reports how many garbage collections the runtime has completed.
// The caller holds a.mu.
func (a *idleBuffers) gcCycles() uint64 {
	a.cycles[0].Name = "/gc/cycles/total:gc-cycles"
	metrics.Read(a.cycles[:])
	return a.cycles[0].Value.Uint64()
}

// age drops the buffers given back idleCycles or more collections ago.
func (a *idleBuffers) age() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropIdle(a.gcCycles())
}

// dropIdle drops the buffers given back idleCycles or more collections
// before done had completed. The caller holds a.mu.
func (a *idleBuffers) dropIdle(done uint64) {
	for i := range a.class {
		c := a.class[i]
		kept := c[:0]
		for _, b := range c {
			if done-b.gc < idleCycles {
				kept = append(kept, b)
			}
		}
		clear(c[len(kept):])
		a.class[i] = kept
	}
}

// take pops the class's newest idle buffer, or returns nil.
func (a *idleBuffers) take(class int) *byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.class[class]
	n := len(c)
	if n == 0 {
		return nil
	}
	p := c[n-1].p
	c[n-1] = idleBuf{}
	a.class[class] = c[:n-1]
	return p
}

func (a *idleBuffers) give(class int, p *byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.class[class] = append(a.class[class], idleBuf{p, a.gcCycles()})
}

// sizeClass reports the size class of an n-byte buffer, n >= minSize, and
// the capacity the class's buffers have: n rounded up to the next multiple of
// an eighth of the power of two below it.
func sizeClass(n int) (class, size int) {
	shift := bits.Len(uint(n-1)) - 1 - classBits
	m := (n - 1) >> shift // in [1<<classBits, 2<<classBits)
	return shift<<classBits + m - 1<<classBits, (m + 1) << shift
}

// Get returns an n-byte buffer from the arena. Its contents are undefined;
// the caller writes every byte before reading it, or clears it.
func Get(n int) []byte {
	if n < minSize {
		return make([]byte, n)
	}
	class, size := sizeClass(n)
	reg := span.Metrics()
	reg.Gauge(metricHeld).Set(held.Add(int64(size)))
	hits, misses := reg.Counter(metricHits), reg.Counter(metricMisses)
	if p := idle.take(class); p != nil {
		hits.Inc()
		return unsafe.Slice(p, size)[:n]
	}
	misses.Inc()
	return make([]byte, n, size)
}

// Put gives b, which Get returned, back to the arena. Nothing may read or
// write b afterwards.
func Put(b []byte) {
	size := cap(b)
	if size < minSize {
		return
	}
	class, want := sizeClass(size)
	if want != size {
		return // not the arena's
	}
	if poison.Load() {
		b = b[:size]
		for i := range b {
			b[i] = 0xFF
		}
	}
	span.Metrics().Gauge(metricHeld).Set(held.Add(-int64(size)))
	idle.give(class, unsafe.SliceData(b))
}

// Held reports the capacity handed out by Get and not yet given back, so a
// test can check that it gave back all it drew.
func Held() int64 { return held.Load() }

// Poison turns on or off the overwriting of every buffer given back with
// 0xFF. Only tests turn it on.
func Poison(on bool) { poison.Store(on) }
