// Package arena recycles the process's large transient buffers and costly
// transient state: the driver's buffers (offload: Fig. 1 step 3's received
// inputs, Eq. 8's rebuilt outputs, environment-resident buffers, the
// fallback guard's snapshot), the store server's objects (storage: steps 2
// and 7), and the scratch and codec state every chunk of a transfer passes
// through — chunkio's encode and wire scratch, xcompress's frame and probe
// scratch and its gzip writers and readers (Pool), storage's joined parts
// and the store server's per-connection reader and writer (Pool).
// Made fresh, each buffer was zeroed, serially, before a fetch, the tiles or
// a socket read overwrote every byte of it, and each gzip writer rebuilt its
// ~1.3 MB of deflate tables. They come from one process-wide set of size
// classes and pools instead, and the garbage collector decides how long idle
// memory stays, so there is nothing to tune.
//
// A buffer from the arena is dirty: it holds whatever its last holder left.
// Its holder writes every byte before reading it, and gives it back only
// after its last reader and writer have finished; each user states how it
// keeps both rules (offload/plan.go for the driver, storage.MemStore for
// stored objects).
//
// Retention is the garbage collector's, counted in the runtime's completed
// collections: the sweep that runs after each collection reads the count,
// stamps the items given back since the sweep before with it, and drops the
// items stamped three or more collections before. The count a give-back is
// stamped with is thus the one at the give-back or later, and neither a
// give-back nor a hand-out reads a runtime metric. An idle buffer or pooled
// value outlives the collection that may be running, or ended but not yet
// been swept, when it goes back and two whole ones after it; most often, as
// its first sweep comes a collection after the give-back, a third. A
// process that gives its buffers back at the end of one operation and
// draws them at the start of the next keeps them while no more than two
// whole collections fall between: a benchmark harness's forced collection
// and one the next operation's own allocation triggers do not empty it, as
// they empty a sync.Pool. The arena is not a sync.Pool either because a pool
// keeps one item per processor where no other processor can take it: with
// the two same-sized buffers a stream region draws (an input's dev and an
// output's final), about every other region missed one of them.
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

// idleBuffers holds each class's idle buffers, oldest first, and the pools
// whose idle values age with them.
type idleBuffers struct {
	mu     sync.Mutex
	class  [64 << classBits]idleList[*byte]
	pools  []interface{ dropIdle(done uint64) }
	cycles [1]metrics.Sample // read under mu: a sample on the stack would escape
}

// idleList is a list of idle items, oldest first: the one retention rule
// the buffer classes and every Pool share.
type idleList[P any] []idleItem[P]

// idleItem is an idle item (for a buffer, a pointer to its first byte: the
// class gives the capacity back) and the number of garbage collections the
// first sweep after its give-back read, or unswept.
type idleItem[P any] struct {
	p  P
	gc uint64
}

// unswept stamps an item no sweep has seen since its give-back.
const unswept = ^uint64(0)

// push appends p, given back now.
func (l *idleList[P]) push(p P) { *l = append(*l, idleItem[P]{p, unswept}) }

// pop removes and returns the newest item, if there is one.
func (l *idleList[P]) pop() (p P, ok bool) {
	n := len(*l)
	if n == 0 {
		return p, false
	}
	p = (*l)[n-1].p
	(*l)[n-1] = idleItem[P]{}
	*l = (*l)[:n-1]
	return p, true
}

// drop stamps the unswept items with done, a count of completed
// collections read after their give-back, and drops the items stamped
// idleCycles or more collections before done.
func (l *idleList[P]) drop(done uint64) {
	c := *l
	kept := c[:0]
	for _, b := range c {
		if b.gc == unswept {
			b.gc = done
		}
		if done-b.gc < idleCycles {
			kept = append(kept, b)
		}
	}
	clear(c[len(kept):])
	*l = kept
}

// idleCycles is how many collections must complete after an idle item's
// stamp before it is dropped.
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

// age reads how many garbage collections the runtime has completed, stamps
// the items given back since the last sweep with it and drops the items
// stamped idleCycles or more collections before.
func (a *idleBuffers) age() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cycles[0].Name = "/gc/cycles/total:gc-cycles"
	metrics.Read(a.cycles[:])
	a.dropIdle(a.cycles[0].Value.Uint64())
}

// dropIdle stamps the buffers and pooled values given back since the last
// sweep with done and drops those stamped idleCycles or more collections
// before it. The caller holds a.mu.
func (a *idleBuffers) dropIdle(done uint64) {
	for i := range a.class {
		a.class[i].drop(done)
	}
	for _, p := range a.pools {
		p.dropIdle(done)
	}
}

// take pops the class's newest idle buffer, or returns nil.
func (a *idleBuffers) take(class int) *byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, _ := a.class[class].pop()
	return p
}

func (a *idleBuffers) give(class int, p *byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.class[class].push(p)
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
	m := arenaMeters()
	m.held.Set(held.Add(int64(size)))
	if p := idle.take(class); p != nil {
		m.hits.Inc()
		return unsafe.Slice(p, size)[:n]
	}
	m.misses.Inc()
	return make([]byte, n, size)
}

// Scratch returns an empty buffer with room for at least n bytes, for a
// caller that appends into it: from the arena's classes even where n is
// below the smallest, so small scratch is recycled too. It goes back with
// Put, whatever its length; a buffer that appending outgrew is not the
// arena's, and the one Scratch returned goes back in its place.
func Scratch(n int) []byte { return Get(max(n, minSize))[:0] }

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
	arenaMeters().held.Set(held.Add(-int64(size)))
	idle.give(class, unsafe.SliceData(b))
}

// meters are the arena's metrics in the registry they were looked up in.
type meters struct {
	reg          *span.Registry
	hits, misses *span.Counter
	held         *span.Gauge
}

// current holds the meters of the default registry last seen, so Get and
// Put look their metrics up only when the registry is replaced, not under
// the registry's lock on every call.
var current atomic.Pointer[meters]

func arenaMeters() *meters {
	reg := span.Metrics()
	if m := current.Load(); m != nil && m.reg == reg {
		return m
	}
	return lookUpMeters(reg)
}

// lookUpMeters looks the arena's metrics up in reg, once per registry.
func lookUpMeters(reg *span.Registry) *meters {
	m := &meters{reg: reg, hits: reg.Counter(metricHits), misses: reg.Counter(metricMisses), held: reg.Gauge(metricHeld)}
	current.Store(m)
	return m
}

// Held reports the capacity handed out by Get and not yet given back, so a
// test can check that it gave back all it drew.
func Held() int64 { return held.Load() }

// Poison turns on or off the overwriting of every buffer given back with
// 0xFF. Only tests turn it on.
func Poison(on bool) { poison.Store(on) }

// Pool recycles values of one type — state too costly to build for each
// use, such as a compressor's window and tables — under the buffers' rule
// (see the package doc). The zero value with New
// set is ready to use. A Pool must not be copied after first use.
type Pool[T any] struct {
	// New makes a value when no idle one is left.
	New func() *T

	idle       idleList[*T] // guarded by idle.mu, as is registered
	registered bool
}

// Get returns an idle value, the newest, or a new one.
func (p *Pool[T]) Get() *T {
	idle.mu.Lock()
	v, ok := p.idle.pop()
	idle.mu.Unlock()
	if !ok {
		return p.New()
	}
	return v
}

// Put gives v back to the pool. Nothing may use v afterwards.
func (p *Pool[T]) Put(v *T) {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	if !p.registered {
		p.registered = true
		idle.pools = append(idle.pools, p)
	}
	p.idle.push(v)
}

func (p *Pool[T]) dropIdle(done uint64) { p.idle.drop(done) }
