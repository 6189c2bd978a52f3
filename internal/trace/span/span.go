// Package span is the structured tracing layer of the runtime: every unit
// the system models — transfer legs, per-chunk codec and store operations,
// Spark tasks (including speculative copies and re-executions), retry and
// breaker events, driver-side reconstruction — opens a span with start/end
// timestamps, a parent, and key/value attributes. Spans land in a sharded,
// bounded, drop-counting collector and export to the Chrome trace_event /
// Perfetto JSON format, so the paper's Fig. 5-7 time-attribution story
// becomes an inspectable timeline instead of a post-hoc aggregate.
//
// Two clocks coexist, kept apart as two trace "processes":
//
//   - TrackVirtual spans live on the modelled virtual timeline (simtime):
//     the accountant lays out the Fig. 1 phases, the streamed pipeline
//     stages, and the per-tile task schedule there. The region report's
//     CriticalPath is *derived from* this span layout (see Layout), so the
//     Fig. 5 numbers and the exported timeline can never disagree.
//   - TrackHost spans are measured host activity (chunk compress/PUT/GET,
//     Spark job wall time, retries, breaker transitions), timestamped
//     against the recorder's wall-clock epoch via simtime.FromReal.
//
// The package-level Default recorder follows the global-tracer idiom:
// instrumentation sites call the package helpers (Start, Event, Emit),
// which are single-atomic-load no-ops until a CLI or test calls Enable.
package span

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ompcloud/internal/simtime"
)

// Track identifies the trace process a span belongs to.
type Track uint8

const (
	// TrackHost is measured wall-clock host activity.
	TrackHost Track = iota
	// TrackVirtual is the modelled virtual-time schedule.
	TrackVirtual
)

// ID identifies a span within one recorder; 0 means "no span" (root).
type ID uint64

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key string
	Val string
}

// Span is one closed interval on a trace track. Instant events are spans
// with End == Start and Instant set.
type Span struct {
	ID     ID
	Parent ID
	Name   string
	// Cat is the span category ("phase", "stage", "tile", "chunk",
	// "transfer", "event", ...), exported as the Chrome trace "cat".
	Cat     string
	Track   Track
	Start   simtime.Duration
	End     simtime.Duration
	Instant bool
	Attrs   []Attr
}

// Len reports the span duration.
func (s Span) Len() simtime.Duration { return s.End - s.Start }

// Attr reports the value of the named attribute ("" when absent).
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// DroppedSpansMetric is the registry gauge mirroring a recorder's drop
// count: the number of spans the capacity bound rejected. Non-zero means
// the trace is incomplete — the collector is overloaded.
const DroppedSpansMetric = "trace.spans.dropped"

// DefaultCapacity bounds the default collector: enough for a multi-region
// chaos run with per-chunk spans (a 256 MiB transfer is ~256 chunk spans per
// leg), small enough that a runaway emitter cannot eat the heap. Overflow
// increments the drop counter instead of growing.
const DefaultCapacity = 1 << 16

// Options configures a Recorder.
type Options struct {
	// Capacity bounds the total retained spans; 0 means DefaultCapacity.
	Capacity int
	// Shards is the collector shard count; 0 means 8. Shards reduce lock
	// contention between concurrent emitters (per-chunk spans arrive from
	// every compression worker at once).
	Shards int
}

// Recorder collects spans. The zero value is not usable; use New. A nil
// *Recorder is a valid no-op sink: every method is nil-safe, which is what
// makes the disabled fast path a single pointer test.
type Recorder struct {
	shards []shard
	next   atomic.Uint64 // span-ID allocator and round-robin shard cursor
	drops  atomic.Uint64
	epoch  time.Time

	mu       sync.Mutex
	frontier simtime.Duration // max End across virtual-track spans
}

// shard is one bounded collector cell.
type shard struct {
	mu    sync.Mutex
	spans []Span
	cap   int
}

// New builds an enabled recorder.
func New(o Options) *Recorder {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.Shards > o.Capacity {
		o.Shards = o.Capacity
	}
	r := &Recorder{shards: make([]shard, o.Shards), epoch: time.Now()}
	per := o.Capacity / o.Shards
	if per < 1 {
		per = 1
	}
	for i := range r.shards {
		r.shards[i].cap = per
	}
	return r
}

// Now reports the wall clock as a virtual offset from the recorder epoch.
func (r *Recorder) Now() simtime.Duration {
	if r == nil {
		return 0
	}
	return simtime.FromReal(time.Since(r.epoch))
}

// Emit records a fully-formed span, assigning its ID (and keeping the
// caller's Parent). Spans beyond the capacity bound are dropped and counted
// exactly: len(Spans()) + Dropped() always equals the number of Emit calls.
func (r *Recorder) Emit(sp Span) ID {
	if r == nil {
		return 0
	}
	seq := r.next.Add(1)
	sp.ID = ID(seq)
	if sp.End < sp.Start {
		// Out-of-order close (an End timestamp from before the Start, e.g.
		// a parent closed after its child recorded a stale clock): clamp to
		// an instant rather than exporting a negative duration.
		sp.End = sp.Start
	}
	if sp.Track == TrackVirtual {
		r.mu.Lock()
		if sp.End > r.frontier {
			r.frontier = sp.End
		}
		r.mu.Unlock()
	}
	s := &r.shards[seq%uint64(len(r.shards))]
	s.mu.Lock()
	if len(s.spans) >= s.cap {
		s.mu.Unlock()
		// Overflow is the recorder's overload signal; mirroring the drop
		// count into the always-on metrics registry makes it observable
		// without a recorder snapshot (DESIGN.md §15: overload must be
		// visible while it is happening, not after).
		Metrics().Gauge(DroppedSpansMetric).Set(int64(r.drops.Add(1)))
		return ID(seq)
	}
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
	return ID(seq)
}

// Start opens a wall-clock span on the host track. End it with Scope.End.
// On a nil recorder it returns a nil scope, whose methods are no-ops.
func (r *Recorder) Start(name, cat string, parent ID) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, sp: Span{Parent: parent, Name: name, Cat: cat, Track: TrackHost, Start: r.Now()}}
}

// Event records an instant event at the current wall clock on the host
// track.
func (r *Recorder) Event(name, cat string, attrs ...Attr) {
	if r == nil {
		return
	}
	now := r.Now()
	r.Emit(Span{Name: name, Cat: cat, Track: TrackHost, Start: now, End: now, Instant: true, Attrs: attrs})
}

// VirtualFrontier reports the latest End among virtual-track spans emitted
// so far — the base at which the next region's virtual layout should start,
// so sequential regions append on the timeline instead of piling up at zero.
func (r *Recorder) VirtualFrontier() simtime.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frontier
}

// Dropped reports how many spans the capacity bound rejected.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.drops.Load()
}

// Len reports the retained span count.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.spans)
		s.mu.Unlock()
	}
	return n
}

// Spans snapshots every retained span, ordered by ID (emission order).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out = append(out, s.spans...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Scope is an open wall-clock span.
type Scope struct {
	r  *Recorder
	sp Span
	mu sync.Mutex
	id ID
}

// SetAttr annotates the span. No-op after End (and on a nil scope).
func (s *Scope) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.id != 0 {
		return
	}
	s.sp.Attrs = append(s.sp.Attrs, Attr{Key: key, Val: val})
}

// End closes and records the span. Closing twice records once; closing a
// scope whose parent already closed is fine — spans are independent records,
// and the exporter re-derives nesting from the timestamps.
func (s *Scope) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.id != 0 {
		return
	}
	s.sp.End = s.r.Now()
	s.id = s.r.Emit(s.sp)
}

// ID reports the span's ID (0 until End, so children started before the
// parent ends should pass the parent scope itself — see Child).
func (s *Scope) ID() ID {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id
}

// --- Default recorder ---------------------------------------------------

var defaultRec atomic.Pointer[Recorder]

// Enable installs a fresh default recorder and returns it. The previous
// default (if any) stops receiving spans.
func Enable(o Options) *Recorder {
	r := New(o)
	defaultRec.Store(r)
	return r
}

// Disable removes the default recorder; the package helpers become no-ops.
func Disable() { defaultRec.Store(nil) }

// Default reports the installed default recorder (nil when disabled). All
// Recorder methods are nil-safe, so call sites never need the nil check.
func Default() *Recorder { return defaultRec.Load() }

// Start opens a wall-clock span on the default recorder (no-op scope when
// disabled).
func Start(name, cat string, parent ID) *Scope { return Default().Start(name, cat, parent) }

// Event records an instant event on the default recorder.
func Event(name, cat string, attrs ...Attr) { Default().Event(name, cat, attrs...) }

// Emit records a fully-formed span on the default recorder.
func Emit(sp Span) ID { return Default().Emit(sp) }
