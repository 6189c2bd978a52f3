package main

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ompcloud/internal/fatbin"
	"ompcloud/internal/serve"
	"ompcloud/internal/simtime"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
)

// The traced run measures the layers from outside: it wraps the public
// interfaces the runtime is assembled from (storage.Store, a fatbin loop
// body, serve.Executor) and records a span per call. Nothing here is on the
// path of an untraced run.

// tracer keeps the benchmark's own spans in memory until the run ends. A nil
// *tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
}

// noParent marks a root span.
const noParent = -1

type spanRec struct {
	name, cat  string
	op         string // the op (or job) the span belongs to; shared by its whole tree
	start, end time.Duration
	parent     int // index into tracer.spans, or noParent
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name, cat, op string, parent int) int {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// The clock is read under the lock so that index order is start order.
	t.spans = append(t.spans, spanRec{name: name, cat: cat, op: op, start: time.Since(t.epoch), end: -1, parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

// selfTime is the summed self time of the given spans. A span's self time
// is its duration minus the part of it its direct children cover;
// overlapping children are merged first, so concurrent children are not
// subtracted twice.
func (t *tracer) selfTime(handles ...int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]spanRec, len(handles))
	for _, h := range handles {
		kids[h] = nil
	}
	for _, s := range t.spans {
		if _, ok := kids[s.parent]; ok && s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], s) // in start order: spans are appended as they open
		}
	}
	var self time.Duration
	for _, h := range handles {
		root := t.spans[h]
		self += root.end - root.start
		hi := root.start
		for _, k := range kids[h] {
			if lo, end := max(k.start, hi), min(k.end, root.end); end > lo {
				self -= end - lo
				hi = end
			}
		}
	}
	return self
}

// export emits the closed spans into a private span.Recorder, parents before
// children so every Parent id exists, and writes them as a Chrome trace.
// It returns the span and drop counts.
func (t *tracer) export(w io.Writer) (spans int, dropped uint64, err error) {
	t.mu.Lock()
	recs := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	rec := span.New(span.Options{Capacity: 1 << 20})
	ids := make([]span.ID, len(recs))
	// A parent is opened before its children, so index order is a valid
	// emission order.
	for i, s := range recs {
		if s.end < 0 {
			continue
		}
		var parent span.ID
		if s.parent != noParent {
			parent = ids[s.parent]
		}
		ids[i] = rec.Emit(span.Span{
			Parent: parent, Name: s.name, Cat: s.cat, Track: span.TrackHost,
			Start: simtime.FromReal(s.start), End: simtime.FromReal(s.end),
			Attrs: []span.Attr{{Key: "op", Val: s.op}},
		})
	}
	out := rec.Spans()
	return len(out), rec.Dropped(), span.WriteChrome(w, out, rec.Dropped())
}

// storeStats accumulates what the timing Store wrapper saw.
type storeStats struct {
	putBusy, getBusy   atomic.Int64 // nanoseconds, summed over concurrent calls
	puts, gets, others atomic.Int64
	bytesPut, bytesGot atomic.Int64
	errors             atomic.Int64
	inflight, peak     atomic.Int64
}

// timedStore is the timing Store wrapper. It sits between the plugin (or the
// daemon) and the real client, so its numbers are the store as the runtime
// sees it: round trip included.
type timedStore struct {
	inner storage.Store
	stats *storeStats
	tr    *tracer
	// owner maps a key to the op and parent span its call belongs to.
	owner func(key string) (op string, parent int)
}

func (s *timedStore) call(name, key string, busy *atomic.Int64, f func() error) error {
	n := s.stats.inflight.Add(1)
	for {
		p := s.stats.peak.Load()
		if n <= p || s.stats.peak.CompareAndSwap(p, n) {
			break
		}
	}
	op, parent := s.owner(key)
	h := s.tr.begin(name, "storage", op, parent)
	start := time.Now()
	err := f()
	if busy != nil {
		busy.Add(int64(time.Since(start)))
	}
	s.tr.end(h)
	s.stats.inflight.Add(-1)
	if err != nil {
		s.stats.errors.Add(1)
	}
	return err
}

func (s *timedStore) Put(key string, data []byte) error {
	s.stats.puts.Add(1)
	s.stats.bytesPut.Add(int64(len(data)))
	return s.call("put", key, &s.stats.putBusy, func() error { return s.inner.Put(key, data) })
}

func (s *timedStore) Get(key string) (b []byte, err error) {
	s.stats.gets.Add(1)
	err = s.call("get", key, &s.stats.getBusy, func() error { b, err = s.inner.Get(key); return err })
	s.stats.bytesGot.Add(int64(len(b)))
	return b, err
}

// GetAppend keeps the inner store's allocation-free read path reachable
// (storage.GetAppend falls back to Get for stores without one, exactly as
// it would without this wrapper).
func (s *timedStore) GetAppend(key string, dst []byte) (out []byte, err error) {
	s.stats.gets.Add(1)
	err = s.call("get", key, &s.stats.getBusy, func() error { out, err = storage.GetAppend(s.inner, key, dst); return err })
	s.stats.bytesGot.Add(int64(len(out) - len(dst)))
	return out, err
}

func (s *timedStore) Delete(key string) error {
	s.stats.others.Add(1)
	return s.call("delete", key, nil, func() error { return s.inner.Delete(key) })
}

func (s *timedStore) List(prefix string) (keys []string, err error) {
	s.stats.others.Add(1)
	err = s.call("list", prefix, nil, func() error { keys, err = s.inner.List(prefix); return err })
	return keys, err
}

func (s *timedStore) Stat(key string) (n int64, err error) {
	s.stats.others.Add(1)
	err = s.call("stat", key, nil, func() error { n, err = s.inner.Stat(key); return err })
	return n, err
}

var (
	_ storage.Store        = (*timedStore)(nil)
	_ storage.AppendGetter = (*timedStore)(nil)
)

// timedBody wraps a fatbin loop body: busy time per call, and a span per
// tile under whichever op is current.
func timedBody(body fatbin.LoopBody, busy *atomic.Int64, tr *tracer, current func() (op string, parent int)) fatbin.LoopBody {
	return func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		op, parent := current()
		h := tr.begin("tile", "kernel", op, parent)
		start := time.Now()
		err := body(lo, hi, scalars, in, out)
		busy.Add(int64(time.Since(start)))
		tr.end(h)
		return err
	}
}

// timedExec is the timing Executor wrapper around the daemon's executor.
type timedExec struct {
	inner serve.Executor
	tr    *tracer

	mu      sync.Mutex
	busy    map[string]time.Duration // job id → executor time
	reports []*trace.Report          // one per successful job
	spans   []int                    // one exec span per job
	open    map[string]opRef         // tenant → its running job
}

func newTimedExec(inner serve.Executor, tr *tracer) *timedExec {
	return &timedExec{
		inner: inner, tr: tr,
		busy: make(map[string]time.Duration),
		open: make(map[string]opRef),
	}
}

func (e *timedExec) Run(job *serve.Job, cores int) serve.Result {
	h := e.tr.begin("exec", "serve", job.ID, noParent)
	e.mu.Lock()
	e.open[job.Tenant] = opRef{op: job.ID, parent: h}
	e.mu.Unlock()
	start := time.Now()
	res := e.inner.Run(job, cores)
	d := time.Since(start)
	e.tr.end(h)
	e.mu.Lock()
	delete(e.open, job.Tenant)
	e.busy[job.ID] = d
	e.spans = append(e.spans, h)
	if res.Err == nil && res.Report != nil {
		e.reports = append(e.reports, res.Report)
	}
	e.mu.Unlock()
	return res
}

// owner attributes a daemon store key to the tenant's running job. Each
// benchmark tenant has one job in flight (closed loop), so the tenant names
// the job; journal and other daemon keys have no owner.
func (e *timedExec) owner(key string) (string, int) {
	if rest, ok := strings.CutPrefix(key, "tenants/"); ok {
		tenant, _, _ := strings.Cut(rest, "/")
		e.mu.Lock()
		r, running := e.open[tenant]
		e.mu.Unlock()
		if running {
			return r.op, r.parent
		}
	}
	return "daemon", noParent
}

var _ serve.Executor = (*timedExec)(nil)
