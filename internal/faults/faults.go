// Package faults is the one fault schedule every layer of the runtime
// consults. A Schedule is a seeded, sorted list of entries, each a (where,
// when, what): a layer and a matcher on it, a window on that layer's own
// counter, and an action. The storage wrapper (storage.WithFaults), the
// Spark task-attempt hooks and the membership heartbeat all ask the same
// schedule, so one list can say "the link drops from the 6th store
// operation while worker 1 dies at its second task".
//
// The schedule decides; the layers act on its decision. Nothing here reads
// the wall clock to decide what fires: every window is an operation,
// attempt or tick index and every probability a seeded draw, so a schedule
// replays the same decisions however fast the host runs. The only waits it
// imposes are the stated durations of Hang and Delay entries, and a rescued
// hang's cap.
package faults

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"ompcloud/internal/resilience"
	"ompcloud/internal/trace/span"
)

// Layer is where an entry applies; it also names the counter the entry's
// window reads.
type Layer uint8

const (
	// Store is a storage operation; the counter is its index among every
	// operation the schedule has been asked about, from 0.
	Store Layer = iota
	// Before is a task attempt just before it computes; the counter is the
	// attempt index.
	Before
	// After is a task attempt that has computed but not yet delivered; the
	// counter is the attempt index.
	After
	// Beat is a worker's heartbeat; the counter is the membership tick.
	Beat
)

// Action is what an entry does when it fires.
type Action uint8

const (
	// Fail fails the operation with Err. Unclassified errors are marked
	// transient: injected faults model the recoverable chaos of a cloud.
	Fail Action = iota
	// Drop refuses a storage operation as partitioned, or silences a
	// heartbeat.
	Drop
	// Hang stalls the operation for Dur, then lets it proceed. With Rescue,
	// a Before hang ends early once another attempt of the same (job,
	// partition) passes After, and then fails.
	Hang
	// Truncate cuts a Get's payload to Keep bytes.
	Truncate
	// Flip XOR-flips bit Bit of a Get's payload.
	Flip
	// Slow charges a transfer of n bytes n/Rate × (1/Frac − 1) on top of
	// what the store takes: the link carries Frac of its nominal Rate.
	Slow
	// Delay adds Dur of latency. With Prob it is seeded jitter.
	Delay
	// Die, on a Before entry, silences the worker's heartbeats from this
	// task on; the lease does the killing. With Rejoin the silence lifts
	// Rejoin ticks later.
	Die
)

var actionNames = [...]string{"fail", "drop", "hang", "truncate", "flip", "slow", "delay", "die"}

func (a Action) String() string { return actionNames[a] }

// Any matches every partition or worker.
const Any = -1

// ErrInjected is the error a Fail entry without its own Err injects, and
// the one a rescued hang fails with.
var ErrInjected = errors.New("injected fault")

// Entry is one (where, when, what) of a schedule.
type Entry struct {
	// Where: the layer, and a matcher on it.
	Layer Layer
	// Op is the storage operation ("put", "get", "delete", "list" or
	// "stat"); "" matches every one.
	Op string
	// Key matches storage keys (List: the prefix) containing it; "" matches
	// every key.
	Key string
	// Partition (Before, After) and Worker (Before, After, Beat) match one
	// partition or worker, or Any.
	Partition, Worker int

	// When: the window [From, To) on the layer's counter, To <= 0 open
	// ended. Inside it the entry lets Skip matches through, then fires on
	// the next Count (Count <= 0: forever) — only on every Every-th of them
	// when Every > 1, and only on a seeded Prob fraction when Prob is in
	// (0, 1).
	From, To    int
	Skip, Count int
	Every       int
	Prob        float64

	// What: the action and its arguments.
	Do Action
	// Err is what Fail fails with; nil means ErrInjected.
	Err error
	// Dur is Hang's stall (a rescued hang's cap), Delay's latency, and the
	// downtime each operation a Drop refuses stands for.
	Dur time.Duration
	// Keep is the bytes Truncate keeps; Bit the bit Flip flips.
	Keep, Bit int
	// Frac and Rate are Slow's bandwidth fraction (clamped to [0.01, 1])
	// and the link's nominal rate in bytes/s.
	Frac, Rate float64
	// Rescue lets another attempt end a Before hang (see Hang).
	Rescue bool
	// Rejoin is how many ticks after its lease death a worker silenced by
	// this entry (Beat or Die) comes back; 0 keeps it dead.
	Rejoin int
}

// site is what an entry is matched against.
type site struct {
	op, key           string
	partition, worker int
}

func (e *Entry) matches(s site) bool {
	switch e.Layer {
	case Store:
		return (e.Op == "" || e.Op == s.op) && strings.Contains(s.key, e.Key)
	case Beat:
		return e.Worker == Any || e.Worker == s.worker
	}
	return (e.Partition == Any || e.Partition == s.partition) && (e.Worker == Any || e.Worker == s.worker)
}

// entry is an Entry plus its firing state.
type entry struct {
	Entry
	id          uint64 // salts the entry's seeded draws
	seen, fired int
	draws       uint64
}

// Effect is the schedule's decision for one operation, folded over every
// entry that fired, in schedule order.
type Effect struct {
	// Err fails the operation (the first Fail to fire wins).
	Err error
	// Drop refuses it: the link is partitioned.
	Drop bool
	// Stall is waited first: Hang and Delay durations summed.
	Stall time.Duration
	// Hung marks a Hang among them (the link is down while it stalls);
	// Rescue, a rescuable one.
	Hung, Rescue bool
	// Frac and Rate are a Slow's collapse; Frac is 1 on a healthy link.
	Frac, Rate float64
	// cuts are the Truncate and Flip entries Corrupt applies.
	cuts []Entry
}

// Corrupt applies the fired Truncate and Flip entries to a payload, in
// schedule order. It mutates b, which must be the caller's own copy.
func (e Effect) Corrupt(b []byte) []byte {
	for _, c := range e.cuts {
		switch {
		case c.Do == Truncate && c.Keep >= 0 && c.Keep < len(b):
			b = b[:c.Keep]
		case c.Do == Flip && len(b) > 0:
			b[(c.Bit/8)%len(b)] ^= 1 << (c.Bit % 8)
		}
	}
	return b
}

// silence is a Die-tripped worker: silent from tick from (-1 until the
// first heartbeat after the trip) for rejoin ticks, or forever.
type silence struct{ from, rejoin int }

// Schedule is a seeded, sorted list of entries and the counters they read.
// All methods are safe for concurrent use; the hooks the layers call —
// Store, Before, After, Silenced and Rejoin — are also safe on a nil
// Schedule, which injects nothing.
type Schedule struct {
	seed uint64

	mu       sync.Mutex
	entries  []*entry
	added    uint64
	ops      int // storage operations asked about so far
	fired    [Beat + 1]int
	down     time.Duration
	dead     map[int]*silence
	rescuing bool
	rescued  map[[2]int]chan struct{}
}

// New returns an empty schedule whose Prob draws are seeded by seed.
func New(seed uint64) *Schedule {
	return &Schedule{seed: seed, dead: map[int]*silence{}, rescued: map[[2]int]chan struct{}{}}
}

// Add inserts entries, keeping the list sorted by layer and window start
// (insertion order among equals), and returns the schedule for chaining.
func (s *Schedule) Add(es ...Entry) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range es {
		if e.Do == Slow {
			e.Frac = min(max(e.Frac, 0.01), 1)
		}
		s.rescuing = s.rescuing || e.Rescue
		s.added++
		s.entries = append(s.entries, &entry{Entry: e, id: s.added})
	}
	slices.SortStableFunc(s.entries, func(a, b *entry) int {
		return cmp.Or(cmp.Compare(a.Layer, b.Layer), cmp.Compare(a.From, b.From))
	})
	return s
}

// Clear drops every entry, so nothing fires from then on: a store the
// schedule broke heals.
func (s *Schedule) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = nil
}

// Fired reports how many times entries of layer l have fired.
func (s *Schedule) Fired(l Layer) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired[l]
}

// Has reports whether the schedule holds an entry of layer l.
func (s *Schedule) Has(l Layer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.ContainsFunc(s.entries, func(e *entry) bool { return e.Layer == l })
}

// Down reports the link downtime the schedule has imposed on storage: the
// stall of every Hang and the Dur of every operation a Drop refused.
func (s *Schedule) Down() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// consult advances every entry of layer l that matches st at counter n and
// folds the ones that fire into one Effect.
func (s *Schedule) consult(l Layer, n int, st site) Effect {
	eff := Effect{Frac: 1}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.Layer != l || n < e.From || (e.To > 0 && n >= e.To) || !e.matches(st) {
			continue
		}
		e.seen++
		if e.seen <= e.Skip || (e.Count > 0 && e.fired >= e.Count) ||
			(e.Every > 1 && (e.seen-e.Skip)%e.Every != 0) {
			continue
		}
		if e.Prob > 0 && e.Prob < 1 {
			e.draws++
			if resilience.Uniform(s.seed^e.id<<32^e.draws) >= e.Prob {
				continue
			}
		}
		e.fired++
		s.fired[l]++
		switch e.Do {
		case Fail:
			if eff.Err == nil {
				eff.Err = e.Err
				if eff.Err == nil {
					eff.Err = ErrInjected
				}
				if resilience.ClassOf(eff.Err) == resilience.Unknown {
					eff.Err = resilience.MarkTransient(eff.Err)
				}
			}
		case Drop:
			eff.Drop = true
			if l == Store {
				s.down += e.Dur
			}
		case Hang:
			eff.Stall += e.Dur
			eff.Hung = true
			eff.Rescue = eff.Rescue || e.Rescue
			if l == Store {
				s.down += e.Dur
			}
		case Delay:
			eff.Stall += e.Dur
		case Truncate, Flip:
			eff.cuts = append(eff.cuts, e.Entry)
		case Slow:
			eff.Frac, eff.Rate = e.Frac, e.Rate
		case Die:
			if s.dead[st.worker] == nil {
				s.dead[st.worker] = &silence{from: -1, rejoin: e.Rejoin}
			}
		}
		if l == Store {
			trace(e, st)
		}
	}
	return eff
}

// trace publishes one fired storage entry: a refusal as a net.partition
// event, anything else as a storage.fault event, each with its counter.
func trace(e *entry, st site) {
	op, key := span.Attr{Key: "op", Val: st.op}, span.Attr{Key: "key", Val: st.key}
	if e.Do == Drop {
		span.Metrics().Counter("net.fault.partitioned_ops").Inc()
		span.Event("net.partition", "net", op, key)
		return
	}
	span.Metrics().Counter("storage.faults.injected").Inc()
	span.Event("storage.fault", "storage", op, key, span.Attr{Key: "effect", Val: e.Do.String()})
}

// Store decides one storage operation. Each call advances the store
// counter by one.
func (s *Schedule) Store(op, key string) Effect {
	if s == nil {
		return Effect{Frac: 1}
	}
	s.mu.Lock()
	n := s.ops
	s.ops++
	s.mu.Unlock()
	return s.consult(Store, n, site{op: op, key: key})
}

// Before is the hook a task attempt calls before computing: it trips Die
// entries, waits out Hang and Delay, and returns the attempt's injected
// failure, if any.
func (s *Schedule) Before(job, partition, attempt, worker int) error {
	if s == nil {
		return nil
	}
	eff := s.consult(Before, attempt, site{partition: partition, worker: worker})
	if eff.Rescue {
		limit := time.NewTimer(eff.Stall)
		select {
		case <-s.rescue(job, partition, false):
		case <-limit.C:
		}
		limit.Stop()
		if eff.Err == nil {
			eff.Err = resilience.MarkTransient(ErrInjected)
		}
	} else if eff.Stall > 0 {
		time.Sleep(eff.Stall)
	}
	return taskErr(eff.Err, "before", partition, attempt, worker)
}

// After is the hook a task attempt calls once it has computed, before its
// result leaves the executor: a firing Fail loses the result
// (crash-after-success). An attempt that passes rescues the hung attempts
// of its (job, partition).
func (s *Schedule) After(job, partition, attempt, worker int) error {
	if s == nil {
		return nil
	}
	eff := s.consult(After, attempt, site{partition: partition, worker: worker})
	if eff.Err == nil {
		s.rescue(job, partition, true)
	}
	return taskErr(eff.Err, "after", partition, attempt, worker)
}

func taskErr(err error, side string, partition, attempt, worker int) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("faults: partition %d attempt %d on worker %d, %s compute: %w", partition, attempt, worker, side, err)
}

// rescue returns the channel closed once an attempt of (job, partition)
// passes After, closing it when release is set. Without a Rescue entry
// nothing waits on one, and release records nothing.
func (s *Schedule) rescue(job, partition int, release bool) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if release && !s.rescuing {
		return nil
	}
	k := [2]int{job, partition}
	ch, ok := s.rescued[k]
	if !ok {
		ch = make(chan struct{})
		s.rescued[k] = ch
	}
	if release {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	return ch
}

// Silenced reports whether worker's heartbeat at membership tick is
// suppressed: by a firing Beat Drop entry, or by a Die that tripped it.
// Membership calls it once per worker per tick.
func (s *Schedule) Silenced(worker, tick int) bool {
	if s == nil {
		return false
	}
	if s.consult(Beat, tick, site{worker: worker}).Drop {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dead[worker]
	if d == nil {
		return false
	}
	if d.from < 0 {
		d.from = tick
	}
	return d.rejoin <= 0 || tick < d.from+d.rejoin
}

// Rejoin reports how many ticks after its lease death worker comes back
// once its heartbeats resume; 0 keeps it dead.
func (s *Schedule) Rejoin(worker int) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := 0
	for _, e := range s.entries {
		if (e.Layer == Beat || e.Do == Die) && (e.Worker == Any || e.Worker == worker) {
			k = max(k, e.Rejoin)
		}
	}
	return k
}
