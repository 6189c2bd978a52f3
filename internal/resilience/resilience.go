// Package resilience is the failure-handling substrate of the offload
// workflow: an error taxonomy separating transient faults (worth retrying,
// worth falling back to the host for) from permanent ones (configuration and
// programming errors that retrying can only hide), a retry policy with
// exponential backoff and deterministic jitter, and a circuit breaker that
// stops a doomed device from charging every region the full timeout bill.
//
// The paper's robustness promise — "offloading is done dynamically, and thus
// if the cloud is not available the computation is performed locally" — only
// covers region entry. Real object stores and spot clusters fail *mid-flight*
// (the OpenMP Cluster model makes fault tolerance a first-class design goal
// for exactly this reason), so the storage, transfer-engine and execution
// layers route their errors through this package, and the offload manager
// uses the classification to decide between propagating an error and
// re-running the region on the host.
//
// Every time source is injectable (Sleep for backoff, Now for cooldowns and
// deadlines) so that tests and the virtual-time accounting model stay
// deterministic; the jitter is a pure function of the policy seed and the
// attempt number, never of the wall clock.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Class is an error's retry classification.
type Class int

const (
	// Unknown marks errors no layer classified. The retry policy treats
	// them as retriable (the data path is dominated by I/O, where
	// retrying is cheap and usually right); the offload manager does NOT
	// fall back on them (a kernel bug must surface, not be masked by a
	// silent host re-run).
	Unknown Class = iota
	// Transient marks faults expected to heal: network drops, flaky
	// storage operations, lost workers, injected chaos.
	Transient
	// Permanent marks faults retrying cannot fix: missing objects,
	// malformed manifests, validation and configuration errors.
	Permanent
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	default:
		return "unknown"
	}
}

// classified wraps an error with its class, transparently for errors.Is/As.
type classified struct {
	err   error
	class Class
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// MarkTransient classifies err as transient. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Transient}
}

// MarkPermanent classifies err as permanent. A nil err stays nil.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Permanent}
}

// ClassOf reports the classification of err: the outermost mark in the wrap
// chain wins, so a higher layer can re-classify what a lower layer reported.
// Unwrapped errors are Unknown.
func ClassOf(err error) Class {
	var c *classified
	if errors.As(err, &c) {
		return c.class
	}
	return Unknown
}

// IsTransient reports whether err is classified transient.
func IsTransient(err error) bool { return ClassOf(err) == Transient }

// IsPermanent reports whether err is classified permanent.
func IsPermanent(err error) bool { return ClassOf(err) == Permanent }

// Policy is a retry policy: exponential backoff between attempts, a
// deterministic jitter derived from Seed, an attempt cap and an optional
// per-operation deadline. The zero value performs exactly one attempt.
type Policy struct {
	// MaxAttempts is the total attempt budget (first try included).
	// Values below 1 mean 1: no retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it. Zero retries immediately.
	BaseDelay time.Duration
	// CapDelay bounds a single backoff. Zero means uncapped.
	CapDelay time.Duration
	// Deadline bounds the whole operation (attempts plus backoff). When a
	// computed backoff would cross the deadline the policy gives up and
	// returns the last error. Zero means no deadline.
	Deadline time.Duration
	// Seed feeds the deterministic jitter. Two policies with equal seeds
	// produce identical backoff schedules.
	Seed uint64

	// Sleep is the injected backoff clock; nil means time.Sleep. Tests
	// and virtual-time accounting substitute a recorder.
	Sleep func(time.Duration)
	// Now is the injected deadline clock; nil means time.Now.
	Now func() time.Time
	// OnRetry, when non-nil, observes every retry decision: the attempt
	// that just failed (1-based), its error, and the backoff about to be
	// slept. Counters for trace reports hang here.
	OnRetry func(attempt int, err error, backoff time.Duration)
}

// Outcome reports what one Do cost.
type Outcome struct {
	// Attempts is how many times op ran (>= 1).
	Attempts int
	// Backoff is the total backoff slept between attempts.
	Backoff time.Duration
}

// SplitMix64 is the SplitMix64 mixing function: a tiny, seedable,
// allocation-free PRNG step. It drives the backoff jitter here and every
// seeded draw of a fault schedule.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uniform maps x through SplitMix64 onto [0, 1): a deterministic draw whose
// sequence is fixed by the inputs alone.
func Uniform(x uint64) float64 { return float64(SplitMix64(x)>>11) / float64(1<<53) }

// backoff computes the jittered backoff before retry number retry (1-based):
// BaseDelay * 2^(retry-1), capped at CapDelay, scaled by a deterministic
// factor in [0.5, 1.0) so synchronized clients do not stampede in lockstep.
func (p Policy) backoff(retry int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < retry; i++ {
		d *= 2
		if p.CapDelay > 0 && d >= p.CapDelay {
			d = p.CapDelay
			break
		}
	}
	if p.CapDelay > 0 && d > p.CapDelay {
		d = p.CapDelay
	}
	// Jitter: [0.5, 1.0) of the exponential delay, from the seed and the
	// retry index only — deterministic and clock-free.
	return time.Duration(float64(d) * (0.5 + Uniform(p.Seed^uint64(retry))/2))
}

// attempts reports the effective attempt budget.
func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Do runs op until it succeeds, exhausts the attempt budget, hits the
// deadline, or fails permanently. Errors classified Permanent stop the loop
// immediately; Transient and Unknown errors retry (see Class for why Unknown
// retries). The returned Outcome is meaningful on success and failure alike.
func (p Policy) Do(op func() error) (Outcome, error) {
	return p.DoCtx(nil, op)
}

// DoCtx is Do with cooperative cancellation: ctx is consulted before every
// attempt and during backoff, so a caller tearing down a transfer (an
// aborted tile pipeline, a workflow that already failed elsewhere) stops a
// retrying operation promptly instead of paying out its remaining backoff
// schedule. Cancellation is classified Permanent — it is a caller decision
// no amount of retrying may override — and the returned error wraps
// ctx.Err() so errors.Is(err, context.Canceled) works. A nil ctx behaves
// exactly like Do.
func (p Policy) DoCtx(ctx context.Context, op func() error) (Outcome, error) {
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	now := p.Now
	if now == nil {
		now = time.Now
	}
	var start time.Time
	if p.Deadline > 0 {
		start = now()
	}
	out := Outcome{}
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctxErr(ctx); cerr != nil {
			if err != nil {
				return out, MarkPermanent(fmt.Errorf("retry cancelled after %d attempts: %w (last error: %w)", out.Attempts, cerr, err))
			}
			return out, MarkPermanent(fmt.Errorf("retry cancelled before first attempt: %w", cerr))
		}
		out.Attempts = attempt
		err = op()
		if err == nil {
			return out, nil
		}
		if IsPermanent(err) || attempt >= p.attempts() {
			return out, err
		}
		d := p.backoff(attempt)
		if p.Deadline > 0 && now().Sub(start)+d > p.Deadline {
			return out, fmt.Errorf("retry deadline %v exceeded after %d attempts: %w", p.Deadline, attempt, err)
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, d)
		}
		if d > 0 {
			if cerr := p.sleepCtx(ctx, sleep, d); cerr != nil {
				return out, MarkPermanent(fmt.Errorf("retry cancelled during backoff after %d attempts: %w (last error: %w)", attempt, cerr, err))
			}
			out.Backoff += d
		}
	}
}

// ctxErr reports a nil-safe ctx.Err without blocking.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// sleepCtx sleeps d, returning early with ctx's error on cancellation. With
// an injected Sleep the sleeper runs on its own goroutine and the wait
// races it against ctx — an injected recorder or virtual clock that never
// returns cannot pin a cancelled retry. With the real clock a timer is
// raced instead, avoiding the goroutine. A nil ctx degrades to a plain
// synchronous sleep.
func (p Policy) sleepCtx(ctx context.Context, sleep func(time.Duration), d time.Duration) error {
	if ctx == nil {
		sleep(d)
		return nil
	}
	if p.Sleep != nil {
		done := make(chan struct{})
		go func() {
			sleep(d)
			close(done)
		}()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BreakerState is the circuit breaker's mode.
type BreakerState int

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome closes
	// or re-opens the breaker.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// DefaultBreakerThreshold trips the breaker after this many consecutive
// workflow failures.
const DefaultBreakerThreshold = 3

// DefaultBreakerCooldown is how long an open breaker rejects traffic before
// allowing a half-open probe.
const DefaultBreakerCooldown = 5 * time.Second

// Breaker is a consecutive-failure circuit breaker. A device feeds it
// workflow outcomes; once Threshold consecutive failures accumulate the
// breaker opens and Allow reports false — the next regions skip the doomed
// device without re-paying probe round trips or retry timeouts. After
// Cooldown one probe is allowed through (half-open); success closes the
// breaker, failure re-opens it for another cooldown.
type Breaker struct {
	// Threshold is the consecutive-failure trip count; <= 0 means
	// DefaultBreakerThreshold.
	Threshold int
	// Cooldown is the open period before a half-open probe; <= 0 means
	// DefaultBreakerCooldown.
	Cooldown time.Duration
	// Now is the injected clock; nil means time.Now.
	Now func() time.Time
	// OnStateChange, when non-nil, observes every state transition as
	// (from, to) pairs: closed->open (trip), open->half-open (cooldown
	// probe admitted), half-open->open (probe failed), and any->closed
	// (success). It is invoked after the breaker lock is released, so the
	// callback may call back into the breaker; trace/metrics emission
	// hangs here.
	OnStateChange func(from, to BreakerState)

	mu       sync.Mutex
	state    BreakerState
	consec   int // consecutive failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is outstanding
	trips    int
}

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return DefaultBreakerThreshold
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return DefaultBreakerCooldown
	}
	return b.Cooldown
}

// Allow reports whether a request may proceed. In the open state it returns
// false until the cooldown elapses, then transitions to half-open and admits
// exactly one probe until that probe's outcome is reported.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown() {
			b.mu.Unlock()
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		hook := b.OnStateChange
		b.mu.Unlock()
		if hook != nil {
			hook(BreakerOpen, BreakerHalfOpen)
		}
		return true
	default: // half-open
		if b.probing {
			b.mu.Unlock()
			return false
		}
		b.probing = true
		b.mu.Unlock()
		return true
	}
}

// Success reports a successful workflow (or probe): the breaker closes and
// the failure streak resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	from := b.state
	b.state = BreakerClosed
	b.consec = 0
	b.probing = false
	hook := b.OnStateChange
	b.mu.Unlock()
	if hook != nil && from != BreakerClosed {
		hook(from, BreakerClosed)
	}
}

// Failure reports a failed workflow (or probe). In the closed state it
// counts toward the trip threshold; in half-open it re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	from := b.state
	tripped := false
	switch b.state {
	case BreakerHalfOpen:
		b.trip()
		tripped = true
	case BreakerClosed:
		b.consec++
		if b.consec >= b.threshold() {
			b.trip()
			tripped = true
		}
	case BreakerOpen:
		// Late failure reports from in-flight work keep the cooldown
		// fresh but do not re-count.
		b.openedAt = b.now()
	}
	hook := b.OnStateChange
	b.mu.Unlock()
	if tripped && hook != nil {
		hook(from, BreakerOpen)
	}
}

// trip transitions to open. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.consec = 0
	b.probing = false
	b.trips++
}

// State reports the current breaker state (open may lazily become half-open
// on the next Allow; State does not advance the clock).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips reports how many times the breaker has opened, for diagnostics and
// chaos-soak assertions.
func (b *Breaker) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
