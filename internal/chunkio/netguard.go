package chunkio

// Network guards for the per-chunk transfer path: deadline-bounded store
// attempts and hedged reads. Both exist because a WAN under partial failure
// does not fail fast — a stalled TCP stream can pin a chunk (and the worker
// that owns it) for minutes while every other link is healthy. The guards
// convert "stuck" into a prompt transient error (deadline) or race a backup
// attempt past the stall (hedge), and the existing retry/fallback ladder
// above decides what happens next.
//
// Ownership discipline, because abandoned attempts keep running:
//
//   - guardedPut abandons the attempt goroutine on deadline; it keeps
//     reading its head and body until the store returns. Callers whose
//     parts live in a recycled pool or a live buffer therefore copy them
//     first (see putUnit.put).
//   - guardedGet gives every attempt its own arena wire buffer and moves
//     results through a buffered channel — an ownership transfer. The
//     winner's buffer goes to the caller; losers and post-abandon stragglers
//     are given back to the arena by a reaper goroutine, so no attempt ever
//     writes into memory the caller can see and no buffer leaks.

import (
	"fmt"
	"sync/atomic"
	"time"

	"ompcloud/internal/arena"
	"ompcloud/internal/resilience"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

// TransferStats accrues the net-guard engagement counters for one transfer
// context (typically one offload run). All methods are nil-receiver safe so
// the guards never branch on whether a caller cares.
type TransferStats struct {
	// DeadlineAborts counts store attempts cut off by PutTimeout/GetTimeout.
	DeadlineAborts atomic.Int64
	// HedgedGets counts backup reads launched past HedgeDelay.
	HedgedGets atomic.Int64
	// HedgeWins counts hedged reads whose backup returned first.
	HedgeWins atomic.Int64
}

func (s *TransferStats) deadlineAbort() {
	if s != nil {
		s.DeadlineAborts.Add(1)
	}
}

func (s *TransferStats) hedged() {
	if s != nil {
		s.HedgedGets.Add(1)
	}
}

func (s *TransferStats) hedgeWin() {
	if s != nil {
		s.HedgeWins.Add(1)
	}
}

// DeadlineError reports one store attempt that exceeded its per-leg
// deadline. It arrives wrapped transient: the attempt was abandoned, not
// proven impossible, and the retry policy should re-route it.
type DeadlineError struct {
	Op      string
	Key     string
	Timeout time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("chunkio: %s %s exceeded its %v deadline", e.Op, e.Key, e.Timeout)
}

// deadlineErr records and classifies one deadline abort.
func deadlineErr(op, key string, timeout time.Duration, stats *TransferStats) error {
	stats.deadlineAbort()
	span.Metrics().Counter("chunkio.deadline.aborts").Inc()
	span.Event("net.deadline", "net",
		span.Attr{Key: "op", Val: op},
		span.Attr{Key: "key", Val: key})
	return resilience.MarkTransient(&DeadlineError{Op: op, Key: key, Timeout: timeout})
}

// guardedPut is storage.PutParts bounded by timeout (0 disables the guard
// and costs nothing: no goroutine, no timer). On deadline the attempt
// goroutine is abandoned — it finishes into a buffered channel — and the
// caller gets a transient DeadlineError; the retry policy's next attempt
// races the abandoned one, which is safe because PUTs overwrite whole
// objects.
func guardedPut(st storage.Store, key string, head, body []byte, timeout time.Duration, stats *TransferStats) error {
	if timeout <= 0 {
		return storage.PutParts(st, key, head, body)
	}
	done := make(chan error, 1)
	go func() { done <- storage.PutParts(st, key, head, body) }()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return deadlineErr("put", key, timeout, stats)
	}
}

// getRes is one GET attempt's result crossing the ownership channel.
type getRes struct {
	enc     []byte
	scratch []byte
	err     error
	backup  bool
}

// getAttempt is one GET into a wire buffer from the arena with room for
// room bytes; on success the caller owns scratch, which enc is in unless
// the object outgrew it. A standalone function (not a closure inside
// guardedGet) so the unguarded fast path stays allocation-free.
func getAttempt(st storage.Store, key string, room int) (enc, scratch []byte, err error) {
	scratch = arena.Scratch(room)
	enc, err = storage.GetAppend(st, key, scratch)
	if err != nil {
		arena.Put(scratch)
		return nil, nil, err
	}
	return enc, scratch, nil
}

// guardedGet fetches key into a wire buffer from the arena with room for
// room bytes, bounded by timeout and hedged after hedge (either 0 disables
// that guard; both 0 is the plain synchronous path). On success the caller
// owns scratch and must give it back (arena.Put) once enc is dead. On any
// error both return values are nil and every buffer is already back in (or
// on its way back to) the arena.
func guardedGet(st storage.Store, key string, room int, timeout, hedge time.Duration, stats *TransferStats) (enc, scratch []byte, err error) {
	if timeout <= 0 && hedge <= 0 {
		return getAttempt(st, key, room)
	}

	ch := make(chan getRes, 2) // buffered: abandoned attempts never block
	launch := func(backup bool) {
		go func() {
			enc, scratch, err := getAttempt(st, key, room)
			ch <- getRes{enc: enc, scratch: scratch, err: err, backup: backup}
		}()
	}
	inflight := 1
	launch(false)

	// reap gives n outstanding attempts' buffers back to the arena without
	// making the caller wait for them.
	reap := func(n int) {
		if n <= 0 {
			return
		}
		go func() {
			for i := 0; i < n; i++ {
				arena.Put((<-ch).scratch)
			}
		}()
	}

	var hedgeC, deadC <-chan time.Time
	if hedge > 0 {
		ht := time.NewTimer(hedge)
		defer ht.Stop()
		hedgeC = ht.C
	}
	if timeout > 0 {
		dt := time.NewTimer(timeout)
		defer dt.Stop()
		deadC = dt.C
	}

	var firstErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err != nil {
				if firstErr == nil {
					firstErr = r.err
				}
				if inflight > 0 {
					continue // the other attempt may still win
				}
				return nil, nil, firstErr
			}
			if r.backup {
				stats.hedgeWin()
				span.Metrics().Counter("chunkio.hedge.wins").Inc()
				span.Event("net.hedge.win", "net", span.Attr{Key: "key", Val: key})
			}
			reap(inflight)
			return r.enc, r.scratch, nil
		case <-hedgeC:
			hedgeC = nil
			stats.hedged()
			span.Metrics().Counter("chunkio.hedge.launched").Inc()
			inflight++
			launch(true)
		case <-deadC:
			reap(inflight)
			return nil, nil, deadlineErr("get", key, timeout, stats)
		}
	}
}
