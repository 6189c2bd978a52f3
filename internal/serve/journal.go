package serve

import (
	"fmt"
	"strings"

	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

// metricJournalSkipped counts journal records replay could not re-admit.
const metricJournalSkipped = "serve.journal.skipped"

// JournalPrefix roots the write-ahead job journal in the daemon's store.
// It lives outside the tenants/ namespaces on purpose: the journal is
// daemon state, not tenant data, and per-tenant cleanup must never be able
// to delete it.
const JournalPrefix = "serve/journal/"

// journal is the daemon's write-ahead log through the storage layer: an
// entry is written before a job is enqueued (admission is durable before
// it is acknowledged) and deleted when the job completes. After a crash,
// listing the prefix yields exactly the admitted-but-unfinished jobs in
// admission order — the recovery set.
type journal struct {
	store storage.Store
}

func (w *journal) key(id string) string { return JournalPrefix + id }

// append persists the job's admission record. An append failure fails the
// admission: a job the daemon could lose on restart is never accepted.
func (w *journal) append(j *Job) error {
	b, err := encodeEntry(j)
	if err != nil {
		return err
	}
	if err := w.store.Put(w.key(j.ID), b); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	return nil
}

// release removes the job's record after completion.
func (w *journal) release(id string) error {
	return w.store.Delete(w.key(id))
}

// replay lists and decodes every surviving entry, in admission order
// (List returns keys sorted, and IDs are zero-padded sequence numbers), and
// reports the highest sequence number any key carries. A record that does
// not decode, names another job or a bad tenant, or holds a spec Validate
// refuses is skipped: counted, traced with its key, and left in place. One
// torn record costs its own job, never the recovery of the rest.
func (w *journal) replay() (entries []*journalEntry, maxSeq int, err error) {
	keys, err := w.store.List(JournalPrefix)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal list: %w", err)
	}
	entries = make([]*journalEntry, 0, len(keys))
	for _, k := range keys {
		id := strings.TrimPrefix(k, JournalPrefix)
		maxSeq = max(maxSeq, parseSeq(id))
		b, err := w.store.Get(k)
		if err != nil {
			return nil, 0, fmt.Errorf("serve: journal read %s: %w", k, err)
		}
		e, err := decodeEntry(b)
		if err == nil {
			err = e.check(id)
		}
		if err != nil {
			span.Metrics().Counter(metricJournalSkipped).Inc()
			span.Event("serve.journal.skip", "serve",
				span.Attr{Key: "key", Val: k}, span.Attr{Key: "error", Val: err.Error()})
			continue
		}
		entries = append(entries, e)
	}
	return entries, maxSeq, nil
}
