package serve

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

// record encodes the journal record admission writes for a job.
func record(t testing.TB, id, tenant string, s JobSpec) []byte {
	t.Helper()
	b, err := encodeEntry(&Job{ID: id, Tenant: tenant, Spec: s})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoverSkipsBadRecords: a torn record and one whose spec admission
// would refuse each cost their own job, never the recovery of the others,
// and stay journaled; the sequence still continues past them.
func TestRecoverSkipsBadRecords(t *testing.T) {
	st := storage.NewMemStore()
	torn := record(t, "00000002-bob", "bob", spec())
	for id, b := range map[string][]byte{
		"00000001-alice": record(t, "00000001-alice", "alice", spec()),
		"00000002-bob":   torn[:len(torn)/2],
		"00000003-alice": record(t, "00000003-alice", "alice", JobSpec{Bench: "syrk", N: 16, Seed: 7}),
		"00000004-bob":   record(t, "00000004-bob", "bob", JobSpec{Bench: "gemm", N: 0}),
	} {
		if err := st.Put(JournalPrefix+id, b); err != nil {
			t.Fatal(err)
		}
	}
	skipped := span.Metrics().Counter(metricJournalSkipped)
	skipped0 := skipped.Value()
	d, _ := newTestDaemon(t, func(c *Config) { c.Store = st })
	jobs, err := d.Recover(0)
	if err != nil {
		t.Fatalf("one bad record failed the whole recovery: %v", err)
	}
	if len(jobs) != 2 || jobs[0].ID != "00000001-alice" || jobs[1].ID != "00000003-alice" {
		t.Fatalf("recovered %v, want the two good jobs in admission order", jobs)
	}
	for _, j := range jobs {
		if err := j.Spec.Validate(); err != nil {
			t.Fatalf("recovered %s with an invalid spec: %v", j.ID, err)
		}
	}
	if n := skipped.Value() - skipped0; n != 2 {
		t.Fatalf("%d records counted skipped, want 2", n)
	}
	for _, id := range []string{"00000002-bob", "00000004-bob"} {
		if _, err := st.Stat(JournalPrefix + id); err != nil {
			t.Fatalf("skipped record %s was not left in place: %v", id, err)
		}
	}
	j, rej, err := d.Submit("alice", "c1", spec(), 0)
	if rej != nil || err != nil {
		t.Fatalf("post-recovery submit: %v %v", rej, err)
	}
	if !strings.HasPrefix(j.ID, "00000005-") {
		t.Fatalf("sequence did not continue past the skipped records: %s", j.ID)
	}
}

// FuzzJournalReplay feeds one arbitrary record under an arbitrary journal key,
// beside a valid record, to Recover. Whatever arrives, Recover must not panic
// or fail, must not allocate more than FuzzFrontConn lets the front, must
// re-admit only jobs admission would have taken — the valid record's always
// among them — and must never hand a new admission a key already journaled.
func FuzzJournalReplay(f *testing.F) {
	const goodID = "00000002-alice"
	good := record(f, goodID, "alice", spec())
	valid := record(f, "00000003-bob", "bob", JobSpec{Bench: "syrk", N: 16, Seed: 7})
	f.Add("00000003-bob", valid)
	f.Add("00000003-bob", valid[:len(valid)/2])                                            // torn
	f.Add("00000009-alice", good)                                                          // duplicated under another key
	f.Add("00000001-bob", valid)                                                           // mis-keyed
	f.Add("00000004-bob", record(f, "00000004-bob", "bob", JobSpec{Bench: "gemm", N: -3})) // invalid spec
	f.Add("00000005-a b", record(f, "00000005-a b", "a b", spec()))                        // bad tenant
	f.Add("9223372036854775807-z", record(f, "9223372036854775807-z", "z", spec()))        // the last sequence number
	f.Add("nested/00000006-c", []byte("null"))
	f.Fuzz(func(t *testing.T, key string, rec []byte) {
		st := storage.NewMemStore()
		if err := st.Put(JournalPrefix+goodID, good); err != nil {
			t.Fatal(err)
		}
		if key == goodID || st.Put(JournalPrefix+key, rec) != nil {
			return // it would replace the valid record, or is no storable key
		}
		d, err := New(Config{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		jobs, err := d.Recover(0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(10<<20+64*(len(key)+len(rec))+1<<20); got > limit {
			t.Fatalf("%d record bytes made recovery allocate %d (limit %d)", len(rec), got, limit)
		}
		found := false
		for _, j := range jobs {
			if err := j.Spec.Validate(); err != nil || !ValidTenant(j.Tenant) {
				t.Fatalf("recovered %s, which admission refuses (tenant %q, spec %+v)", j.ID, j.Tenant, j.Spec)
			}
			found = found || j.ID == goodID
		}
		if !found {
			t.Fatalf("the valid record was not recovered beside %q", key)
		}
		keys, err := st.List(JournalPrefix)
		if err != nil {
			t.Fatal(err)
		}
		j, rej, err := d.Submit("alice", "c", spec(), 0)
		if rej != nil || err != nil {
			t.Fatalf("post-recovery submit: %v %v", rej, err)
		}
		if slices.Contains(keys, JournalPrefix+j.ID) {
			t.Fatalf("a new admission took journaled key %s", j.ID)
		}
	})
}
