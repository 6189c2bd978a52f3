// Package serve is the multi-tenant service plane of the runtime: a
// long-lived offload daemon accepting concurrent target-region submissions
// from many clients, with bounded-queue admission control, per-tenant
// token-bucket quotas, weighted fair-share scheduling over a shared
// executor pool (each admitted job receives a slice of the pool via the
// Eq. 3 partitioner), per-tenant storage namespaces and metric streams,
// graceful drain, and a write-ahead job journal that makes a killed-and-
// restarted daemon recover every admitted job and resume it on the
// resumable-session machinery.
//
// The Daemon itself is a synchronous state machine driven by explicit
// virtual-time arguments: it spawns no goroutines and reads no clocks, so
// the same implementation serves the real TCP front (Front, driven by
// wall time mapped onto the virtual axis) and the deterministic
// discrete-event soak bench (driven by a simulated clock).
package serve

import (
	"encoding/json"
	"fmt"
	"regexp"

	"ompcloud/internal/simtime"
	"ompcloud/internal/trace"
)

// JobSpec names one target-region submission by value: the benchmark to
// run out of the daemon's linked kernel registry (the fat-binary idiom —
// client and daemon share the same binary, so a name suffices), its
// dimension, data kind, and input seed. Specs are deliberately small and
// deterministic: the same spec always regenerates the same inputs, which
// is what lets the write-ahead journal re-admit a job after a crash and
// still produce bit-identical outputs.
type JobSpec struct {
	Bench string `json:"bench"`
	N     int    `json:"n"`
	// Kind selects the input distribution: "dense" (default) or "sparse".
	Kind string `json:"kind,omitempty"`
	Seed int64  `json:"seed"`
}

// Validate rejects specs the daemon could never execute.
func (s JobSpec) Validate() error {
	if s.Bench == "" {
		return fmt.Errorf("serve: job spec names no benchmark")
	}
	if s.N <= 0 {
		return fmt.Errorf("serve: job spec dimension %d", s.N)
	}
	if s.Kind != "" && s.Kind != "dense" && s.Kind != "sparse" {
		return fmt.Errorf("serve: unknown data kind %q", s.Kind)
	}
	return nil
}

// JobState is a job's position in the service state machine.
type JobState int

const (
	// JobQueued: admitted and journaled, waiting for a dispatch slot.
	JobQueued JobState = iota
	// JobRunning: dispatched with a core grant, executing.
	JobRunning
	// JobDone: completed (successfully or not) and journal-released.
	JobDone
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Job is one admitted submission. Fields are owned by the Daemon and must
// be read under its lock once the job is submitted; the wire front and
// bench only touch a job between Dispatch and Complete (when it is theirs)
// or after Complete.
type Job struct {
	// ID is "<seq>-<tenant>": zero-padded so the journal lists in
	// admission order, suffixed so operators can read it.
	ID     string
	Tenant string
	// Client identifies the submitting client within the tenant
	// (connection label; informational).
	Client string
	Spec   JobSpec
	State  JobState

	// Submitted/Started/Finished are virtual timestamps.
	Submitted simtime.Duration
	Started   simtime.Duration
	Finished  simtime.Duration

	// Cores is the Eq. 3 slice of the executor pool granted at dispatch.
	Cores int
	// Recovered marks a job re-admitted from the journal after a restart.
	Recovered bool

	// Result of execution, set by Complete.
	Err          error
	Virtual      simtime.Duration
	ResumedTiles int
}

// Sojourn reports the job's admission-to-completion virtual latency.
func (j *Job) Sojourn() simtime.Duration { return j.Finished - j.Submitted }

// Result is what an Executor hands back for one job.
type Result struct {
	// Outputs are deep copies of the workload's output buffers, for
	// bit-identity checks across runs.
	Outputs [][]float32
	// Virtual is the modelled end-to-end duration of the region(s).
	Virtual simtime.Duration
	// ResumedTiles counts tiles served from a resumed session journal.
	ResumedTiles int
	// Report is the merged region report (may be nil on error).
	Report *trace.Report
	Err    error
}

// Executor runs one admitted job on a granted slice of the shared pool.
// Implementations must be safe for concurrent use: the front dispatches
// up to the fair-share slot count in parallel.
type Executor interface {
	Run(job *Job, cores int) Result
}

// Grant pairs a dispatched job with its core slice.
type Grant struct {
	Job   *Job
	Cores int
}

// journalEntry is the WAL record: everything needed to re-admit the job.
type journalEntry struct {
	ID     string  `json:"id"`
	Tenant string  `json:"tenant"`
	Client string  `json:"client,omitempty"`
	Spec   JobSpec `json:"spec"`
	// SubmittedNS preserves the original admission timestamp.
	SubmittedNS int64 `json:"submitted_ns"`
}

func encodeEntry(j *Job) ([]byte, error) {
	return json.Marshal(journalEntry{
		ID: j.ID, Tenant: j.Tenant, Client: j.Client, Spec: j.Spec,
		SubmittedNS: int64(j.Submitted),
	})
}

func decodeEntry(b []byte) (*journalEntry, error) {
	var e journalEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("serve: corrupt journal entry: %w", err)
	}
	return &e, nil
}

// check refuses a decoded record the daemon must not re-admit: one stored
// under another job's key, or whose tenant or spec admission would have
// rejected.
func (e *journalEntry) check(id string) error {
	if e.ID != id {
		return fmt.Errorf("serve: journal key %s holds entry %s", id, e.ID)
	}
	if !ValidTenant(e.Tenant) {
		return fmt.Errorf("serve: journal entry %s has bad tenant %q", e.ID, e.Tenant)
	}
	return e.Spec.Validate()
}

// tenantNameRE keeps tenant names safe as storage-key fragments and metric
// labels.
var tenantNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidTenant reports whether name is usable as a tenant identifier.
func ValidTenant(name string) bool { return tenantNameRE.MatchString(name) }
