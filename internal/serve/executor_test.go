package serve

import (
	"fmt"
	"strings"
	"testing"

	"ompcloud/internal/faults"
	"ompcloud/internal/offload"
	"ompcloud/internal/storage"
)

func TestPoolExecutorRunsJob(t *testing.T) {
	st := storage.NewMemStore()
	exec := &PoolExecutor{Base: st, ChunkBytes: 4096, Verify: true}
	job := &Job{ID: "00000001-alice", Tenant: "alice", Spec: JobSpec{Bench: "gemm", N: 8, Seed: 3}}
	res := exec.Run(job, 2)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Outputs) == 0 || res.Virtual <= 0 {
		t.Fatalf("outputs %d virtual %v", len(res.Outputs), res.Virtual)
	}
	// The job's objects all landed inside the tenant namespace.
	keys, err := st.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !strings.HasPrefix(k, "tenants/alice/") {
			t.Fatalf("key %q escaped the tenant namespace", k)
		}
	}
	// Unknown benchmarks fail at execution with a job-tagged error.
	bad := exec.Run(&Job{ID: "00000002-alice", Tenant: "alice", Spec: JobSpec{Bench: "nope", N: 8}}, 1)
	if bad.Err == nil {
		t.Fatal("unknown bench ran")
	}
}

// Job.Virtual is documented as the modelled end-to-end duration: on a
// streamed job that is the report's Effective() (the overlapped critical
// path), not the phase sum Total().
func TestPoolExecutorVirtualIsEffective(t *testing.T) {
	exec := &PoolExecutor{Base: storage.NewMemStore(), ChunkBytes: 4096}
	res := exec.Run(&Job{ID: "00000001-v", Tenant: "v", Spec: JobSpec{Bench: "gemm", N: 64, Seed: 3}}, 4)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Report.CriticalPath == 0 {
		t.Fatal("a 4-tile chunked job should have streamed")
	}
	if res.Virtual != res.Report.Effective() {
		t.Fatalf("Virtual = %v, want Report.Effective() = %v", res.Virtual, res.Report.Effective())
	}
	if res.Virtual >= res.Report.Total() {
		t.Fatalf("streamed job's Virtual %v should be below the phase sum %v", res.Virtual, res.Report.Total())
	}
}

func TestPoolExecutorTenantIsolation(t *testing.T) {
	st := storage.NewMemStore()
	exec := &PoolExecutor{Base: st, ChunkBytes: 4096}
	spec := JobSpec{Bench: "syrk", N: 8, Seed: 9}
	a := exec.Run(&Job{ID: "00000001-a", Tenant: "a", Spec: spec}, 2)
	b := exec.Run(&Job{ID: "00000002-b", Tenant: "b", Spec: spec}, 2)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	aKeys, _ := st.List("tenants/a/")
	bKeys, _ := st.List("tenants/b/")
	if len(aKeys) == 0 || len(bKeys) == 0 {
		t.Fatalf("tenant namespaces empty: a=%d b=%d", len(aKeys), len(bKeys))
	}
	// Same spec, different namespaces, identical outputs.
	if err := compareFloatOutputs(a.Outputs, b.Outputs); err != nil {
		t.Fatal(err)
	}
}

// TestPoolExecutorResumesKilledJob is the kill-mid-flight recovery flow at
// executor granularity: a sabotaged run dies after its healthy tiles
// committed through the session journal, and the same job's second life
// (the recovered daemon re-dispatching it) resumes those tiles and matches
// a clean run bit for bit.
func TestPoolExecutorResumesKilledJob(t *testing.T) {
	spec := JobSpec{Bench: "gemm", N: 16, Seed: 5}

	clean := (&PoolExecutor{Base: storage.NewMemStore(), ChunkBytes: 4096}).Run(
		&Job{ID: "00000001-t", Tenant: "t", Spec: spec}, 2)
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}

	st := storage.NewMemStore()
	sabotaged := &PoolExecutor{
		Base: st, ChunkBytes: 4096,
		Mutate: func(job *Job, cfg *offload.CloudConfig) {
			// The last tile fails every attempt: the job dies only after
			// the other tiles committed, like a process killed mid-job.
			cfg.Faults = faults.New(1).Add(faults.Entry{Layer: faults.Before, Partition: 1, Worker: faults.Any})
		},
	}
	job := &Job{ID: "00000001-t", Tenant: "t", Spec: spec}
	if res := sabotaged.Run(job, 2); res.Err == nil {
		t.Fatal("sabotaged run should have died mid-job")
	}

	// Second life over the same store: committed tiles are served from the
	// resumed session, the rest recompute, and the outputs are identical.
	resumed := (&PoolExecutor{Base: st, ChunkBytes: 4096}).Run(
		&Job{ID: "00000001-t", Tenant: "t", Spec: spec, Recovered: true}, 2)
	if resumed.Err != nil {
		t.Fatal(resumed.Err)
	}
	if resumed.ResumedTiles == 0 {
		t.Fatal("recovered job recomputed everything")
	}
	if err := compareFloatOutputs(clean.Outputs, resumed.Outputs); err != nil {
		t.Fatal(err)
	}
}

func compareFloatOutputs(a, b [][]float32) error {
	if len(a) != len(b) {
		return fmt.Errorf("serve: %d output buffers vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("serve: output %d: %d elements vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("serve: outputs differ at [%d][%d]", i, j)
			}
		}
	}
	return nil
}
