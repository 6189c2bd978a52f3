package serve

import (
	"fmt"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
)

// PoolExecutor runs admitted jobs on the shared cloud substrate: each job
// gets a fresh cloud plugin sized to its Eq. 3 core grant, backed by the
// tenant's PrefixStore namespace, with caching and resumable sessions
// enabled so a recovered job re-runs over the tiles its previous life
// already committed. It is safe for concurrent use — every Run builds its
// own runtime, plugin, and workload.
type PoolExecutor struct {
	// Base is the daemon's backing store; Run scopes it per tenant.
	Base storage.Store
	// ChunkBytes sets the transfer chunk size (0 = library default; the
	// daemon default favours small chunks so service jobs tile finely).
	ChunkBytes int
	// RealParallelism bounds machine cores per job; 0 means cores.
	RealParallelism int
	// Workers, when non-nil, supplies the live registered worker
	// addresses at dispatch time (real remote tile execution).
	Workers func() []string
	// Verify, when set, checks every successful run against the serial
	// reference before reporting success.
	Verify bool
	// Mutate, when non-nil, edits the per-job cloud config before the
	// plugin is built — the bench and tests inject faults here.
	Mutate func(job *Job, cfg *offload.CloudConfig)
}

// Run implements Executor.
func (e *PoolExecutor) Run(job *Job, cores int) Result {
	if cores < 1 {
		cores = 1
	}
	b, err := kernels.ByName(job.Spec.Bench)
	if err != nil {
		return Result{Err: err}
	}
	kind := data.Dense
	if job.Spec.Kind == "sparse" {
		kind = data.Sparse
	}
	st, err := storage.NewPrefix(e.Base, "tenants/"+job.Tenant+"/")
	if err != nil {
		return Result{Err: err}
	}
	rp := e.RealParallelism
	if rp <= 0 {
		rp = cores
	}
	cfg := offload.CloudConfig{
		Spec:  spark.ClusterSpec{Workers: cores, CoresPerWorker: 1},
		Store: st,
		// EnableCache + Resume is what makes recovery cheap: a journaled
		// job's second life skips uploads and committed tiles.
		EnableCache: true,
		Resume:      true,
		// The daemon owns fallback policy: a failed cloud job surfaces
		// its error to the service plane instead of silently consuming
		// host cores other tenants were promised.
		Fallback:        offload.FallbackFail,
		ChunkBytes:      e.ChunkBytes,
		RealParallelism: rp,
		RetryBase:       -1,                     // no wall backoff in service context
		RetrySleep:      func(time.Duration) {}, // never sleep the executor slot
	}
	if e.Workers != nil {
		cfg.WorkerAddrs = e.Workers()
	}
	if e.Mutate != nil {
		e.Mutate(job, &cfg)
	}
	plugin, err := offload.NewCloudPlugin(cfg)
	if err != nil {
		return Result{Err: err}
	}
	defer plugin.Close()
	rt, err := omp.NewRuntime(rp)
	if err != nil {
		return Result{Err: err}
	}
	dev := rt.RegisterDevice(plugin)
	w := b.Prepare(job.Spec.N, kind, job.Spec.Seed)
	rep, err := w.Run(rt, dev)
	if err != nil {
		return Result{Err: fmt.Errorf("serve: job %s: %w", job.ID, err)}
	}
	if e.Verify {
		if err := w.Verify(); err != nil {
			return Result{Err: fmt.Errorf("serve: job %s verify: %w", job.ID, err)}
		}
	}
	res := Result{
		// The caller-experienced duration: on a streamed job the phase
		// sum (Total) counts overlapped work twice over.
		Virtual:      rep.Effective(),
		ResumedTiles: rep.ResumedTiles,
		Report:       rep,
	}
	for _, out := range w.Outputs() {
		cp := make([]float32, len(out))
		copy(cp, out)
		res.Outputs = append(res.Outputs, cp)
	}
	return res
}

var _ Executor = (*PoolExecutor)(nil)
