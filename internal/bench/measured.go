package bench

import (
	"fmt"

	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/xcompress"
)

// MeasuredConfig describes one real end-to-end run: the whole pipeline
// (OpenMP lowering, gzip, storage, Spark engine, reconstruction) executes
// with real data at dimension N; only the reported times are virtual.
type MeasuredConfig struct {
	Bench *kernels.Benchmark
	N     int
	Kind  data.Kind
	Cores int
	Seed  int64
	// Store defaults to an in-memory store; pass a RemoteStore to push
	// the data through TCP.
	Store storage.Store
	// WorkerAddrs executes tiles in remote worker processes
	// (cmd/ompcloud-worker) when non-empty.
	WorkerAddrs []string
	// HostThreads sizes the host device used for fallback and for the
	// OmpThread comparison run (default 16).
	HostThreads int
	// Verify additionally checks the offloaded result against the serial
	// reference.
	Verify bool
	// Resume enables resumable offload sessions (with the content-addressed
	// upload cache they depend on): an interrupted run's journal in Store
	// lets a re-invocation skip uploaded chunks and committed tiles.
	Resume bool
	// Codec names the transfer codec policy (auto | adaptive | raw | zero |
	// deflate); empty means auto, the legacy whole-buffer probe.
	Codec string
	// CDC places chunk boundaries by content (Gear rolling hash) instead of
	// fixed sizes, so shifted data still dedups.
	CDC bool
	// Dedup turns on the persistent cross-session chunk index: chunks any
	// earlier run left in Store are recognized by content hash and not
	// re-sent (pair with a remote Store to persist across processes).
	Dedup bool
}

// MeasuredResult pairs the cloud report with the host baseline.
type MeasuredResult struct {
	Cloud *trace.Report
	Host  *trace.Report
}

// RunMeasured executes one benchmark for real on a simulated cluster and on
// the host device, verifying results when asked. This is the correctness
// cross-check of the model-based figures and the engine behind
// cmd/ompcloud-run.
func RunMeasured(cfg MeasuredConfig) (*MeasuredResult, error) {
	if cfg.Bench == nil || cfg.N <= 0 || cfg.Cores <= 0 {
		return nil, fmt.Errorf("bench: measured run needs a benchmark, N and cores")
	}
	if cfg.HostThreads == 0 {
		cfg.HostThreads = 16
	}
	if cfg.Store == nil {
		cfg.Store = storage.NewMemStore()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rt, err := omp.NewRuntime(cfg.HostThreads)
	if err != nil {
		return nil, err
	}
	algo := xcompress.AlgoAuto
	if cfg.Codec != "" {
		if algo, err = xcompress.ParseAlgo(cfg.Codec); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	plugin, err := offload.NewCloudPlugin(offload.CloudConfig{
		Spec:        ClusterFor(cfg.Cores),
		Store:       cfg.Store,
		WorkerAddrs: cfg.WorkerAddrs,
		EnableCache: cfg.Resume,
		Resume:      cfg.Resume,
		Codec:       xcompress.Codec{Algo: algo},
		CDC:         cfg.CDC,
		Dedup:       cfg.Dedup,
	})
	if err != nil {
		return nil, err
	}
	defer plugin.Close()
	cloud := rt.RegisterDevice(plugin)

	w := cfg.Bench.Prepare(cfg.N, cfg.Kind, cfg.Seed)
	cloudRep, err := w.Run(rt, cloud)
	if err != nil {
		return nil, fmt.Errorf("bench: cloud run: %w", err)
	}
	if cfg.Verify {
		if err := w.Verify(); err != nil {
			return nil, err
		}
	}
	hostRep, err := w.Run(rt, rt.HostDevice())
	if err != nil {
		return nil, fmt.Errorf("bench: host run: %w", err)
	}
	if cfg.Verify {
		if err := w.Verify(); err != nil {
			return nil, err
		}
	}
	return &MeasuredResult{Cloud: cloudRep, Host: hostRep}, nil
}
