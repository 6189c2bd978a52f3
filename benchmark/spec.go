package main

// This file is the benchmark's vocabulary: the workload names, the
// end-to-end metrics with their bounds, and the per-layer metrics. It is the
// single source the printer, the -repeat check and the smoke test read;
// BENCHMARK.json at the repo root repeats the names, units, directions and
// bounds in the driver's schema, and the smoke test fails when the two
// disagree. README.md carries the prose: what each metric times and which
// end-to-end metric × workload each layer metric is expected to move.

// Clock domains. Every number the benchmark prints says which one it is on.
const (
	clockWall    = "wall"    // measured with time.Now / getrusage
	clockVirtual = "virtual" // the runtime's modelled time (trace.Report, simtime)
	clockCount   = "count"   // a count or a ratio of counts; no clock
)

type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"gemm-dense", "Polybench GEMM N=1536 dense, one region: compute-bound, kernels/fatbin and spark do the work, 36 MiB mapped"},
	{"3mm-env", "Polybench 3MM N=1024 dense in one target-data environment: the cloudEnv open/loop/close body, three Spark jobs"},
	{"stream-sparse", "stream-scale over 256 MiB sparse float32: codec-bound, xcompress and chunkio do the work, the wire carries little"},
	{"stream-dense", "stream-scale over 256 MiB dense float32: verdicts say raw, storage wire, memcpy and allocation dominate"},
	{"daemon-smalljobs", "closed loop of one client submitting GEMM N=96 jobs through the offload daemon: per-job overhead-bound"},
}

// endToEnd lists what a user of the runtime sees, on every workload. Two of
// the issue's nine are not here: failed_share, because the driver's schema
// wants metrics that are never 0 (it is failed/attempted on the result line
// instead), and op_wall_p99_s, because every end-to-end metric is gated on
// every workload and a region run has a dozen samples, too few for a tail
// (it is serve.op_wall_p99_ms of the traced daemon run). The three
// wall-clock bounds are 25%, not the issue's 10%, and op_virtual_s 15%, not
// 3%: README.md gives the measured spreads behind that. setup_s, op_wall_s,
// jobs_per_s and cpu_s_per_op are scaled to the reference host speed
// (host.go); nothing else is.
var endToEnd = []metricDef{
	{"setup_s", "s", clockWall, "lower", 0.25},
	{"op_wall_s", "s", clockWall, "lower", 0.25},
	{"jobs_per_s", "1/s", clockWall, "higher", 0.25},
	{"op_virtual_s", "s", clockVirtual, "lower", 0.15},
	{"cpu_s_per_op", "s", clockWall, "lower", 0.25},
	{"alloc_mib_per_op", "MiB", clockCount, "lower", 0.05},
	{"store_bytes_per_op", "bytes", clockCount, "lower", 0.01},
}

// perLayer lists the traced run's metrics, grouped by the layer (package)
// they budget. A layer a workload does not cross reports 0 for its metrics.
var perLayer = []metricDef{
	// xcompress: single-threaded replay of the op's inputs cut at the
	// plugin's chunk size.
	{Name: "xcompress.verdict_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "xcompress.encode_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "xcompress.decode_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "xcompress.wire_ratio", Unit: "ratio", Clock: clockCount, Better: "lower"},
	{Name: "xcompress.raw_chunk_share", Unit: "ratio", Clock: clockCount, Better: "lower"},

	// chunkio: Upload, DownloadInto and Pipe of the op's inputs against a
	// MemStore.
	{Name: "chunkio.upload_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "chunkio.download_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "chunkio.pipe_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "chunkio.chunks", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "chunkio.alloc_mib", Unit: "MiB", Clock: clockCount, Better: "lower"},
	{Name: "chunkio.retries", Unit: "count", Clock: clockCount, Better: "lower"},

	// storage: the timing Store wrapper on the real op (per op), then a
	// replay of 1 MiB PUT/GET through the loopback client and a MemStore.
	{Name: "storage.put_busy_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "storage.get_busy_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "storage.puts", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "storage.gets", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "storage.other_ops", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "storage.bytes_put", Unit: "bytes", Clock: clockCount, Better: "lower"},
	{Name: "storage.bytes_got", Unit: "bytes", Clock: clockCount, Better: "lower"},
	{Name: "storage.errors", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "storage.inflight_max", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "storage.wire_put_mib_s", Unit: "MiB/s", Clock: clockWall, Better: "higher"},
	{Name: "storage.wire_get_mib_s", Unit: "MiB/s", Clock: clockWall, Better: "higher"},
	{Name: "storage.mem_put_mib_s", Unit: "MiB/s", Clock: clockWall, Better: "higher"},

	// spark: an empty Range→Map→Collect job at the op's tile count; the
	// program's own task-compute histogram; Report counters.
	{Name: "spark.empty_job_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "spark.task_busy_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "spark.tasks", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "spark.task_failures", Unit: "count", Clock: clockCount, Better: "lower"},

	// kernels / fatbin: the same problem on the host device with one
	// thread; Registry.Calls; the timing wrapper around stream-scale.
	{Name: "kernels.serial_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "kernels.gflop_s", Unit: "GFLOP/s", Clock: clockWall, Better: "higher"},
	{Name: "kernels.calls", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "kernels.tile_busy_s", Unit: "s", Clock: clockWall, Better: "lower"},

	// omp / offload: Fig. 5's decomposition from the real op's Report.
	{Name: "offload.virt_upload_s", Unit: "s", Clock: clockVirtual, Better: "lower"},
	{Name: "offload.virt_spark_s", Unit: "s", Clock: clockVirtual, Better: "lower"},
	{Name: "offload.virt_compute_s", Unit: "s", Clock: clockVirtual, Better: "lower"},
	{Name: "offload.virt_download_s", Unit: "s", Clock: clockVirtual, Better: "lower"},
	{Name: "offload.virt_overlap_s", Unit: "s", Clock: clockVirtual, Better: "higher"},
	{Name: "offload.wan_up_bytes", Unit: "bytes", Clock: clockCount, Better: "lower"},
	{Name: "offload.wan_down_bytes", Unit: "bytes", Clock: clockCount, Better: "lower"},
	{Name: "offload.plugin_build_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "offload.op_self_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "omp.host_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "offload.overhead_x", Unit: "x", Clock: clockWall, Better: "lower"},
	{Name: "offload.storage_retries", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "offload.deadline_aborts", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "offload.fell_back", Unit: "count", Clock: clockCount, Better: "lower"},

	// serve: the timing Executor wrapper, a directly driven Daemon, a
	// replay of PoolExecutor.Run's steps, the stats round trip.
	{Name: "serve.exec_busy_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "serve.front_wait_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "serve.admit_us", Unit: "us", Clock: clockWall, Better: "lower"},
	{Name: "serve.dispatch_us", Unit: "us", Clock: clockWall, Better: "lower"},
	{Name: "serve.complete_us", Unit: "us", Clock: clockWall, Better: "lower"},
	{Name: "serve.job_prepare_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "serve.job_build_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "serve.job_run_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "serve.job_copyout_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "serve.rtt_us", Unit: "us", Clock: clockWall, Better: "lower"},
	{Name: "serve.op_wall_p99_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "serve.tail_slowdown_x", Unit: "x", Clock: clockWall, Better: "lower"},
	{Name: "serve.store_keys_end", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "serve.lost_responses", Unit: "count", Clock: clockCount, Better: "lower"},

	// trace / process.
	{Name: "trace.overhead_share", Unit: "ratio", Clock: clockWall, Better: "lower"},
	{Name: "trace.spans", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "trace.dropped", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "proc.peak_rss_mib", Unit: "MiB", Clock: clockCount, Better: "lower"},
	{Name: "proc.gc_cycles_per_op", Unit: "count", Clock: clockCount, Better: "lower"},
	{Name: "proc.gc_pause_ms_per_op", Unit: "ms", Clock: clockWall, Better: "lower"},

	// host: what the shared host did to the traced run, whose timings are
	// all unscaled (host.go).
	{Name: "host.slowdown_x", Unit: "x", Clock: clockWall, Better: "lower"},
	{Name: "host.raw_op_wall_s", Unit: "s", Clock: clockWall, Better: "lower"},
}
