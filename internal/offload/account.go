package offload

import (
	"fmt"
	"strconv"

	"ompcloud/internal/netsim"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
)

// costInputs describes everything the virtual-time accountant needs about
// one plan. Only plan.cost builds one — from what the cloud device's legs
// measured or what the pricing device derived from calibrated rates — so
// measured runs and modelled sweeps decompose time identically: a single
// source of truth for the Figure 4/5 arithmetic.
type costInputs struct {
	// Topology.
	Workers int
	Cores   int // total worker cores (Workers x CoresPerWorker)

	// Per-tile computation durations: TaskCompute is pure loop-body time
	// including the JNI-analog overhead; TaskEffective additionally
	// includes failed attempts and retry latency.
	TaskCompute   []simtime.Duration
	TaskEffective []simtime.Duration
	// JNIBytes is what each tile marshals across the JNI boundary, the
	// figure its TaskCompute already charges.
	JNIBytes []int64

	// Host <-> storage wire sizes (compressed). InWireSizes lists what
	// actually crossed the WAN this run (upload-cache hits are absent);
	// FetchWireSizes lists what the driver reads from storage (every
	// buffer, cached or not).
	InWireSizes    []int64
	FetchWireSizes []int64
	OutWireSizes   []int64
	// Host-side codec work.
	HostCompress   simtime.Duration
	HostDecompress simtime.Duration
	// Driver-side codec work: decoding the fetched inputs, encoding the
	// shipped outputs.
	DriverDecompress simtime.Duration

	// Intra-cluster traffic (compressed bytes; Spark compresses
	// everything it moves over the network).
	DistributeWire int64 // partitioned inputs scattered to workers
	BroadcastWire  int64 // unpartitioned inputs replicated to all workers
	CollectWire    int64 // task outputs gathered into the driver
	// ReconstructRaw is the raw byte volume the driver combines while
	// rebuilding the outputs (Eq. 8): the sum of all per-tile output
	// copies, which for unpartitioned outputs is tiles x full size — the
	// term that makes SYRK-style overheads grow with the core count.
	ReconstructRaw int64

	// Scheduling constants (spark.Costs) used for submit/dispatch.
	Costs spark.Costs

	// PipelinedTransfers selects the chunked streaming data path's cost
	// model: compression of chunk k+1 overlaps the wire transfer of
	// chunk k, so each host transfer leg costs max(codec, wire) instead
	// of their sum. False keeps the paper's sequential model
	// (compress-then-send), where the legs add.
	PipelinedTransfers bool

	// StreamTiles, when > 1, declares that the run used the tile-granular
	// streaming dataflow with that many tiles flowing through the phases
	// concurrently: tile k computes while tile k+1's inputs upload and
	// tile k-1's outputs download. The phase durations still report the
	// per-phase work (the Figure 5 decomposition is unchanged); the
	// accountant additionally derives the overlapped critical path into
	// Report.CriticalPath/WallOverlap. 0 or 1 models the stage-barriered
	// workflow, where the critical path is simply the phase sum.
	StreamTiles int
	// BarrierOutWire is the portion of the output wire volume that cannot
	// stream: reduction outputs are only final after the last tile lands,
	// so their transfer serializes behind the whole compute phase. The
	// download phase's cost is split pro rata by wire volume between the
	// streamable and barriered shares.
	BarrierOutWire int64

	// Tasks optionally carries the engine's per-task metrics so the span
	// layout can annotate each tile span (worker, attempts, speculative).
	// Indexed by partition when present; nil is fine.
	Tasks []spark.TaskMetrics
}

// transferLeg charges one host<->storage leg: codec work plus wire time
// sequentially, or their max when the chunked pipeline overlaps them (the
// steady state of a many-chunk stream; the first-chunk fill latency is
// under one chunk's codec time and is deliberately ignored).
func transferLeg(pipelined bool, codec, wire simtime.Duration) simtime.Duration {
	if pipelined {
		return max(codec, wire)
	}
	return codec + wire
}

// Validate sanity-checks the inputs.
func (ci *costInputs) Validate() error {
	if ci.Workers < 1 || ci.Cores < 1 {
		return fmt.Errorf("offload: accounting needs a positive topology, got %d workers / %d cores", ci.Workers, ci.Cores)
	}
	if len(ci.TaskCompute) != len(ci.TaskEffective) {
		return fmt.Errorf("offload: task duration vectors disagree: %d vs %d", len(ci.TaskCompute), len(ci.TaskEffective))
	}
	for i := range ci.TaskCompute {
		if ci.TaskEffective[i] < ci.TaskCompute[i] {
			return fmt.Errorf("offload: task %d effective < compute", i)
		}
	}
	for _, v := range []int64{ci.DistributeWire, ci.BroadcastWire, ci.CollectWire, ci.ReconstructRaw} {
		if v < 0 {
			return fmt.Errorf("offload: negative byte count in cost inputs")
		}
	}
	return nil
}

// account charges the full Fig. 1 workflow onto the report:
//
//	upload   = host compression + WAN transfer of every input (parallel
//	           streams); with PipelinedTransfers the two overlap and the
//	           leg costs their max instead of their sum
//	spark    = driver fetch from storage + job submit + partition scatter +
//	           broadcast + scheduling/dispatch + collect + reconstruction +
//	           driver write-back to storage
//	compute  = makespan of the pure task computations on the simulated cores
//	download = WAN transfer of the outputs + host decompression (overlapped
//	           like upload when pipelined)
func account(p netsim.Profile, ci costInputs, rep *trace.Report) error {
	if err := ci.Validate(); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}

	// Host -> target: steps 1-2 of Fig. 1.
	rep.Add(trace.PhaseUpload, transferLeg(ci.PipelinedTransfers, ci.HostCompress, p.WAN.TransferParallel(ci.InWireSizes)))
	for _, s := range ci.InWireSizes {
		rep.BytesUploaded += s
	}

	// Compute: step 5.
	computeMakespan := simtime.Makespan(ci.TaskCompute, ci.Cores)
	rep.Add(trace.PhaseCompute, computeMakespan)

	// Spark overhead: steps 3, 4, 6, 7 plus scheduling.
	spk := p.LAN.TransferParallel(ci.FetchWireSizes) // driver reads inputs from storage
	spk += ci.DriverDecompress
	if len(ci.TaskCompute) > 0 {
		// A transfer-only plan (target data open/close) submits no job.
		spk += ci.Costs.JobSubmit
	}
	if ci.DistributeWire > 0 {
		spk += p.LAN.Scatter([]int64{ci.DistributeWire})
	}
	if ci.BroadcastWire > 0 {
		spk += p.LAN.Broadcast(ci.BroadcastWire, ci.Workers)
	}
	totalMakespan := simtime.MakespanStaggered(ci.TaskEffective, ci.Cores, ci.Costs.TaskDispatch)
	spk += max(0, totalMakespan-computeMakespan) // dispatch stagger, retries
	if ci.CollectWire > 0 {
		spk += p.LAN.Scatter([]int64{ci.CollectWire})
	}
	if ci.ReconstructRaw > 0 {
		spk += p.MemCopy(ci.ReconstructRaw)
	}
	spk += p.LAN.TransferParallel(ci.OutWireSizes) // driver writes outputs to storage
	rep.Add(trace.PhaseSpark, spk)

	// Target -> host: step 8.
	rep.Add(trace.PhaseDownload, transferLeg(ci.PipelinedTransfers, ci.HostDecompress, p.WAN.TransferParallel(ci.OutWireSizes)))
	for _, s := range ci.OutWireSizes {
		rep.BytesDownloaded += s
	}

	rep.Tiles = len(ci.TaskCompute)
	rep.Cores = ci.Cores
	rep.BytesScattered += ci.DistributeWire
	rep.BytesBroadcast += ci.BroadcastWire
	rep.BytesCollected += ci.CollectWire
	rep.BytesReconstructed += ci.ReconstructRaw
	rep.TileBytes = ci.JNIBytes

	// Lay the accounted phases out as a span tree on the virtual timeline
	// and read the critical path off its horizon. The layout — not a
	// separate arithmetic — is the source of truth: the exported trace and
	// the report's CriticalPath/WallOverlap are projections of the same
	// spans, so they cannot disagree.
	layoutReport(ci, rep)
	return nil
}

// Names of the virtual-timeline phase spans (Fig. 1 legs plus the
// non-streamable reduction tail).
const (
	spanUpload          = "upload"
	spanSpark           = "spark"
	spanCompute         = "compute"
	spanDownload        = "download"
	spanDownloadBarrier = "download.barrier"
)

// layoutReport builds the region's virtual span layout from the accounted
// phases, derives CriticalPath/WallOverlap from it on streamed runs, and
// emits the spans to the default recorder (a no-op when tracing is off).
//
// Barriered runs lay the four phases end to end. Streamed runs
// (ci.StreamTiles > 1) lay them as a tile pipeline, whose horizon is exactly
// simtime.PipelineMakespan over the phase durations — except the barriered
// share of the download (reduction outputs, final only after the last
// tile), which trails the pipeline sequentially. Per-tile task spans are
// placed inside the compute window on the simulated cores, annotated from
// ci.Tasks when present.
func layoutReport(ci costInputs, rep *trace.Report) {
	rec := span.Default()
	up := rep.Phases[trace.PhaseUpload]
	spk := rep.Phases[trace.PhaseSpark]
	compute := rep.Phases[trace.PhaseCompute]
	down := rep.Phases[trace.PhaseDownload]
	l := span.NewLayout(rep.Device, rep.Kernel, rec.VirtualFrontier())

	if ci.StreamTiles > 1 {
		var totalOut int64
		for _, s := range ci.OutWireSizes {
			totalOut += s
		}
		var downBarrier simtime.Duration
		if totalOut > 0 && ci.BarrierOutWire > 0 {
			bw := min(ci.BarrierOutWire, totalOut)
			downBarrier = min(down, simtime.Duration(float64(down)*float64(bw)/float64(totalOut)))
		}
		l.Streamed([]span.Stage{
			{Name: spanUpload, Dur: up},
			{Name: spanSpark, Dur: spk},
			{Name: spanCompute, Dur: compute},
			{Name: spanDownload, Dur: down - downBarrier},
		}, ci.StreamTiles, span.Stage{Name: spanDownloadBarrier, Dur: downBarrier})
		cp := l.CriticalPath()
		// The pipeline makespan never exceeds the stage sum, so cp <= Total
		// and the overlap below is non-negative.
		rep.CriticalPath = cp
		rep.WallOverlap = rep.Total() - cp
	} else {
		l.Barriered([]span.Stage{
			{Name: spanUpload, Dur: up},
			{Name: spanSpark, Dur: spk},
			{Name: spanCompute, Dur: compute},
			{Name: spanDownload, Dur: down},
		})
	}

	// Per-tile task spans, inside the compute window. Only worth recording
	// when a trace is being collected: a large sweep would otherwise build
	// thousands of spans nobody reads.
	if rec != nil && len(ci.TaskCompute) > 0 {
		if start, _, ok := l.Window(spanCompute); ok {
			l.Tiles(start, ci.TaskCompute, ci.Cores, 0, func(i int) []span.Attr {
				if i >= len(ci.Tasks) {
					return nil
				}
				t := ci.Tasks[i]
				attrs := []span.Attr{
					{Key: "worker", Val: strconv.Itoa(t.Worker)},
					{Key: "attempts", Val: strconv.Itoa(t.Attempts)},
				}
				if t.Speculative {
					attrs = append(attrs, span.Attr{Key: "speculative", Val: "true"})
				}
				return attrs
			})
		}
	}
	l.EmitTo(rec)
}
