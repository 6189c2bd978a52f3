package bench

import (
	"bytes"
	"fmt"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/faults"
	"ompcloud/internal/offload"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

// The overlap bench measures what the tile-granular streaming dataflow
// actually buys in wall-clock time. The model-based figures can only say
// what the critical path *should* be; here the whole pipeline runs for real
// against a throttled full-duplex store — a laptop-grade WAN where upload
// and download have independent bandwidth, as real links do — and the same
// workload executes once stage-barriered (overlap off) and once streaming.
// A compute-light kernel keeps the runs WAN-bound, which is both the
// paper's motivating regime ("the main performance bottleneck [is] the
// network") and the one where overlap pays: the task for tile k starts
// while tile k+1 uploads, and tile k's output crosses the WAN while later
// tiles compute.

// streamScaleKernel is the bench's compute-light loop body: y[i] = 2*x[i]
// plus a scalar sum reduction. It lives in a bench-local registry so the
// measured kernel set stays exactly the paper's eight.
const streamScaleKernel = "stream-scale"

func overlapRegistry() *fatbin.Registry {
	reg := fatbin.NewRegistry()
	reg.Register(streamScaleKernel, func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		x := in[0]
		y := out[0]
		var sum float32
		for i := 0; i < int(hi-lo); i++ {
			v := data.GetFloat(x, i)
			data.PutFloat(y, i, 2*v)
			sum += v
		}
		data.PutFloat(out[1], 0, data.GetFloat(out[1], 0)+sum)
		return nil
	})
	return reg
}

// OverlapCase is one (size, kind) cell: the same workload barriered and
// streaming, with wall and virtual times for both.
type OverlapCase struct {
	Kind string `json:"kind"`
	MiB  int    `json:"mib"`
	// Tiles is the pipeline depth both runs used.
	Tiles int `json:"tiles"`
	// BarrierWallS/StreamWallS are real elapsed seconds around the
	// plugin's Run, including the throttled store's simulated WAN sleeps.
	BarrierWallS float64 `json:"barrier_wall_s"`
	StreamWallS  float64 `json:"stream_wall_s"`
	// WallSpeedup is BarrierWallS / StreamWallS.
	WallSpeedup float64 `json:"wall_speedup"`
	// Virtual times from the accountant: the streaming run reports its
	// overlapped critical path (Report.Effective), the barriered run its
	// phase sum.
	BarrierVirtualS float64 `json:"barrier_virtual_s"`
	StreamVirtualS  float64 `json:"stream_virtual_s"`
	VirtualSpeedup  float64 `json:"virtual_speedup"`
	// Identical confirms the two modes produced bit-identical outputs
	// (and both match the serial reference).
	Identical bool `json:"identical"`
	// Per-chunk transfer latency summaries from the streaming run's
	// metrics registry: what each PUT and GET actually cost against the
	// throttled store, straight from the always-on histograms.
	StreamChunkPut *span.Summary `json:"stream_chunk_put,omitempty"`
	StreamChunkGet *span.Summary `json:"stream_chunk_get,omitempty"`
}

// OverlapChaos is the resilience cross-check: the streaming run under the
// PR 2 storage-fault schedule must still match the serial reference.
type OverlapChaos struct {
	FaultsFired    int  `json:"faults_fired"`
	StorageRetries int  `json:"storage_retries"`
	Identical      bool `json:"identical"`
}

// OverlapBench is the full result set, serialized to BENCH_overlap.json.
type OverlapBench struct {
	WANMbps float64       `json:"wan_mbps"`
	Tiles   int           `json:"tiles"`
	Cases   []OverlapCase `json:"cases"`
	Chaos   *OverlapChaos `json:"chaos,omitempty"`
}

// OverlapConfig tunes the overlap bench.
type OverlapConfig struct {
	// MiBs lists the input sizes to run (default 64, 256).
	MiBs []int
	// WANMbps throttles the simulated store link per direction
	// (default 200, the paper's WAN).
	WANMbps float64
	// LatencyMs is the per-operation store latency (default 5).
	LatencyMs float64
	// Tiles is the pipeline depth (default 16).
	Tiles int
	// Log receives progress lines.
	Log func(format string, args ...any)
}

// overlapRegion builds the stream-scale region over n float32 elements.
// The returned sum output is tiny on purpose: it exercises the barriered
// reduction tail without adding wire volume.
func overlapRegion(reg *fatbin.Registry, x []byte, tiles int) *offload.Region {
	n := int64(len(x)) / data.FloatSize
	return &offload.Region{
		Kernel:   streamScaleKernel,
		Registry: reg,
		N:        n,
		Tiles:    tiles,
		Ins: []offload.Buffer{
			{Name: "x", Data: x, BytesPerIter: data.FloatSize},
		},
		Outs: []offload.Buffer{
			{Name: "y", Data: make([]byte, len(x)), BytesPerIter: data.FloatSize},
			{Name: "sum", Data: make([]byte, data.FloatSize), Reduce: offload.ReduceSumF32},
		},
	}
}

// overlapPlugin builds one cloud device over the given store with the
// overlap knob set; retries stay on with zero backoff so chaos runs
// recover without real sleeps.
func overlapPlugin(st storage.Store, tiles int, overlap int) (*offload.CloudPlugin, error) {
	return offload.NewCloudPlugin(offload.CloudConfig{
		Spec:      ClusterFor(tiles),
		Store:     st,
		Overlap:   overlap,
		RetryBase: -1,
	})
}

// runOverlapOnce executes the region on a fresh plugin and reports wall
// seconds, virtual seconds, and the produced outputs.
func runOverlapOnce(st storage.Store, x []byte, tiles, overlap int) (wallS, virtS float64, y, sum []byte, retries int, err error) {
	plugin, err := overlapPlugin(st, tiles, overlap)
	if err != nil {
		return 0, 0, nil, nil, 0, err
	}
	defer plugin.Close()
	r := overlapRegion(overlapRegistry(), x, tiles)
	start := time.Now()
	rep, err := plugin.Run(r)
	if err != nil {
		return 0, 0, nil, nil, 0, err
	}
	wall := time.Since(start)
	return wall.Seconds(), rep.Effective().Seconds(), r.Outs[0].Data, r.Outs[1].Data, rep.StorageRetries, nil
}

// overlapReference computes the serial reference outputs with the same
// tiling the device uses: float32 addition is order-sensitive, so the
// reference must combine per-tile partial sums in tile index order — the
// exact order the driver's reconstruction applies — for the comparison to
// be meaningfully bitwise.
func overlapReference(reg *fatbin.Registry, x []byte, tiles int) (y, sum []byte, err error) {
	n := int64(len(x)) / data.FloatSize
	y = make([]byte, len(x))
	var total float32
	for t := 0; t < tiles; t++ {
		lo, hi := offload.TileRange(n, tiles, t)
		part := make([]byte, data.FloatSize)
		err := reg.Invoke(streamScaleKernel, lo, hi, nil,
			[][]byte{x[lo*data.FloatSize : hi*data.FloatSize]},
			[][]byte{y[lo*data.FloatSize : hi*data.FloatSize], part})
		if err != nil {
			return nil, nil, err
		}
		total += data.GetFloat(part, 0)
	}
	sum = make([]byte, data.FloatSize)
	data.PutFloat(sum, 0, total)
	return y, sum, nil
}

// chaosFaults is the storage-fault schedule of the chaos cross-checks: two
// failed input PUTs, a failed input GET, a failed output PUT, and one
// truncated and one bit-flipped chunk payload.
func chaosFaults() *faults.Schedule {
	return faults.New(1).Add(
		faults.Entry{Op: "put", Key: "/in/", Count: 2},
		faults.Entry{Op: "get", Key: "/in/", Count: 1},
		faults.Entry{Op: "put", Key: "/out/", Count: 1},
		faults.Entry{Op: "get", Key: ".part", Count: 1, Do: faults.Truncate, Keep: 7},
		faults.Entry{Op: "get", Key: ".part", Count: 1, Do: faults.Flip, Bit: 3})
}

// RunOverlapBench measures barriered vs streaming wall time on a throttled
// store across sizes and data kinds, verifying bit-identity throughout,
// and finishes with a streaming run under the chaos fault schedule.
func RunOverlapBench(cfg OverlapConfig) (*OverlapBench, error) {
	if len(cfg.MiBs) == 0 {
		cfg.MiBs = []int{64, 256}
	}
	if cfg.WANMbps == 0 {
		cfg.WANMbps = 200
	}
	if cfg.LatencyMs == 0 {
		cfg.LatencyMs = 5
	}
	if cfg.Tiles == 0 {
		cfg.Tiles = 16
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	latency := time.Duration(cfg.LatencyMs * float64(time.Millisecond))
	out := &OverlapBench{WANMbps: cfg.WANMbps, Tiles: cfg.Tiles}
	reg := overlapRegistry()

	for _, kind := range []data.Kind{data.Sparse, data.Dense} {
		for _, mib := range cfg.MiBs {
			n := mib * 1024 * 1024 / data.FloatSize
			x := data.Generate(1, n, kind, 42).Bytes()
			refY, refSum, err := overlapReference(reg, x, cfg.Tiles)
			if err != nil {
				return nil, err
			}

			c := OverlapCase{Kind: kind.String(), MiB: mib, Tiles: cfg.Tiles}
			logf("overlap: %s %d MiB: barriered run", kind, mib)
			bSt := storage.NewThrottled(storage.NewMemStore(), cfg.WANMbps, latency)
			bWall, bVirt, bY, bSum, _, err := runOverlapOnce(bSt, x, cfg.Tiles, -1)
			if err != nil {
				return nil, fmt.Errorf("bench: overlap barriered %s %d MiB: %w", kind, mib, err)
			}
			logf("overlap: %s %d MiB: streaming run", kind, mib)
			sSt := storage.NewThrottled(storage.NewMemStore(), cfg.WANMbps, latency)
			m := span.ResetMetrics() // fresh registry: summaries cover this run only
			sWall, sVirt, sY, sSum, _, err := runOverlapOnce(sSt, x, cfg.Tiles, 0)
			if err != nil {
				return nil, fmt.Errorf("bench: overlap streaming %s %d MiB: %w", kind, mib, err)
			}
			if put := m.Histogram("chunkio.put.seconds"); put.Count() > 0 {
				s := put.Summarize()
				c.StreamChunkPut = &s
			}
			if get := m.Histogram("chunkio.get.seconds"); get.Count() > 0 {
				s := get.Summarize()
				c.StreamChunkGet = &s
			}

			c.BarrierWallS, c.StreamWallS = bWall, sWall
			c.BarrierVirtualS, c.StreamVirtualS = bVirt, sVirt
			if sWall > 0 {
				c.WallSpeedup = bWall / sWall
			}
			if sVirt > 0 {
				c.VirtualSpeedup = bVirt / sVirt
			}
			c.Identical = bytes.Equal(bY, refY) && bytes.Equal(sY, refY) &&
				bytes.Equal(bSum, refSum) && bytes.Equal(sSum, refSum)
			if !c.Identical {
				return nil, fmt.Errorf("bench: overlap %s %d MiB: outputs diverge from serial reference", kind, mib)
			}
			logf("overlap: %s %d MiB: %.2fs barriered, %.2fs streaming (%.2fx), identical",
				kind, mib, bWall, sWall, c.WallSpeedup)
			out.Cases = append(out.Cases, c)
		}
	}

	// Chaos cross-check at the smallest size: streaming under the flaky
	// put/get schedule must absorb the faults and stay bit-identical.
	mib := cfg.MiBs[0]
	n := mib * 1024 * 1024 / data.FloatSize
	x := data.Generate(1, n, data.Sparse, 42).Bytes()
	refY, refSum, err := overlapReference(reg, x, cfg.Tiles)
	if err != nil {
		return nil, err
	}
	sched := chaosFaults()
	logf("overlap: chaos streaming run (%d MiB sparse)", mib)
	_, _, cY, cSum, retries, err := runOverlapOnce(storage.WithFaults(storage.NewMemStore(), sched), x, cfg.Tiles, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: overlap chaos: %w", err)
	}
	out.Chaos = &OverlapChaos{
		FaultsFired:    sched.Fired(faults.Store),
		StorageRetries: retries,
		Identical:      bytes.Equal(cY, refY) && bytes.Equal(cSum, refSum),
	}
	if !out.Chaos.Identical {
		return nil, fmt.Errorf("bench: overlap chaos: outputs diverge from serial reference")
	}
	logf("overlap: chaos streaming run absorbed %d faults (%d retries), identical",
		out.Chaos.FaultsFired, out.Chaos.StorageRetries)
	return out, nil
}
