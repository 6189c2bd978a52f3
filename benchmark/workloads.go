package main

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/trace"
)

// sizes are the workload dimensions. The full sizes are the ones the issue
// timed on the seed; quick is the smoke test's.
type sizes struct {
	gemmN, threeMMN int
	streamMiB       int
	daemonN         int
	// warmOps is how many warm-up ops a process runs before its first
	// timed stream op: on stream-dense the third op of a process still ran
	// 3× slower than the fourth, while the heap grew to its ~3 GiB working
	// size. The kernel workloads allocate a seventh of that and warm up
	// with the one op that is checked against the serial reference.
	warmOps   int
	warmJobs  int // daemon warm-up jobs per block
	blockJobs int // daemon timed jobs per block
	// probeTickets sizes the host probe (host.go). At the quick sizes the
	// probe is a twentieth of the full one and its scale means nothing.
	probeTickets int
	checkEvery   int // every n-th daemon job is compared with its reference
	checkPool    int // distinct seeds the compared jobs cycle through
}

var (
	fullSizes  = sizes{gemmN: 1536, threeMMN: 1024, streamMiB: 256, daemonN: 96, warmOps: 3, warmJobs: 100, blockJobs: 1000, checkEvery: 20, checkPool: 32, probeTickets: probeTickets}
	quickSizes = sizes{gemmN: 96, threeMMN: 64, streamMiB: 2, daemonN: 96, warmOps: 1, warmJobs: 10, blockJobs: 40, checkEvery: 5, checkPool: 4, probeTickets: probeTickets / 20}
)

// tiles is the pipeline depth of every region workload: the simulated
// cluster is 1 worker × 16 cores, so Algorithm 1's automatic tiling gives
// the kernel workloads 16 tiles and the stream workloads ask for the same.
const tiles = 16

// prepared is one region workload after set-up: inputs generated, output
// buffers allocated, the serial reference within reach.
type prepared struct {
	// run executes one op — one region or one target-data environment —
	// on dev, as the program's caller would.
	run func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error)
	// outputs are the live output buffers run writes.
	outputs func() [][]byte
	// verify checks the live outputs against the serial reference and
	// returns the verified bytes, which every later op must reproduce.
	verify func() ([][]byte, error)
	// inputs regenerates the buffers the op maps to the device, for the
	// layer replays.
	inputs func() [][]byte
	// flops is the op's floating-point operation count.
	flops float64
	// warmOps is how many warm-up ops a process runs before its first
	// timed op of this workload.
	warmOps int
	// registry is where the op's loop bodies are resolved (Calls delta).
	registry *fatbin.Registry

	// Interposition on the loop body, stream workloads only: busy time of
	// the wrapped body, and the op its tile spans attach to.
	tileBusy *atomic.Int64
	current  atomic.Pointer[opRef]
}

// opRef names the op in flight for spans opened from inside the runtime.
type opRef struct {
	op     string
	parent int
}

func (p *prepared) currentOp() (string, int) {
	if r := p.current.Load(); r != nil {
		return r.op, r.parent
	}
	return "", noParent
}

func floatBytes(bufs [][]float32) [][]byte {
	out := make([][]byte, len(bufs))
	for i, b := range bufs {
		out[i] = data.Bytes(b)
	}
	return out
}

// prepareKernel sets up a Polybench workload through kernels.Prepare, the
// same call ompcloud-run makes. inSeeds are the seed offsets Prepare
// generates its mapped-to matrices from, so the replays see the same bytes.
func prepareKernel(b *kernels.Benchmark, n int, seed int64, inSeeds int) *prepared {
	w := b.Prepare(n, data.Dense, seed)
	return &prepared{
		run:     w.Run,
		outputs: func() [][]byte { return floatBytes(w.Outputs()) },
		verify: func() ([][]byte, error) {
			if err := w.Verify(); err != nil {
				return nil, err
			}
			var verified [][]byte
			for _, out := range w.Outputs() {
				verified = append(verified, bytes.Clone(data.Bytes(out)))
			}
			return verified, nil
		},
		inputs: func() [][]byte {
			ins := make([][]byte, inSeeds)
			for i := range ins {
				ins[i] = data.Generate(n, n, data.Dense, seed+int64(i)).Bytes()
			}
			return ins
		},
		flops:    b.Ops(n),
		warmOps:  1,
		registry: fatbin.Default,
	}
}

// streamScale is the compute-light loop body of the stream workloads:
// y[i] = 2*x[i] plus a float32 sum reduction.
const streamScale = "stream-scale"

func streamScaleBody(lo, hi int64, _ []int64, in, out [][]byte) error {
	x, y := in[0], out[0]
	var sum float32
	for i := 0; i < int(hi-lo); i++ {
		v := data.GetFloat(x, i)
		data.PutFloat(y, i, 2*v)
		sum += v
	}
	data.PutFloat(out[1], 0, data.GetFloat(out[1], 0)+sum)
	return nil
}

// streamBufs are the stream workloads' buffers: allocated by the first block
// of a run and refilled by the later ones, so a block's set-up faults no new
// memory in.
type streamBufs struct {
	x, y, refY []byte
}

// fillFloats overwrites dst with seeded float32 content of the given kind,
// following data.Generate's distributions — dense: 24 random mantissa bits
// mapped to [-1, 1); sparse: zeros with data.SparseDensity nonzeros — from a
// splitmix64 stream, which fills 256 MiB in a fraction of the time math/rand
// takes and so keeps set-up short enough to repeat.
func fillFloats(dst []byte, kind data.Kind, seed int64) {
	state := uint64(seed)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	uniform := func(bits uint64) float32 { return float32(bits>>40)/(1<<23) - 1 }
	n := len(dst) / data.FloatSize
	if kind == data.Dense {
		for i := 0; i < n; i++ {
			data.PutFloat(dst, i, uniform(next()))
		}
		return
	}
	clear(dst)
	for j := 0; j < int(float64(n)*data.SparseDensity); j++ {
		data.PutFloat(dst, int(next()%uint64(n)), uniform(next()))
	}
}

// prepareStream sets up a stream workload over mib MiB of float32. tr is nil
// on an untraced run, which then registers the bare body.
func prepareStream(mib, warmOps int, kind data.Kind, seed int64, tr *tracer, bufs *streamBufs) (*prepared, error) {
	size := mib << 20
	n := int64(size / data.FloatSize)
	if len(bufs.x) != size {
		*bufs = streamBufs{x: make([]byte, size), y: make([]byte, size), refY: make([]byte, size)}
	}
	x, y, refY := bufs.x, bufs.y, bufs.refY
	fillFloats(x, kind, seed)
	sum := make([]byte, data.FloatSize)

	p := &prepared{flops: 2 * float64(n), warmOps: warmOps, registry: fatbin.NewRegistry()}
	body := fatbin.LoopBody(streamScaleBody)
	if tr != nil {
		p.tileBusy = new(atomic.Int64)
		body = timedBody(body, p.tileBusy, tr, p.currentOp)
	}
	p.registry.Register(streamScale, body)

	// The reference is built tile by tile in tile order, the order the
	// driver's reconstruction combines partial sums in, so the float32 sum
	// is bitwise the device's.
	p.verify = func() ([][]byte, error) {
		var total float32
		for t := 0; t < tiles; t++ {
			lo, hi := offload.TileRange(n, tiles, t)
			part := make([]byte, data.FloatSize)
			win := func(b []byte) []byte { return b[lo*data.FloatSize : hi*data.FloatSize] }
			if err := streamScaleBody(lo, hi, nil, [][]byte{win(x)}, [][]byte{win(refY), part}); err != nil {
				return nil, err
			}
			total += data.GetFloat(part, 0)
		}
		refSum := make([]byte, data.FloatSize)
		data.PutFloat(refSum, 0, total)
		if !bytes.Equal(y, refY) || !bytes.Equal(sum, refSum) {
			return nil, fmt.Errorf("stream-scale: outputs differ from the serial reference")
		}
		return [][]byte{refY, refSum}, nil
	}

	p.run = func(rt *omp.Runtime, dev omp.Device) (*trace.Report, error) {
		data.PutFloat(sum, 0, 0)
		return rt.Target(dev,
			omp.To("x", x).Partition(data.FloatSize),
			omp.From("y", y).Partition(data.FloatSize),
			omp.From("sum", sum).Sum(),
		).Tiles(tiles).WithRegistry(p.registry).ParallelFor(n, streamScale)
	}
	p.outputs = func() [][]byte { return [][]byte{y, sum} }
	p.inputs = func() [][]byte { return [][]byte{x} }
	return p, nil
}

// prepareRegion dispatches on the workload name.
func prepareRegion(name string, sz sizes, seed int64, tr *tracer, bufs *streamBufs) (*prepared, error) {
	switch name {
	case "gemm-dense":
		return prepareKernel(kernels.GEMM, sz.gemmN, seed, 3), nil // A, B, C
	case "3mm-env":
		return prepareKernel(kernels.ThreeMM, sz.threeMMN, seed, 4), nil // A, B, C, D
	case "stream-sparse":
		return prepareStream(sz.streamMiB, sz.warmOps, data.Sparse, seed, tr, bufs)
	case "stream-dense":
		return prepareStream(sz.streamMiB, sz.warmOps, data.Dense, seed, tr, bufs)
	}
	return nil, fmt.Errorf("unknown region workload %q", name)
}
