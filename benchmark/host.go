package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The host probe. This machine is a few virtual cores of a shared host, and
// the host hands them out at a speed that changes by the second: the same
// instructions take 1×, 1.3× or 1.9× as long, wall and getrusage CPU alike
// (the guest is not told of the steal), in phases seconds to minutes long.
// A median over a run of any length the driver allows lands in one phase or
// another, so the raw seconds of two runs of the same code differ by a third
// (README.md, "Measured spread").
//
// The probe is a fixed piece of the benchmark's own work, run on every
// processor at once immediately before and after every timed op — never
// inside one — about a sixth of the run in all. A run's wall-clock metrics
// are its raw values times probeRefS over the median of the run's probes:
// the seconds the ops would have taken had the host run at the speed at
// which the probe takes probeRefS. The probe is code no
// change to the program touches, so a change that makes the program slower
// by a tenth makes every scaled time longer by a tenth.
const (
	probeFloats   = 32 << 10 // 128 KiB of float32 per goroutine and buffer: cache-resident
	probePasses   = 40       // multiply-add passes over them per arithmetic ticket
	probeCopy     = 4 << 20  // bytes per copy ticket, walking a buffer no cache holds
	probeBig      = 32 << 20 // that buffer, per goroutine
	probeTickets  = 40       // arithmetic tickets per processor (sizes.probeTickets: the smoke test's probe is a twentieth)
	copyPerTicket = 2        // copy tickets per arithmetic ticket: the two phases take about as long
	// probeRefS is the probe's time on this class of host when nothing
	// else contends for it, so that scaled seconds read as the seconds of
	// an uncontended host. It is a constant, not a measurement: two runs
	// compare only if they are scaled to the same speed.
	probeRefS = 0.070
)

// host is the process's probe.
var host = newHostProbe()

type hostProbe struct {
	tickets  int         // arithmetic tickets per processor
	x, y     [][]float32 // per goroutine, cache-resident
	src, dst [][]byte    // per goroutine, probeBig each
}

func newHostProbe() *hostProbe {
	h := &hostProbe{tickets: probeTickets}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		x := make([]float32, probeFloats)
		for i := range x {
			x[i] = float32(i%97) * 0.01
		}
		src, dst := offHeap(probeBig), offHeap(probeBig)
		for i := range src {
			src[i] = byte(i)
		}
		clear(dst) // touch every page now, not in the first probe
		h.x, h.y = append(h.x, x), append(h.y, make([]float32, probeFloats))
		h.src, h.dst = append(h.src, src), append(h.dst, dst)
	}
	return h
}

// offHeap maps n bytes outside the Go heap: the probe's buffers must not
// count as live heap, or the collector would run less often in the program
// under test than it does without the benchmark.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("benchmark: mapping the host probe's buffers: " + err.Error())
	}
	return b
}

// phase runs work(g, ticket) on every processor until the tickets are drawn.
// The goroutines draw tickets from one counter, as the program's workers
// draw tiles, so a processor the host slows for a moment does less of the
// work and does not hold the rest up.
func (h *hostProbe) phase(tickets int, work func(g int, ticket int64)) {
	var next atomic.Int64
	total := int64(tickets * len(h.x))
	var wg sync.WaitGroup
	for g := range h.x {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := next.Add(1); t <= total; t = next.Add(1) {
				work(g, t)
			}
		}()
	}
	wg.Wait()
}

// run does the probe's work and returns the wall seconds it took: a phase
// of arithmetic on cache-resident floats, the shape of the kernels' loops,
// then a phase of copies through memory, the shape of the transfer layers.
// The host's other tenants take processor time and memory bandwidth in
// different measure, and the program needs both.
func (h *hostProbe) run() float64 {
	start := time.Now()
	h.phase(h.tickets, func(g int, _ int64) {
		x, y := h.x[g], h.y[g]
		for p := 0; p < probePasses; p++ {
			a := float32(p&7) * 0.125
			for i := range x {
				y[i] = a*x[i] + y[i]*0.5
			}
		}
	})
	h.phase(h.tickets*copyPerTicket, func(g int, t int64) {
		off := int(t) * probeCopy % probeBig
		copy(h.dst[g][off:off+probeCopy], h.src[g][off:off+probeCopy])
	})
	return time.Since(start).Seconds()
}
