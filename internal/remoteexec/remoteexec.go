// Package remoteexec executes loop tiles in remote worker processes over
// TCP. In the paper, Spark workers are separate machines that run the
// natively compiled loop body out of the shared fat binary (via JNI); this
// package gives the reproduction the same process boundary: a worker server
// resolves kernels from its own fat-binary registry — host and workers run
// the same Go binary — and the cloud plugin ships each tile's windows to a
// worker and receives its outputs back.
//
// The protocol is gob over TCP, one request per tile:
//
//	TileRequest{Kernel, Lo, Hi, Scalars, Ins, OutSizes}
//	TileResponse{Outs, Err}
package remoteexec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"ompcloud/internal/endpoint"
	"ompcloud/internal/fatbin"
)

// Output-initialization codes: how the worker fills an output buffer
// before invoking the kernel (the reduction identity).
const (
	InitZero    byte = 0 // zero bytes: partitioned outputs, bit-OR, sum
	InitNegInfF byte = 1 // float32 -inf lanes: max reductions
	InitPosInfF byte = 2 // float32 +inf lanes: min reductions
)

// TileRequest asks a worker to execute iterations [Lo, Hi) of a kernel.
type TileRequest struct {
	Kernel   string
	Lo, Hi   int64
	Scalars  []int64
	Ins      [][]byte
	OutSizes []int64 // the worker allocates outputs of these sizes
	// OutInit selects each output's initialization (identity); nil means
	// all InitZero.
	OutInit []byte
}

// TileResponse carries the tile's outputs, or the execution error.
type TileResponse struct {
	Outs [][]byte
	Err  string
}

// maxTileBytes bounds a single request or response frame where it is read,
// and the outputs a request may declare, to keep a confused peer from
// forcing unbounded allocations.
const maxTileBytes = 4 << 30

// Worker serves tile executions from a fat-binary registry.
type Worker struct {
	ep     *endpoint.Server
	reg    *fatbin.Registry
	served atomic.Int64
}

// Serve starts a worker on addr resolving kernels from reg (nil means
// fatbin.Default, the linked-in kernels).
func Serve(addr string, reg *fatbin.Registry) (*Worker, error) {
	if reg == nil {
		reg = fatbin.Default
	}
	w := &Worker{reg: reg}
	ep, err := endpoint.Listen(addr, func(c *endpoint.Conn) {
		endpoint.ServeGob(c, maxTileBytes, w.execute)
	})
	if err != nil {
		return nil, fmt.Errorf("remoteexec: %w", err)
	}
	w.ep = ep
	return w, nil
}

// Addr reports the listen address.
func (w *Worker) Addr() string { return w.ep.Addr() }

// Served reports how many tiles this worker executed.
func (w *Worker) Served() int64 { return w.served.Load() }

// Close stops the worker at once, cutting off tiles in flight.
func (w *Worker) Close() error { return w.ep.Close() }

// Drain stops the worker gracefully (endpoint.Server.Drain): no new
// connections, idle pooled connections closed at once, and a tile inside
// its kernel gets until the timeout to finish and send its response.
func (w *Worker) Drain(timeout time.Duration) error { return w.ep.Drain(timeout) }

// execute runs one tile for a peer: Execute behind a limit on the outputs
// the request declares (its inputs were bounded as they were read), with
// kernel panics recovered into errors so one bad tile does not take the
// worker down, and the error flattened to the string the protocol carries.
func (w *Worker) execute(req *TileRequest) (resp *TileResponse) {
	resp = &TileResponse{}
	defer func() {
		if rec := recover(); rec != nil {
			resp.Outs = nil
			resp.Err = fmt.Sprintf("kernel panic: %v", rec)
		}
	}()
	var total int64
	for _, sz := range req.OutSizes {
		if sz > maxTileBytes-total {
			resp.Err = "tile exceeds size limit"
			return resp
		}
		total += max(sz, 0)
	}
	outs, err := Execute(w.reg, req, nil)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	w.served.Add(1)
	resp.Outs = outs
	return resp
}

// Execute is the one tile executor: it invokes the kernel out of reg on the
// request's outputs. Output i is dst[i] when the caller hands one, used as it
// is — not cleared, not initialised, because the kernel ABI has a body write
// every element of a partitioned out window — and otherwise a fresh buffer
// filled with its reduction identity. A worker process runs it for its peers
// with dst nil; the cloud plugin calls it directly when tiles run in-process,
// handing each partitioned output's window of its reconstruction buffer. The
// kernel's error is returned as it is, so its transient/permanent
// classification survives.
func Execute(reg *fatbin.Registry, req *TileRequest, dst [][]byte) ([][]byte, error) {
	outs := make([][]byte, len(req.OutSizes))
	for i, sz := range req.OutSizes {
		if sz < 0 {
			return nil, errors.New("negative output size")
		}
		if i < len(dst) && dst[i] != nil {
			if int64(len(dst[i])) != sz {
				return nil, fmt.Errorf("output %d: destination is %d bytes, want %d", i, len(dst[i]), sz)
			}
			outs[i] = dst[i]
			continue
		}
		outs[i] = make([]byte, sz)
		if i < len(req.OutInit) {
			switch req.OutInit[i] {
			case InitNegInfF:
				fillF32(outs[i], -1e38)
			case InitPosInfF:
				fillF32(outs[i], 1e38)
			}
		}
	}
	if err := reg.Invoke(req.Kernel, req.Lo, req.Hi, req.Scalars, req.Ins, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// Client executes tiles on one worker over a persistent connection.
// Safe for concurrent use; requests serialize on the connection.
type Client struct {
	rt   *endpoint.Client[TileRequest, TileResponse]
	addr string
}

// Dial connects to a worker.
func Dial(addr string) (*Client, error) {
	rt, err := endpoint.Dial[TileRequest, TileResponse](addr)
	if err != nil {
		return nil, fmt.Errorf("remoteexec: dial %s: %w", addr, err)
	}
	return &Client{rt: rt, addr: addr}, nil
}

// Addr reports the worker address.
func (c *Client) Addr() string { return c.addr }

// Close releases the connection.
func (c *Client) Close() error { return c.rt.Close() }

// RunTile executes one tile remotely. A failure of the connection wraps an
// *endpoint.TransportError; any other error is the worker's own answer.
func (c *Client) RunTile(req *TileRequest) ([][]byte, error) {
	resp, err := c.rt.RoundTrip(req, maxTileBytes)
	if err != nil {
		return nil, fmt.Errorf("remoteexec: %s: %w", c.addr, err)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("remoteexec: %s: %s", c.addr, resp.Err)
	}
	if len(resp.Outs) != len(req.OutSizes) {
		return nil, fmt.Errorf("remoteexec: %s: got %d outputs, want %d", c.addr, len(resp.Outs), len(req.OutSizes))
	}
	for i := range resp.Outs {
		if int64(len(resp.Outs[i])) != req.OutSizes[i] {
			return nil, fmt.Errorf("remoteexec: %s: output %d is %d bytes, want %d",
				c.addr, i, len(resp.Outs[i]), req.OutSizes[i])
		}
	}
	return resp.Outs, nil
}

// Pool load-balances tiles across several workers, one persistent client
// per address, dispatching each tile to the worker its simulated placement
// chose (tile -> worker affinity preserved).
type Pool struct {
	clients []*Client
}

// NewPool dials every worker address.
func NewPool(addrs []string) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remoteexec: empty worker list")
	}
	p := &Pool{}
	for _, a := range addrs {
		c, err := Dial(a)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// Size reports the worker count.
func (p *Pool) Size() int { return len(p.clients) }

// Run executes a tile on the worker with the given index (mod pool size).
func (p *Pool) Run(worker int, req *TileRequest) ([][]byte, error) {
	if len(p.clients) == 0 {
		return nil, fmt.Errorf("remoteexec: empty pool")
	}
	c := p.clients[((worker%len(p.clients))+len(p.clients))%len(p.clients)]
	return c.RunTile(req)
}

// Healthy reports whether every worker answers a trivial probe (a failed
// connection shows up as an error on the next Run; this is a cheap liveness
// check for Available()).
func (p *Pool) Healthy() bool {
	for _, c := range p.clients {
		// A zero-iteration request against a kernel no registry links
		// exercises the round trip; the worker's error proves liveness.
		_, err := c.RunTile(&TileRequest{Kernel: "__health__", Lo: 0, Hi: 0})
		var down *endpoint.TransportError
		if errors.As(err, &down) {
			return false
		}
	}
	return true
}

// Close releases every client.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fillF32 writes a float32 reduction identity into every lane, matching
// the driver-side reduction identities.
func fillF32(b []byte, v float32) {
	bits := math.Float32bits(v)
	for i := 0; i+4 <= len(b); i += 4 {
		binary.LittleEndian.PutUint32(b[i:], bits)
	}
}
