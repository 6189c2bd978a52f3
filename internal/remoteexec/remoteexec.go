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
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"

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

// maxTileBytes bounds a single request/response to keep a confused peer
// from forcing unbounded allocations.
const maxTileBytes = 4 << 30

// Worker serves tile executions from a fat-binary registry.
type Worker struct {
	ln  net.Listener
	reg *fatbin.Registry

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	served int64
}

// Serve starts a worker on addr resolving kernels from reg (nil means
// fatbin.Default, the linked-in kernels).
func Serve(addr string, reg *fatbin.Registry) (*Worker, error) {
	if reg == nil {
		reg = fatbin.Default
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remoteexec: %w", err)
	}
	w := &Worker{ln: ln, reg: reg, conns: make(map[net.Conn]struct{})}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr reports the listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Served reports how many tiles this worker executed.
func (w *Worker) Served() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.served
}

// Close stops the worker.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	err := w.ln.Close()
	w.wg.Wait()
	return err
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go w.handle(conn)
	}
}

func (w *Worker) handle(conn net.Conn) {
	defer w.wg.Done()
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req TileRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := w.execute(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// execute runs one tile for a peer: Execute behind the wire's size limit,
// with kernel panics recovered into errors so one bad tile does not take
// the worker down, and the error flattened to the string the protocol
// carries.
func (w *Worker) execute(req *TileRequest) (resp *TileResponse) {
	resp = &TileResponse{}
	defer func() {
		if rec := recover(); rec != nil {
			resp.Outs = nil
			resp.Err = fmt.Sprintf("kernel panic: %v", rec)
		}
	}()
	var total int64
	for _, in := range req.Ins {
		total += int64(len(in))
	}
	for _, sz := range req.OutSizes {
		total += max(sz, 0)
	}
	if total > maxTileBytes {
		resp.Err = "tile exceeds size limit"
		return resp
	}
	outs, err := Execute(w.reg, req)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	w.mu.Lock()
	w.served++
	w.mu.Unlock()
	resp.Outs = outs
	return resp
}

// Execute is the one tile executor: it allocates the request's outputs,
// fills each with its reduction identity and invokes the kernel out of reg.
// A worker process runs it for its peers; the cloud plugin calls it directly
// when tiles run in-process. The kernel's error is returned as it is, so
// its transient/permanent classification survives.
func Execute(reg *fatbin.Registry, req *TileRequest) ([][]byte, error) {
	outs := make([][]byte, len(req.OutSizes))
	for i, sz := range req.OutSizes {
		if sz < 0 {
			return nil, errors.New("negative output size")
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
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	addr string
}

// Dial connects to a worker.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remoteexec: dial %s: %w", addr, err)
	}
	return &Client{
		conn: conn,
		enc:  gob.NewEncoder(conn),
		dec:  gob.NewDecoder(conn),
		addr: addr,
	}, nil
}

// Addr reports the worker address.
func (c *Client) Addr() string { return c.addr }

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// RunTile executes one tile remotely.
func (c *Client) RunTile(req *TileRequest) ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("remoteexec: %s: %w", c.addr, err)
	}
	var resp TileResponse
	if err := c.dec.Decode(&resp); err != nil {
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

// Healthy reports whether every worker answers a trivial probe kernel
// lookup (a failed connection shows up as an error on the next Run; this
// is a cheap liveness check for Available()).
func (p *Pool) Healthy() bool {
	for _, c := range p.clients {
		// A zero-iteration request against a missing kernel exercises
		// the round trip; "not found" still proves liveness.
		_, err := c.RunTile(&TileRequest{Kernel: "__health__", Lo: 0, Hi: 0})
		if err == nil {
			continue
		}
		if isTransport(err) {
			return false
		}
	}
	return true
}

// isTransport distinguishes connection failures from application errors.
func isTransport(err error) bool {
	var netErr net.Error
	if errors.As(err, &netErr) {
		return true
	}
	// gob decode on a closed connection surfaces as io errors wrapped in
	// our fmt errors; the application-level "not found" carries the
	// kernel-missing text instead.
	return !containsKernelMissing(err.Error())
}

func containsKernelMissing(s string) bool {
	return strings.Contains(s, "not found")
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
