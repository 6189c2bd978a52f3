package serve

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"ompcloud/internal/simtime"
)

// The service front speaks gob over TCP (the remoteexec idiom): one
// Request/Response pair per round trip on a persistent connection. Submit
// is synchronous — the client blocks until its job completes, is rejected,
// or is journaled by a drain.

// Request is one client round trip to the daemon.
type Request struct {
	// Op is "submit", "register", "heartbeat", "deregister", or "stats".
	Op     string
	Tenant string
	Client string
	Spec   JobSpec
	// WorkerAddr/WorkerCores carry the worker-registry ops.
	WorkerAddr  string
	WorkerCores int
}

// Response answers a Request.
type Response struct {
	OK bool
	// Status is "done", "quota", "overload", "draining", "invalid",
	// "journaled" (admitted but drained before execution; resubmit-safe —
	// the next daemon life recovers it), "unknown" (heartbeat for an
	// expired worker), or "error".
	Status string
	Err    string
	// RetryAfterMS is the backoff hint for quota/overload rejections.
	RetryAfterMS int64
	JobID        string
	// VirtualMS is the job's modelled duration; Outputs its result
	// buffers; ResumedTiles the tiles served from a recovered session.
	VirtualMS    float64
	Outputs      [][]float32
	ResumedTiles int
	Recovered    bool
	Stats        *Stats
}

// Front serves the daemon over TCP, mapping wall time since construction
// onto the daemon's virtual axis so lease and quota arithmetic use one
// clock family in both the service and the bench.
type Front struct {
	d     *Daemon
	exec  Executor
	ln    net.Listener
	epoch time.Time

	mu     sync.Mutex
	conns  map[net.Conn]*frontConn
	closed bool
	wg     sync.WaitGroup

	waitMu  sync.Mutex
	waiters map[string]chan *Response

	runWG sync.WaitGroup
}

type frontConn struct {
	busy bool
}

// ListenAndServe starts a Front on addr.
func ListenAndServe(addr string, d *Daemon, exec Executor) (*Front, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	f := &Front{
		d: d, exec: exec, ln: ln, epoch: time.Now(),
		conns:   make(map[net.Conn]*frontConn),
		waiters: make(map[string]chan *Response),
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr reports the listener address.
func (f *Front) Addr() string { return f.ln.Addr().String() }

// Now maps wall time onto the daemon's virtual clock.
func (f *Front) Now() simtime.Duration { return simtime.FromReal(time.Since(f.epoch)) }

// Pump dispatches as much queued work as slots and cores allow, running
// each grant on its own goroutine. Completions pump again, so one call
// keeps the pipeline full; the daemon startup calls it once after Recover
// to start executing journaled jobs that have no waiting client.
func (f *Front) Pump() {
	grants := f.d.Dispatch(f.Now())
	for _, g := range grants {
		f.runWG.Add(1)
		go func(g Grant) {
			defer f.runWG.Done()
			res := f.exec.Run(g.Job, g.Cores)
			if err := f.d.Complete(g.Job, res, f.Now()); err != nil && res.Err == nil {
				res.Err = err
			}
			f.deliver(g.Job, res)
			f.Pump()
		}(g)
	}
}

func (f *Front) deliver(j *Job, res Result) {
	resp := &Response{
		OK: res.Err == nil, Status: "done", JobID: j.ID,
		VirtualMS:    res.Virtual.Seconds() * 1e3,
		Outputs:      res.Outputs,
		ResumedTiles: res.ResumedTiles,
		Recovered:    j.Recovered,
	}
	if res.Err != nil {
		resp.Status = "error"
		resp.Err = res.Err.Error()
	}
	f.waitMu.Lock()
	ch, ok := f.waiters[j.ID]
	delete(f.waiters, j.ID)
	f.waitMu.Unlock()
	if ok {
		ch <- resp // buffered; never blocks
	}
}

func (f *Front) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		st := &frontConn{}
		f.conns[conn] = st
		f.mu.Unlock()
		f.wg.Add(1)
		go f.handle(conn, st)
	}
}

func (f *Front) handle(conn net.Conn, st *frontConn) {
	defer f.wg.Done()
	defer func() {
		conn.Close()
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		f.mu.Lock()
		st.busy = true
		f.mu.Unlock()
		resp := f.handleReq(conn, &req)
		err := enc.Encode(resp)
		f.mu.Lock()
		st.busy = false
		closed := f.closed
		f.mu.Unlock()
		if err != nil || closed {
			return
		}
	}
}

func (f *Front) handleReq(conn net.Conn, req *Request) *Response {
	now := f.Now()
	switch req.Op {
	case "submit":
		client := req.Client
		if client == "" {
			client = conn.RemoteAddr().String()
		}
		// The waiter is registered under waitMu across Submit: the moment
		// Submit returns the job is queued, and a Pump on another
		// connection's goroutine may dispatch, run and deliver it. deliver
		// takes waitMu, so it cannot look for the waiter before it exists.
		ch := make(chan *Response, 1)
		f.waitMu.Lock()
		job, rej, err := f.d.Submit(req.Tenant, client, req.Spec, now)
		if job != nil {
			f.waiters[job.ID] = ch
		}
		f.waitMu.Unlock()
		if err != nil {
			return &Response{Status: "error", Err: err.Error()}
		}
		if rej != nil {
			r := &Response{Status: rej.Reason, RetryAfterMS: int64(rej.RetryAfter / simtime.Millisecond)}
			if rej.Err != nil {
				r.Err = rej.Err.Error()
			}
			return r
		}
		f.Pump()
		return <-ch
	case "register":
		if err := f.d.RegisterWorker(req.WorkerAddr, req.WorkerCores, now); err != nil {
			return &Response{Status: "error", Err: err.Error()}
		}
		f.Pump() // new capacity may unblock queued work
		return &Response{OK: true, Status: "done"}
	case "heartbeat":
		if !f.d.WorkerHeartbeat(req.WorkerAddr, now) {
			return &Response{Status: "unknown"}
		}
		return &Response{OK: true, Status: "done"}
	case "deregister":
		f.d.DeregisterWorker(req.WorkerAddr, now)
		return &Response{OK: true, Status: "done"}
	case "stats":
		s := f.d.Snapshot()
		return &Response{OK: true, Status: "done", Stats: &s}
	default:
		return &Response{Status: "error", Err: fmt.Sprintf("serve: unknown op %q", req.Op)}
	}
}

// Drain shuts the front down gracefully: admission closes first, the
// listener stops, then queued and running jobs get until the deadline to
// finish. Whatever has not completed by then stays in the write-ahead
// journal — clients blocked on those jobs receive status "journaled" and
// the next daemon life recovers them. No admitted job is ever lost: it
// either completes (journal released) or its journal entry survives.
func (f *Front) Drain(timeout time.Duration) error {
	f.d.BeginDrain()
	err := f.ln.Close()
	deadline := time.Now().Add(timeout)
	f.Pump()
	for time.Now().Before(deadline) {
		if f.d.Idle() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Unblock every client still waiting: their jobs are journaled (or
	// still running with a journal entry that survives abandonment).
	f.waitMu.Lock()
	for id, ch := range f.waiters {
		ch <- &Response{Status: "journaled", JobID: id}
		delete(f.waiters, id)
	}
	f.waitMu.Unlock()
	// Give busy connections a moment to flush their final response, then
	// tear everything down. Handlers stuck inside an abandoned executor
	// run are not waited on — same policy as the storage server's drain.
	flush := time.Now().Add(250 * time.Millisecond)
	for {
		f.mu.Lock()
		busy := 0
		for c, st := range f.conns {
			if st.busy {
				busy++
			} else {
				c.Close()
			}
		}
		f.mu.Unlock()
		if busy == 0 || time.Now().After(flush) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	f.mu.Lock()
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	return err
}

// Close tears the front down immediately (tests).
func (f *Front) Close() error {
	f.mu.Lock()
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	return f.ln.Close()
}

// Client is the gob client of a Front: one persistent connection,
// round trips serialized.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// DialFront connects to a service daemon.
func DialFront(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &Client{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &resp, nil
}

// Submit sends one job and blocks until it completes, is rejected, or is
// journaled by a drain.
func (c *Client) Submit(tenant, client string, spec JobSpec) (*Response, error) {
	return c.roundTrip(&Request{Op: "submit", Tenant: tenant, Client: client, Spec: spec})
}

// Register advertises a worker process to the daemon's pool.
func (c *Client) Register(addr string, cores int) error {
	resp, err := c.roundTrip(&Request{Op: "register", WorkerAddr: addr, WorkerCores: cores})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("serve: register: %s", resp.Err)
	}
	return nil
}

// Heartbeat renews a worker lease; false means re-register.
func (c *Client) Heartbeat(addr string) (bool, error) {
	resp, err := c.roundTrip(&Request{Op: "heartbeat", WorkerAddr: addr})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// Deregister removes a worker from the pool.
func (c *Client) Deregister(addr string) error {
	_, err := c.roundTrip(&Request{Op: "deregister", WorkerAddr: addr})
	return err
}

// FrontStats fetches a daemon state snapshot.
func (c *Client) FrontStats() (*Stats, error) {
	resp, err := c.roundTrip(&Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("serve: stats: %s", resp.Err)
	}
	return resp.Stats, nil
}
