package serve

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/endpoint"
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
	// RawOutputs asks a submit's reply for Response.RawOutputs in place of
	// Outputs. A daemon that predates the field ignores it and sends
	// Outputs; a client that predates it never sets it.
	RawOutputs bool
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
	// RawOutputs carries the outputs as little-endian float32 bytes when
	// the request asked for them: gob moves a []byte in one copy and a
	// []float32 element by element. Client.Submit turns them back into
	// Outputs.
	RawOutputs [][]byte
}

// Front serves the daemon over TCP, mapping wall time since construction
// onto the daemon's virtual axis so lease and quota arithmetic use one
// clock family in both the service and the bench.
type Front struct {
	d     *Daemon
	exec  Executor
	ep    *endpoint.Server
	epoch time.Time

	waitMu  sync.Mutex
	waiters map[string]chan *Response

	runWG sync.WaitGroup
}

// maxControlBytes bounds a Request frame, and a Response frame but for the
// outputs a submit returns: a few short strings, a JobSpec, a Stats
// snapshot.
const maxControlBytes = 1 << 20

// maxOutputsBytes bounds a job's Outputs or RawOutputs on the wire: a
// storage object's limit.
const maxOutputsBytes = 4 << 30

// flushGrace is what a drain gives connections to write their last response
// once every waiting client has been answered.
const flushGrace = 250 * time.Millisecond

// ListenAndServe starts a Front on addr.
func ListenAndServe(addr string, d *Daemon, exec Executor) (*Front, error) {
	f := &Front{d: d, exec: exec, epoch: time.Now(), waiters: make(map[string]chan *Response)}
	ep, err := endpoint.Listen(addr, func(c *endpoint.Conn) {
		endpoint.ServeGob(c, maxControlBytes, func(req *Request) *Response { return f.handleReq(c, req) })
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	f.ep = ep
	return f, nil
}

// Addr reports the listener address.
func (f *Front) Addr() string { return f.ep.Addr() }

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
		resp := <-ch
		if req.RawOutputs && resp.Outputs != nil {
			resp.RawOutputs = make([][]byte, len(resp.Outputs))
			for i, out := range resp.Outputs {
				resp.RawOutputs[i], _ = data.ByteView(out)
			}
			resp.Outputs = nil
		}
		return resp
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

// Drain shuts the front down gracefully: admission closes first, then
// queued and running jobs get until the deadline to finish. Whatever has
// not completed by then stays in the write-ahead journal — clients blocked
// on those jobs receive status "journaled" and the next daemon life
// recovers them. No admitted job is ever lost: it either completes (journal
// released) or its journal entry survives. The connections then drain by
// the endpoint's rule, with flushGrace to write those last responses.
func (f *Front) Drain(timeout time.Duration) error {
	f.d.BeginDrain()
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
	return f.ep.Drain(flushGrace)
}

// Close tears the front down immediately (tests).
func (f *Front) Close() error { return f.ep.Close() }

// Client is the gob client of a Front: one persistent connection,
// round trips serialized.
type Client struct {
	rt *endpoint.Client[Request, Response]
}

// DialFront connects to a service daemon.
func DialFront(addr string) (*Client, error) {
	rt, err := endpoint.Dial[Request, Response](addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &Client{rt: rt}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.rt.Close() }

func (c *Client) roundTrip(req *Request) (*Response, error) {
	limit := int64(maxControlBytes)
	if req.Op == "submit" {
		limit += maxOutputsBytes
	}
	resp, err := c.rt.RoundTrip(req, limit)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return resp, nil
}

// Submit sends one job and blocks until it completes, is rejected, or is
// journaled by a drain. It asks for raw outputs and hands them back as
// Outputs, views of the received bytes where the host's layout allows; a
// daemon that sends Outputs itself is taken as it is. An output that is not
// a whole number of float32s is a transport error.
func (c *Client) Submit(tenant, client string, spec JobSpec) (*Response, error) {
	resp, err := c.roundTrip(&Request{Op: "submit", Tenant: tenant, Client: client, Spec: spec, RawOutputs: true})
	if err != nil || resp.RawOutputs == nil {
		return resp, err
	}
	outs := make([][]float32, len(resp.RawOutputs))
	for i, b := range resp.RawOutputs {
		if len(b)%data.FloatSize != 0 {
			return nil, fmt.Errorf("serve: %w", &endpoint.TransportError{
				Err: fmt.Errorf("raw output %d is %d bytes, not a whole number of float32s", i, len(b))})
		}
		outs[i], _ = data.FloatView(b)
	}
	resp.Outputs, resp.RawOutputs = outs, nil
	return resp, nil
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
