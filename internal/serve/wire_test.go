package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/endpoint"
	"ompcloud/internal/simtime"
	"ompcloud/internal/storage"
)

// fakeExec is a deterministic Executor: outputs derive from the spec and
// grant, latency is a fixed wall delay.
type fakeExec struct {
	delay time.Duration
	runs  atomic.Int64
}

func (e *fakeExec) Run(job *Job, cores int) Result {
	e.runs.Add(1)
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	return Result{
		Outputs: [][]float32{{float32(job.Spec.Seed), float32(cores)}},
		Virtual: simtime.Second,
	}
}

func startFront(t testing.TB, exec Executor, mutate func(*Config)) (*Front, *storage.MemStore) {
	t.Helper()
	d, st := newTestDaemon(t, mutate)
	f, err := ListenAndServe("127.0.0.1:0", d, exec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, st
}

func TestFrontSubmitEndToEnd(t *testing.T) {
	exec := &fakeExec{}
	f, _ := startFront(t, exec, func(c *Config) {
		c.Limits = Limits{Rate: -1}
	})
	c, err := DialFront(f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Submit("alice", "cli-1", JobSpec{Bench: "gemm", N: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Status != "done" {
		t.Fatalf("submit: %+v", resp)
	}
	if len(resp.Outputs) != 1 || resp.Outputs[0][0] != 42 {
		t.Fatalf("outputs %v", resp.Outputs)
	}
	if resp.VirtualMS != 1000 {
		t.Fatalf("virtual %v ms", resp.VirtualMS)
	}
	if resp.JobID == "" {
		t.Fatal("no job id")
	}
	// Invalid specs are rejected at the wire, not executed.
	resp, err = c.Submit("alice", "cli-1", JobSpec{Bench: "", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Status != "invalid" {
		t.Fatalf("invalid spec: %+v", resp)
	}
	if got := exec.runs.Load(); got != 1 {
		t.Fatalf("executor ran %d times", got)
	}
	stats, err := c.FrontStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Tenants) != 1 || stats.Tenants[0].Done != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestFrontQuotaRejectionOnWire(t *testing.T) {
	f, _ := startFront(t, &fakeExec{delay: 50 * time.Millisecond}, func(c *Config) {
		// One-token bucket with a glacial refill: the second submission in
		// quick succession must bounce with a retry-after hint.
		c.Limits = Limits{Rate: 0.001, Burst: 1}
	})
	c1, err := DialFront(f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := DialFront(f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	done := make(chan *Response, 1)
	go func() {
		r, _ := c1.Submit("flood", "a", JobSpec{Bench: "gemm", N: 8})
		done <- r
	}()
	time.Sleep(10 * time.Millisecond) // let the first submission take the token
	r2, err := c2.Submit("flood", "b", JobSpec{Bench: "gemm", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r2.OK || r2.Status != "quota" {
		t.Fatalf("second submit: %+v", r2)
	}
	if r2.RetryAfterMS <= 0 {
		t.Fatal("no retry-after on quota rejection")
	}
	if r1 := <-done; r1 == nil || !r1.OK {
		t.Fatalf("first submit: %+v", r1)
	}
}

func TestFrontWorkerRegistry(t *testing.T) {
	f, _ := startFront(t, &fakeExec{}, func(c *Config) { c.PoolCores = 2 })
	c, err := DialFront(f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register("w1:9", 16); err != nil {
		t.Fatal(err)
	}
	if f.d.PoolCores() != 16 {
		t.Fatalf("pool %d", f.d.PoolCores())
	}
	ok, err := c.Heartbeat("w1:9")
	if err != nil || !ok {
		t.Fatalf("heartbeat %v %v", ok, err)
	}
	ok, err = c.Heartbeat("ghost:1")
	if err != nil || ok {
		t.Fatalf("ghost heartbeat %v %v", ok, err)
	}
	if err := c.Deregister("w1:9"); err != nil {
		t.Fatal(err)
	}
	if f.d.PoolCores() != 2 {
		t.Fatalf("pool after deregister %d", f.d.PoolCores())
	}
}

// TestDrainZeroLostJobs is the graceful-drain integration test: every
// admitted job either completes before the deadline or survives in the
// journal for the next daemon life — none are lost.
func TestDrainZeroLostJobs(t *testing.T) {
	exec := &fakeExec{delay: 40 * time.Millisecond}
	f, st := startFront(t, exec, func(c *Config) {
		c.Limits = Limits{Rate: -1}
		c.FairShare = 1
		c.PoolCores = 1
	})
	const jobs = 6
	var wg sync.WaitGroup
	statuses := make(chan string, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialFront(f.Addr())
			if err != nil {
				statuses <- "dial-error"
				return
			}
			defer c.Close()
			r, err := c.Submit("t", "c", JobSpec{Bench: "gemm", N: 8, Seed: int64(i)})
			if err != nil {
				statuses <- "rpc-error"
				return
			}
			statuses <- r.Status
		}(i)
	}
	// Let every submission land, then drain with a deadline that lets only
	// part of the serial queue (6 jobs x 40ms on one slot) complete.
	time.Sleep(30 * time.Millisecond)
	if err := f.Drain(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(statuses)
	done, journaled := 0, 0
	for s := range statuses {
		switch s {
		case "done":
			done++
		case "journaled":
			journaled++
		default:
			t.Fatalf("client saw %q", s)
		}
	}
	if done+journaled != jobs {
		t.Fatalf("done %d + journaled %d != %d admitted", done, journaled, jobs)
	}
	if done == 0 || journaled == 0 {
		t.Fatalf("drain phase boundary missed both ways: done=%d journaled=%d", done, journaled)
	}
	// The journal holds exactly the unfinished jobs; a new daemon recovers
	// every one of them.
	keys, err := st.List(JournalPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != journaled {
		t.Fatalf("journal holds %d entries, %d clients saw journaled", len(keys), journaled)
	}
	d2, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := d2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != journaled {
		t.Fatalf("recovered %d of %d journaled jobs", len(recovered), journaled)
	}
}

func TestFrontDrainingRejectsNewSubmissions(t *testing.T) {
	f, _ := startFront(t, &fakeExec{}, nil)
	c, err := DialFront(f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f.d.BeginDrain()
	r, err := c.Submit("t", "c", JobSpec{Bench: "gemm", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK || r.Status != "draining" {
		t.Fatalf("draining submit: %+v", r)
	}
}

// TestFrontEverySubmitReturns is the lost-response regression test: with
// many connections submitting at once and an executor that completes
// instantly, a Pump on one connection's goroutine can dispatch, run and
// deliver the job another connection has just queued. handleReq used to
// register its waiter only after Daemon.Submit returned, so such a delivery
// found nobody and that client blocked forever.
func TestFrontEverySubmitReturns(t *testing.T) {
	const clients, perClient = 16, 400
	f, _ := startFront(t, &fakeExec{}, func(c *Config) {
		c.Limits = Limits{Rate: -1}
		c.MaxQueue = 4 * clients
	})
	var wg sync.WaitGroup
	var done atomic.Int64
	for i := 0; i < clients; i++ {
		c, err := DialFront(f.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				resp, err := c.Submit("alice", "cli", JobSpec{Bench: "gemm", N: 8, Seed: int64(i*perClient + k)})
				if err != nil {
					t.Errorf("client %d submit %d: %v", i, k, err)
					return
				}
				if !resp.OK || resp.Outputs[0][0] != float32(i*perClient+k) {
					t.Errorf("client %d submit %d: %+v", i, k, resp)
					return
				}
				done.Add(1)
			}
		}(i)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d submits returned; the rest lost their response", done.Load(), clients*perClient)
	}
}

// legacyRequest and legacyResponse are the front's messages as they were
// before raw outputs: no RawOutputs on either side.
type legacyRequest struct {
	Op          string
	Tenant      string
	Client      string
	Spec        JobSpec
	WorkerAddr  string
	WorkerCores int
}

type legacyResponse struct {
	OK           bool
	Status       string
	Err          string
	RetryAfterMS int64
	JobID        string
	VirtualMS    float64
	Outputs      [][]float32
	ResumedTiles int
	Recovered    bool
	Stats        *Stats
}

// oddFloats are outputs whose bits a lossy conversion would change: signed
// zeros, infinities, a subnormal, the extremes and a NaN with a payload.
func oddFloats(seed int64) [][]float32 {
	return [][]float32{
		{float32(seed), float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
			math.Float32frombits(1), math.MaxFloat32, math.SmallestNonzeroFloat32, math.Float32frombits(0x7fc0_0001)},
		{},
		{-1.5},
	}
}

// floatExec answers every job with oddFloats of its seed.
type floatExec struct{}

func (floatExec) Run(job *Job, _ int) Result {
	return Result{Outputs: oddFloats(job.Spec.Seed), Virtual: simtime.Second}
}

// sameBits reports whether two output sets hold the same bits.
func sameBits(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ab, _ := data.ByteView(a[i])
		bb, _ := data.ByteView(b[i])
		if !bytes.Equal(ab, bb) {
			return false
		}
	}
	return true
}

// TestFrontSpeaksBareGob drives a front with what an older client was —
// encoding/gob on a socket and nothing else, in the messages as they were
// before raw outputs — and a current Client with an older daemon, so
// mixed-version clients, workers and daemons interoperate. Outputs arrive
// bit for bit on every pairing.
func TestFrontSpeaksBareGob(t *testing.T) {
	f, _ := startFront(t, floatExec{}, func(c *Config) { c.Limits = Limits{Rate: -1} })
	t.Run("old-client-new-daemon", func(t *testing.T) {
		conn, err := net.Dial("tcp", f.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		for seed := int64(1); seed <= 2; seed++ {
			if err := enc.Encode(&legacyRequest{Op: "submit", Tenant: "alice", Client: "c", Spec: JobSpec{Bench: "gemm", N: 8, Seed: seed}}); err != nil {
				t.Fatal(err)
			}
			var resp legacyResponse
			if err := dec.Decode(&resp); err != nil || !resp.OK || !sameBits(resp.Outputs, oddFloats(seed)) {
				t.Fatalf("submit %d: %+v, %v", seed, resp, err)
			}
		}
	})
	t.Run("new-client-new-daemon", func(t *testing.T) {
		c, err := DialFront(f.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		resp, err := c.Submit("alice", "c", JobSpec{Bench: "gemm", N: 8, Seed: 3})
		if err != nil || !resp.OK || !sameBits(resp.Outputs, oddFloats(3)) || resp.RawOutputs != nil {
			t.Fatalf("submit: %+v, %v", resp, err)
		}
	})
	t.Run("new-client-old-daemon", func(t *testing.T) {
		old, err := endpoint.Listen("127.0.0.1:0", func(c *endpoint.Conn) {
			endpoint.ServeGob(c, maxControlBytes, func(req *legacyRequest) *legacyResponse {
				return &legacyResponse{OK: true, Status: "done", JobID: "j1", Outputs: oddFloats(req.Spec.Seed)}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		defer old.Close()
		c, err := DialFront(old.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for seed := int64(4); seed <= 5; seed++ {
			resp, err := c.Submit("alice", "c", JobSpec{Bench: "gemm", N: 8, Seed: seed})
			if err != nil || !resp.OK || resp.JobID != "j1" || !sameBits(resp.Outputs, oddFloats(seed)) {
				t.Fatalf("submit %d: %+v, %v", seed, resp, err)
			}
		}
	})
}

// replyWith serves one connection on ln: it reads one Request and answers
// with reply's bytes, whatever they are, then hangs up.
func replyWith(ln net.Listener, reply []byte) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		var req Request
		if gob.NewDecoder(conn).Decode(&req) != nil {
			return
		}
		conn.Write(reply)
	}()
	return done
}

// gobStream is the gob encoding of msgs, one after another, on one stream.
func gobStream(tb testing.TB, msgs ...any) []byte {
	var b bytes.Buffer
	enc := gob.NewEncoder(&b)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			tb.Fatal(err)
		}
	}
	return b.Bytes()
}

// rawOf is outs as a daemon that was asked for raw outputs sends them.
func rawOf(outs [][]float32) [][]byte {
	raw := make([][]byte, len(outs))
	for i := range outs {
		raw[i] = data.Bytes(outs[i])
	}
	return raw
}

func TestClientRejectsRaggedRawOutputs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := replyWith(ln, gobStream(t, &Response{OK: true, Status: "done", RawOutputs: [][]byte{{0, 0, 0, 0}, {1, 2, 3, 4, 5}}}))
	c, err := DialFront(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Submit("alice", "c", JobSpec{Bench: "gemm", N: 8})
	var te *endpoint.TransportError
	if !errors.As(err, &te) || resp != nil {
		t.Fatalf("a 5-byte raw output: %+v, %v; want a transport error", resp, err)
	}
	<-served
}

// FuzzFrontResponse feeds arbitrary bytes to a Client as a daemon's reply
// to a submit. Whatever arrives, Submit must not panic, must not allocate
// more than FuzzFrontConn lets the front allocate, must report every error
// as a transport error, and must refuse a raw output that is not whole
// float32s. A reply it accepts holds the outputs gob decodes from the same
// bytes, bit for bit; a well-formed reply with whole outputs is accepted.
func FuzzFrontResponse(f *testing.F) {
	outs := oddFloats(7)
	raw := gobStream(f, &Response{OK: true, Status: "done", JobID: "j1", VirtualMS: 12.5, RawOutputs: rawOf(outs)})
	f.Add(raw)
	f.Add(gobStream(f, &Response{OK: true, Status: "done", JobID: "j1", Outputs: outs}))
	f.Add(gobStream(f, &legacyResponse{OK: true, Status: "done", JobID: "j1", Outputs: outs}))
	f.Add(gobStream(f, &Response{Status: "quota", RetryAfterMS: 40, Err: "slow down"}))
	f.Add(gobStream(f, &Response{OK: true, Status: "done", RawOutputs: [][]byte{{1, 2, 3}}}))
	f.Add(gobStream(f, &Response{OK: true, Status: "done", RawOutputs: [][]byte{{}, {1, 2, 3, 4}}, Outputs: [][]float32{{9}}}))
	f.Add(raw[:len(raw)/2])                                             // cut inside a frame
	f.Add([]byte{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // a length prefix past every limit
	f.Add([]byte{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	defer ln.Close()
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		served := replyWith(ln, in)
		c, err := DialFront(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Submit("alice", "c", JobSpec{Bench: "gemm", N: 8})
		c.Close()
		<-served
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(10<<20+64*len(in)+1<<20); got > limit {
			t.Fatalf("%d bytes made the client allocate %d (limit %d)", len(in), got, limit)
		}
		var te *endpoint.TransportError
		if err != nil && !errors.As(err, &te) {
			t.Fatalf("error is not a transport error: %v", err)
		}

		var want Response
		decoded := gob.NewDecoder(bytes.NewReader(in)).Decode(&want) == nil
		whole := true
		for _, b := range want.RawOutputs {
			whole = whole && len(b)%data.FloatSize == 0
		}
		if err != nil {
			if decoded && whole {
				t.Fatalf("a well-formed reply was refused: %v", err)
			}
			return
		}
		if !decoded || !whole {
			t.Fatalf("accepted a reply gob refuses or a ragged raw output: %+v", resp)
		}
		if want.RawOutputs != nil {
			want.Outputs = make([][]float32, len(want.RawOutputs))
			for i, b := range want.RawOutputs {
				want.Outputs[i] = data.Floats(b)
			}
		}
		if resp.RawOutputs != nil || !sameBits(resp.Outputs, want.Outputs) {
			t.Fatalf("outputs %v, want %v", resp.Outputs, want.Outputs)
		}
	})
}

// FuzzFrontConn feeds arbitrary bytes to a front as one peer's stream.
// Whatever arrives, the front must not panic, must not allocate more than a
// small multiple of what it was sent (plus gob's one eagerly allocated
// block), must close the connection, and must still serve the next one.
func FuzzFrontConn(f *testing.F) {
	stream := func(reqs ...*Request) []byte {
		var b bytes.Buffer
		enc := gob.NewEncoder(&b)
		for _, r := range reqs {
			if err := enc.Encode(r); err != nil {
				f.Fatal(err)
			}
		}
		return b.Bytes()
	}
	valid := stream(&Request{Op: "submit", Tenant: "alice", Client: "c", Spec: JobSpec{Bench: "gemm", N: 8, Seed: 3}})
	f.Add(valid)
	f.Add(stream(&Request{Op: "register", WorkerAddr: "w:1", WorkerCores: 4}, &Request{Op: "heartbeat", WorkerAddr: "w:1"},
		&Request{Op: "deregister", WorkerAddr: "w:1"}, &Request{Op: "stats"}, &Request{Op: "nope"}))
	f.Add(stream(&Request{Op: "submit", Tenant: "a/b", Spec: JobSpec{N: -1}}))
	f.Add(valid[:len(valid)/2])                                         // cut inside a frame
	f.Add([]byte{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // a length prefix past every limit
	f.Add([]byte{0xfd, 0x20, 0x00, 0x00, 'a', 'b', 'c'})                // 2 MiB declared against a 1 MiB budget, 3 bytes sent
	f.Add(stream(&Request{Op: "submit", Tenant: string(make([]byte, 2*maxControlBytes))}))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))

	front, _ := startFront(f, &fakeExec{}, func(c *Config) { c.Limits = Limits{Rate: -1} })
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn, err := net.Dial("tcp", front.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		go func() {
			conn.Write(in)
			conn.(*net.TCPConn).CloseWrite()
		}()
		if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) { // EOF or a reset is closed
			t.Fatalf("front left the connection open: %v", err)
		}
		runtime.ReadMemStats(&after)
		// 10 MiB is the most encoding/gob allocates for a message before
		// its body arrives; a job's admission costs more than its request.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(10<<20+64*len(in)+1<<20); got > limit {
			t.Fatalf("%d bytes made the front allocate %d (limit %d)", len(in), got, limit)
		}
		c, err := DialFront(front.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.FrontStats(); err != nil {
			t.Fatalf("next connection: %v", err)
		}
	})
}
