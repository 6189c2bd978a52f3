package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeConcurrentClients hammers one server with many goroutine clients
// doing PUT/GET/Stat/List/Delete at once (run under -race in CI). Every
// client works its own key range, so all results are exactly checkable.
func TestServeConcurrentClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	const opsPer = 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rs, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer rs.Close()
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("t/%d/%d", c, i)
				body := []byte(fmt.Sprintf("payload-%d-%d", c, i))
				if err := rs.Put(key, body); err != nil {
					errs <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				got, err := rs.Get(key)
				if err != nil || string(got) != string(body) {
					errs <- fmt.Errorf("get %s: %v (got %q)", key, err, got)
					return
				}
				if n, err := rs.Stat(key); err != nil || n != int64(len(body)) {
					errs <- fmt.Errorf("stat %s: %v (n=%d)", key, err, n)
					return
				}
				if i%8 == 7 {
					if err := rs.Delete(key); err != nil {
						errs <- fmt.Errorf("delete %s: %w", key, err)
						return
					}
					if _, err := rs.Get(key); !errors.Is(err, ErrNotFound) {
						errs <- fmt.Errorf("get after delete %s: %v", key, err)
						return
					}
				}
			}
			keys, err := rs.List(fmt.Sprintf("t/%d/", c))
			if err != nil {
				errs <- fmt.Errorf("list: %w", err)
				return
			}
			want := opsPer - opsPer/8
			if len(keys) != want {
				errs <- fmt.Errorf("client %d listed %d keys, want %d", c, len(keys), want)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeMidOpDisconnect opens raw connections that die mid-request — a
// partial header, a partial key, a PUT whose body never arrives — while
// healthy clients keep working. The server must survive all of it.
func TestServeMidOpDisconnect(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	partials := [][]byte{
		{},           // connect and vanish
		{2},          // op byte only (GET)
		{2, 0, 0},    // half a key length
		{1, 0, 0, 0}, // PUT with truncated key length
		append([]byte{1, 0, 0, 0, 3}, []byte("abc")...), // PUT, key but no body header
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, p := range partials {
			wg.Add(1)
			go func(p []byte) {
				defer wg.Done()
				conn, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					return
				}
				conn.Write(p)
				conn.Close()
			}(p)
		}
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			rs, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer rs.Close()
			key := fmt.Sprintf("healthy/%d", round)
			if err := rs.Put(key, []byte("ok")); err != nil {
				t.Errorf("healthy put: %v", err)
				return
			}
			if b, err := rs.Get(key); err != nil || string(b) != "ok" {
				t.Errorf("healthy get: %v (%q)", err, b)
			}
		}(round)
	}
	wg.Wait()
}

// TestServerDrain proves the graceful-shutdown contract: a request in
// flight when Drain begins still receives its response, idle connections
// close, and no new connections are accepted.
func TestServerDrain(t *testing.T) {
	slow := newSlowStore(50 * time.Millisecond)
	srv, err := Serve("127.0.0.1:0", slow)
	if err != nil {
		t.Fatal(err)
	}

	// An idle connection: drain should close it without a response.
	idle, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	// A busy connection: its PUT is inside the store when drain starts.
	busy, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	putDone := make(chan error, 1)
	go func() { putDone <- busy.Put("slow/key", []byte("v")) }()
	<-slow.entered // the PUT is now mid-operation server-side

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(2 * time.Second) }()

	if err := <-putDone; err != nil {
		t.Fatalf("in-flight PUT lost during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Dial can succeed against a closing socket on some platforms; a round
	// trip must fail either way.
	if rs, err := Dial(srv.Addr()); err == nil {
		if putErr := rs.Put("x", []byte("y")); putErr == nil {
			t.Fatal("server accepted work after drain")
		}
		rs.Close()
	}
}

// TestServerDrainDeadline proves a request stuck past the deadline is
// force-closed rather than holding shutdown forever.
func TestServerDrainDeadline(t *testing.T) {
	stuck := newSlowStore(5 * time.Second)
	srv, err := Serve("127.0.0.1:0", stuck)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	go rs.Put("stuck/key", []byte("v"))
	<-stuck.entered

	start := time.Now()
	done := make(chan struct{})
	go func() { srv.Drain(50 * time.Millisecond); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("drain did not force-close a stuck connection")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v, deadline was 50ms", elapsed)
	}
}

// gateStore holds every Put until the gate opens, announcing each one as it
// enters, so a test can keep a known number of requests — and with them
// pooled connections — in flight at once.
type gateStore struct {
	Store
	entered chan struct{}
	gate    chan struct{}
}

func newGateStore() *gateStore {
	return &gateStore{Store: NewMemStore(), entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (s *gateStore) Put(key string, data []byte) error {
	s.entered <- struct{}{}
	<-s.gate
	return s.Store.Put(key, data)
}

// countingDialer dials addr and keeps count of the connections it made and
// of those still open.
type countingDialer struct {
	addr              string
	dials, live, peak atomic.Int64
}

func (d *countingDialer) dial() (net.Conn, error) {
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	n := d.live.Add(1)
	for p := d.peak.Load(); n > p && !d.peak.CompareAndSwap(p, n); p = d.peak.Load() {
	}
	return &countedConn{Conn: c, d: d}, nil
}

type countedConn struct {
	net.Conn
	d    *countingDialer
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.d.live.Add(-1) })
	return c.Conn.Close()
}

// fillPool leaves n connections idle in cli's pool: n PUTs held in the server
// at once each need a connection of their own.
func fillPool(t *testing.T, cli *RemoteStore, gs *gateStore, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := cli.Put(fmt.Sprintf("fill/%d", i), []byte("v")); err != nil {
				t.Errorf("fill put: %v", err)
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-gs.entered
	}
	close(gs.gate)
	wg.Wait()
	cli.mu.Lock()
	idle := len(cli.idle)
	cli.mu.Unlock()
	if idle != n {
		t.Fatalf("%d connections idle after %d concurrent PUTs", idle, n)
	}
}

// TestRemoteStoreRedialsAfterServerRestart: a storage daemon that closes or
// drains and comes back on the same address costs a client at most one
// failed call. The connection that failed is dropped, and the idle ones with
// it — they reach the same peer — so the next call dials the new server
// rather than finding another dead connection.
func TestRemoteStoreRedialsAfterServerRestart(t *testing.T) {
	for _, stop := range []struct {
		name string
		stop func(*Server) error
	}{
		{"Close", (*Server).Close},
		{"Drain", func(s *Server) error { return s.Drain(time.Second) }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			gs := newGateStore()
			srv, err := Serve("127.0.0.1:0", gs)
			if err != nil {
				t.Fatal(err)
			}
			addr := srv.Addr()
			cli, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			fillPool(t, cli, gs, 4)
			if err := stop.stop(srv); err != nil {
				t.Fatal(err)
			}
			mem := NewMemStore()
			srv, err = Serve(addr, mem)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			failed := 0
			for i := 0; i < 6; i++ {
				if err := cli.Put("k", []byte("after restart")); err != nil {
					if failed++; failed > 1 {
						t.Fatalf("call %d failed too: %v", i, err)
					}
				}
			}
			if got, err := mem.Get("k"); err != nil || string(got) != "after restart" {
				t.Fatalf("the restarted server holds %q, %v", got, err)
			}
		})
	}
}

// TestRemoteStoreConcurrentCallers shares one client among 16 goroutines,
// each running every kind of round trip on keys of its own and checking every
// byte, while the pool stays within maxConns connections.
func TestRemoteStoreConcurrentCallers(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := &countingDialer{addr: srv.Addr()}
	cli := newRemoteStore(d.dial)
	defer cli.Close()

	const callers, rounds = 16, 20
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, 0, 64<<10)
			for i := 0; i < rounds; i++ {
				body := bytes.Repeat([]byte{byte(g), byte(i)}, 1000*(1+i%8))
				whole := append([]byte{byte(g)}, body...)
				one, two := fmt.Sprintf("c/%d/one/%d", g, i), fmt.Sprintf("c/%d/two/%d", g, i)
				if err := cli.Put(one, whole); err != nil {
					t.Errorf("put %s: %v", one, err)
					return
				}
				if err := cli.PutParts(two, whole[:1], body); err != nil {
					t.Errorf("put parts %s: %v", two, err)
					return
				}
				if got, err := cli.GetAppend(two, dst); err != nil || !bytes.Equal(got, whole) {
					t.Errorf("get append %s: %d bytes, %v", two, len(got), err)
					return
				}
				into := make([]byte, len(whole))
				n, err := cli.GetStream(one, func(n int64, r io.Reader) error {
					_, err := io.ReadFull(r, into)
					return err
				})
				if err != nil || n != int64(len(whole)) || !bytes.Equal(into, whole) {
					t.Errorf("get stream %s: %d bytes, %v", one, n, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if p := d.peak.Load(); p > maxConns {
		t.Fatalf("%d connections open at once, the cap is %d", p, maxConns)
	}
}

// TestRemoteStoreCloseDuringCalls: Close fails the calls in flight instead of
// leaving them hanging on the server, and no call dials after it.
func TestRemoteStoreCloseDuringCalls(t *testing.T) {
	gs := newGateStore()
	srv, err := Serve("127.0.0.1:0", gs)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(gs.gate)
	d := &countingDialer{addr: srv.Addr()}
	cli := newRemoteStore(d.dial)

	const inflight = 4
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) { errs <- cli.Put(fmt.Sprintf("held/%d", i), []byte("v")) }(i)
	}
	for i := 0; i < inflight; i++ {
		<-gs.entered
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inflight; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call in flight at Close succeeded")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a call in flight at Close hangs")
		}
	}
	dials := d.dials.Load()
	if err := cli.Put("after", []byte("v")); err == nil {
		t.Fatal("a call after Close succeeded")
	}
	if _, err := cli.GetStream("after", func(int64, io.Reader) error { return nil }); err == nil {
		t.Fatal("a streamed get after Close succeeded")
	}
	if d.dials.Load() != dials || d.live.Load() != 0 {
		t.Fatalf("after Close: %d dials (was %d), %d connections open", d.dials.Load(), dials, d.live.Load())
	}
}

// slowStore delays every Put and signals entry, so tests can interleave a
// drain with an in-flight request deterministically.
type slowStore struct {
	Store
	delay   time.Duration
	entered chan struct{}
	n       atomic.Int64
}

func newSlowStore(delay time.Duration) *slowStore {
	return &slowStore{Store: NewMemStore(), delay: delay, entered: make(chan struct{}, 16)}
}

func (s *slowStore) Put(key string, data []byte) error {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	time.Sleep(s.delay)
	s.n.Add(1)
	return s.Store.Put(key, data)
}
