// Package endpoint is the one TCP shell under the three process boundaries
// of the paper's Fig. 1: host <-> storage (internal/storage, binary frames),
// driver <-> worker (internal/remoteexec, gob) and client <-> offload daemon
// (internal/serve, gob). A Server owns the listener, the accept loop, the
// connection registry and the shutdown rule; each protocol supplies only
// the function that serves one connection. The gob request/response pair
// both control planes speak lives in gob.go.
package endpoint

import (
	"net"
	"sync"
	"time"
)

// Server accepts TCP connections and serves each on its own goroutine.
type Server struct {
	ln    net.Listener
	serve func(*Conn)

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool
	wg     sync.WaitGroup // the accept loop and every serve call
}

// Conn is one accepted connection. Its serve function brackets every
// request with Begin and End, so a shutdown can tell a connection parked
// between requests from one that still owes its peer a response.
type Conn struct {
	net.Conn
	srv  *Server
	busy bool // guarded by srv.mu
}

// Listen starts a server on addr (e.g. "127.0.0.1:0"). It returns once the
// listener is ready; serve runs once per connection, which is closed when
// serve returns.
func Listen(addr string, serve func(*Conn)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, serve: serve, conns: make(map[*Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the listener address, usable by clients.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &Conn{Conn: nc, srv: s}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serve(c)
			nc.Close()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Begin marks c as mid-request. The blocking wait for a request happens
// with the mark unset, and the mark is set only once a request has begun
// (its first byte read, or its frame decoded), so a shutdown closes a parked
// connection without cutting a response off. It reports false when the
// server is shutting down: the request is dropped and serve must return.
func (c *Conn) Begin() bool {
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	c.busy = !c.srv.closed
	return c.busy
}

// End clears the mark once the response is written. It reports false when
// the server is shutting down and serve must return.
func (c *Conn) End() bool {
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	c.busy = false
	return !c.srv.closed
}

// Drain shuts the server down gracefully: the listener closes first (no new
// connections), idle connections are torn down at once, and connections
// mid-request get until the timeout to finish their current request and
// write its response. Connections still busy past it are force-closed and
// their serve calls abandoned — a request stuck inside a store, a kernel or
// a job queue cannot be interrupted, and shutdown must not hang on it.
// After a fully graceful drain every serve call has returned.
func (s *Server) Drain(timeout time.Duration) error {
	err := s.ln.Close()
	s.mu.Lock()
	s.closed = true // from here no connection becomes busy
	for c := range s.conns {
		if !c.busy {
			c.Conn.Close()
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-done:
	case <-deadline.C:
		// The stragglers notice on their next read or write.
		s.mu.Lock()
		for c := range s.conns {
			c.Conn.Close()
		}
		s.mu.Unlock()
	}
	return err
}

// Close tears the server down at once, requests in flight included: a
// drain with no grace.
func (s *Server) Close() error { return s.Drain(0) }
