package endpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer speaks a one-byte protocol: a request byte b is answered with
// b once release[b] is closed (at once when there is no such gate).
// entered receives b when its request has begun.
func echoServer(t *testing.T, release map[byte]chan struct{}) (s *Server, entered chan byte, returned *atomic.Int64) {
	t.Helper()
	entered = make(chan byte, 8)
	returned = new(atomic.Int64)
	s, err := Listen("127.0.0.1:0", func(c *Conn) {
		defer returned.Add(1)
		var b [1]byte
		for {
			if _, err := io.ReadFull(c, b[:]); err != nil || !c.Begin() {
				return
			}
			entered <- b[0]
			if gate := release[b[0]]; gate != nil {
				<-gate
			}
			_, err := c.Write(b[:])
			if !c.End() || err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, entered, returned
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c
}

// TestDrain is the drain rule, once for every server built on the shell:
// an idle connection is closed at once, a busy one inside the deadline gets
// its response, one still busy past it is force-closed and its serve call
// abandoned, and no connection is accepted afterwards.
func TestDrain(t *testing.T) {
	release := map[byte]chan struct{}{'q': make(chan struct{}), 's': make(chan struct{})}
	s, entered, returned := echoServer(t, release)

	idle := dialRaw(t, s.Addr())
	idle.Write([]byte{'i'}) // one whole round trip, then parked between requests
	if _, err := io.ReadFull(idle, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	<-entered
	quick := dialRaw(t, s.Addr()) // busy, finishes inside the deadline
	quick.Write([]byte{'q'})
	<-entered
	stuck := dialRaw(t, s.Addr()) // busy, never finishes
	stuck.Write([]byte{'s'})
	<-entered

	const grace = 300 * time.Millisecond
	start := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(grace) }()

	// The idle connection goes first, while both busy ones are still held.
	if _, err := idle.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection: read %v, want EOF", err)
	}
	if time.Since(start) >= grace {
		t.Fatal("idle connection was held until the deadline")
	}
	close(release['q'])
	got := make([]byte, 1)
	if _, err := io.ReadFull(quick, got); err != nil || got[0] != 'q' {
		t.Fatalf("busy connection lost its response: %q, %v", got, err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < grace || el > 5*time.Second {
		t.Fatalf("drain with a stuck request returned after %v, deadline %v", el, grace)
	}
	if _, err := stuck.Read(got); err == nil {
		t.Fatal("stuck connection answered after being force-closed")
	}
	if n := returned.Load(); n != 2 {
		t.Fatalf("%d serve calls returned, want the idle and the quick one", n)
	}
	if c, err := net.Dial("tcp", s.Addr()); err == nil {
		c.SetDeadline(time.Now().Add(5 * time.Second))
		c.Write([]byte{'x'})
		if _, err := c.Read(got); err == nil {
			t.Fatal("server answered a connection made after the drain")
		}
		c.Close()
	}
	close(release['s']) // the abandoned serve call ends on its dead socket
	for deadline := time.Now().Add(5 * time.Second); returned.Load() != 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("abandoned serve call never returned")
		}
	}
}

// A fully graceful drain has waited for every serve call, and Close does
// not hang on one that never returns.
func TestDrainWaitsAndCloseDoesNot(t *testing.T) {
	release := map[byte]chan struct{}{'q': make(chan struct{})}
	s, entered, returned := echoServer(t, release)
	c := dialRaw(t, s.Addr())
	c.Write([]byte{'q'})
	<-entered
	time.AfterFunc(20*time.Millisecond, func() { close(release['q']) })
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if returned.Load() != 1 {
		t.Fatal("a graceful drain returned before its serve call did")
	}

	s, entered, _ = echoServer(t, map[byte]chan struct{}{'s': make(chan struct{})})
	c = dialRaw(t, s.Addr())
	c.Write([]byte{'s'})
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited for a serve call blocked off the socket")
	}
}

type ping struct {
	Seq  int
	Body []byte
}

type pong struct {
	Seq int
	Err string
}

func gobServer(t *testing.T, limit int64, handle func(*ping) *pong) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", func(c *Conn) { ServeGob(c, limit, handle) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestGobRoundTripAndBudgets(t *testing.T) {
	s := gobServer(t, 4096, func(p *ping) *pong {
		if p.Seq < 0 {
			return &pong{Seq: p.Seq, Err: strings.Repeat("e", 8192)}
		}
		return &pong{Seq: p.Seq}
	})
	c, err := Dial[ping, pong](s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for seq := 1; seq <= 3; seq++ { // the first carries the type descriptions
		r, err := c.RoundTrip(&ping{Seq: seq, Body: make([]byte, 3000)}, 4096)
		if err != nil || r.Seq != seq {
			t.Fatalf("round trip %d: %+v, %v", seq, r, err)
		}
	}

	// A response over the caller's budget is a transport failure.
	_, err = c.RoundTrip(&ping{Seq: -1}, 4096)
	var te *TransportError
	if !errors.As(err, &te) || !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized response: %v", err)
	}

	// A request over the server's budget gets the connection closed — and
	// only that connection.
	c2, err := Dial[ping, pong](s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err = c2.RoundTrip(&ping{Seq: 1, Body: make([]byte, 1<<20)}, 4096); !errors.As(err, &te) {
		t.Fatalf("oversized request: %v", err)
	}
	c3, err := Dial[ping, pong](s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if r, err := c3.RoundTrip(&ping{Seq: 9}, 4096); err != nil || r.Seq != 9 {
		t.Fatalf("next connection: %+v, %v", r, err)
	}

	// A peer that has gone away is a transport failure too.
	s.Close()
	if _, err := c3.RoundTrip(&ping{Seq: 10}, 4096); !errors.As(err, &te) {
		t.Fatalf("round trip to a closed server: %v", err)
	}
}

// The stream a Client writes and a ServeGob reads is a bare gob stream: a
// peer holding nothing but encoding/gob on a socket — the parent commit's
// client and server — interoperates in both directions, byte for byte.
func TestGobStreamIsBareGob(t *testing.T) {
	reqs := []ping{{Seq: 1, Body: []byte("one")}, {Seq: 2, Body: []byte("two")}}
	var want bytes.Buffer
	enc := gob.NewEncoder(&want)
	for i := range reqs {
		enc.Encode(&reqs[i])
	}

	// New client, bare peer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var raw bytes.Buffer
		dec, enc := gob.NewDecoder(io.TeeReader(conn, &raw)), gob.NewEncoder(conn)
		for range reqs {
			var p ping
			if dec.Decode(&p) != nil || enc.Encode(&pong{Seq: p.Seq}) != nil {
				break
			}
		}
		sent <- raw.Bytes()
	}()
	c, err := Dial[ping, pong](ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range reqs {
		if r, err := c.RoundTrip(&reqs[i], 4096); err != nil || r.Seq != reqs[i].Seq {
			t.Fatalf("client against a bare gob peer: %+v, %v", r, err)
		}
	}
	if got := <-sent; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("client wrote %d bytes, a bare encoder writes %d:\n%x\n%x", len(got), want.Len(), got, want.Bytes())
	}

	// Bare peer, new server.
	s := gobServer(t, 4096, func(p *ping) *pong { return &pong{Seq: p.Seq} })
	conn := dialRaw(t, s.Addr())
	if _, err := conn.Write(want.Bytes()); err != nil {
		t.Fatal(err)
	}
	var wantResp bytes.Buffer
	enc = gob.NewEncoder(&wantResp)
	for i := range reqs {
		enc.Encode(&pong{Seq: reqs[i].Seq})
	}
	got := make([]byte, wantResp.Len())
	if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, wantResp.Bytes()) {
		t.Fatalf("server wrote %x (%v), a bare encoder writes %x", got, err, wantResp.Bytes())
	}
}
