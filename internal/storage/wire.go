package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"ompcloud/internal/arena"
	"ompcloud/internal/endpoint"
)

// The remote store speaks a minimal S3-flavoured binary protocol over TCP.
// Each request is:
//
//	op byte | key length uint32 | key bytes | (PUT only) body length uint64 | body
//
// and each response is:
//
//	status byte | payload length uint64 | payload
//
// where the payload is the object body (GET), the decimal size (STAT), a
// newline-joined key list (LIST), an error message (status=err), or empty.
const (
	opPut byte = iota + 1
	opGet
	opDelete
	opList
	opStat
)

const (
	statusOK byte = iota
	statusNotFound
	statusError
)

// maxObjectSize bounds a single object to keep a malicious or buggy peer
// from forcing unbounded allocations. 4 GiB covers the paper's ~1 GB
// matrices with headroom.
const maxObjectSize = 4 << 30

// maxKeySize bounds the key field.
const maxKeySize = 4096

// Headers are built in scratch that outlives the message — the server's
// bufio.Writer spare buffer, a client connection's own header buffer — and
// parsed out of the bufio.Reader's (a scratch array handed to Read or Write
// escapes to the heap), so a request or a response costs no allocation
// beyond its payload. The server flushes after each message, which is why
// its spare buffer always has room for a header.

func writeFrame(w *bufio.Writer, status byte, payload []byte) error {
	hdr := append(w.AvailableBuffer(), status)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readUint reads a big-endian unsigned integer of size bytes.
func readUint(r *bufio.Reader, size int) (uint64, error) {
	b, err := r.Peek(size)
	if err != nil {
		return 0, err
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	_, err = r.Discard(size)
	return v, err
}

// eagerAllocMax is the largest declared length allocated in one exact piece
// before any of its bytes arrive. A chunk frame is at most ~1.13 MiB, so the
// hot path stays one allocation; beyond it a buffer grows only as fast as
// the peer actually sends, and an 8-byte header can no longer claim 4 GiB.
const eagerAllocMax = 4 << 20

// readBody appends the next n bytes of r to dst and returns the extended
// slice, reading straight into dst's spare capacity when it has enough. On
// error dst comes back unmodified (its spare capacity may be scribbled).
func readBody(r io.Reader, dst []byte, n uint64) ([]byte, error) {
	out := dst
	for rem := n; rem > 0; {
		if len(out) == cap(out) {
			// Exact when small enough to trust the header; otherwise double
			// what has arrived, ending on exactly the declared length.
			step := rem
			if step > eagerAllocMax {
				step = min(rem, max(eagerAllocMax, uint64(len(out)-len(dst))))
			}
			grown := make([]byte, len(out), uint64(len(out))+step)
			copy(grown, out)
			out = grown
		}
		m := int(min(rem, uint64(cap(out)-len(out))))
		if _, err := io.ReadFull(r, out[len(out):len(out)+m]); err != nil {
			return dst, err
		}
		out = out[:len(out)+m]
		rem -= uint64(m)
	}
	return out, nil
}

// readFrameHeader reads a response's status and payload length.
func readFrameHeader(r *bufio.Reader) (status byte, n uint64, err error) {
	status, err = r.ReadByte()
	if err != nil {
		return 0, 0, err
	}
	if n, err = readUint(r, 8); err != nil {
		return 0, 0, err
	}
	if n > maxObjectSize {
		return 0, 0, fmt.Errorf("storage: frame of %d bytes exceeds limit", n)
	}
	return status, n, nil
}

// Server exposes a Store over TCP. It is the network face of the simulated
// S3/HDFS service (cmd/ompcloud-storaged) and of the distributed examples.
// The listener, the connection registry and shutdown are endpoint.Server's.
type Server struct {
	store Store
	ep    *endpoint.Server
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") backed by store. It
// returns once the listener is ready; connections are handled on background
// goroutines until Close.
func Serve(addr string, store Store) (*Server, error) {
	s := &Server{store: store}
	ep, err := endpoint.Listen(addr, s.serveConn)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	s.ep = ep
	return s, nil
}

// Addr reports the listener address, usable by clients.
func (s *Server) Addr() string { return s.ep.Addr() }

// Close stops the listener and tears down open connections immediately,
// mid-request included. Prefer Drain for a graceful shutdown.
func (s *Server) Close() error { return s.ep.Close() }

// Drain shuts the server down gracefully (endpoint.Server.Drain): no new
// connections, idle ones closed at once, and a connection mid-request gets
// until the timeout to finish its operation and receive its response.
func (s *Server) Drain(timeout time.Duration) error { return s.ep.Drain(timeout) }

// connBufs is the 64 KiB reader and writer a served connection frames its
// requests and replies through. Each connection draws the pair from
// connBufPool and gives it back when it closes: a client dials a connection
// per concurrent round trip, and a server that lives for one region sees
// all of them new, so fresh pairs were most of what a region allocated.
type connBufs struct {
	r *bufio.Reader
	w *bufio.Writer
}

var connBufPool = arena.Pool[connBufs]{New: func() *connBufs {
	return &connBufs{r: bufio.NewReaderSize(nil, 1<<16), w: bufio.NewWriterSize(nil, 1<<16)}
}}

func (s *Server) serveConn(c *endpoint.Conn) {
	bufs := connBufPool.Get()
	r, w := bufs.r, bufs.w
	r.Reset(c)
	w.Reset(c)
	defer func() {
		r.Reset(nil)
		w.Reset(nil)
		connBufPool.Put(bufs)
	}()
	for {
		// A request has begun once its op byte is in.
		op, err := r.ReadByte()
		if err != nil || !c.Begin() {
			return
		}
		err = s.serveOne(op, r, w)
		if !c.End() || err != nil {
			return
		}
	}
}

func (s *Server) serveOne(op byte, r *bufio.Reader, w *bufio.Writer) error {
	n, err := readUint(r, 4)
	if err != nil {
		return err
	}
	if n > maxKeySize {
		return fmt.Errorf("storage: oversized key")
	}
	keyBuf, err := r.Peek(int(n))
	if err != nil {
		return err
	}
	key := string(keyBuf)
	if _, err := r.Discard(int(n)); err != nil {
		return err
	}

	reply := func(status byte, payload []byte) error { return writeFrame(w, status, payload) }
	fail := func(err error) error {
		if errors.Is(err, ErrNotFound) {
			return reply(statusNotFound, nil)
		}
		return reply(statusError, []byte(err.Error()))
	}

	switch op {
	case opPut:
		bn, err := readUint(r, 8)
		if err != nil {
			return err
		}
		if bn > maxObjectSize {
			return fmt.Errorf("storage: oversized object")
		}
		// A body of an arena size is read into arena memory, which the
		// socket read overwrites whole.
		var dst []byte
		if inArena(bn) {
			dst = arena.Get(int(bn))[:0]
		}
		body, err := readBody(r, dst, bn)
		if err != nil {
			arena.Put(dst)
			return err
		}
		// Nobody else holds body: the store may keep it as the object.
		if err := putOwned(s.store, key, body); err != nil {
			return fail(err)
		}
		return reply(statusOK, nil)
	case opGet:
		// Written to the socket and dropped, never modified: the stored
		// object itself will do, held until the reply is written.
		obj, err := getShared(s.store, key)
		if err != nil {
			return fail(err)
		}
		err = reply(statusOK, obj.data)
		obj.release()
		return err
	case opDelete:
		if err := s.store.Delete(key); err != nil {
			return fail(err)
		}
		return reply(statusOK, nil)
	case opList:
		keys, err := s.store.List(key)
		if err != nil {
			return fail(err)
		}
		return reply(statusOK, []byte(strings.Join(keys, "\n")))
	case opStat:
		size, err := s.store.Stat(key)
		if err != nil {
			return fail(err)
		}
		return reply(statusOK, binary.BigEndian.AppendUint64(nil, uint64(size)))
	default:
		return fmt.Errorf("storage: unknown op %d", op)
	}
}

// maxConns caps the connections one RemoteStore keeps open. The chunk engine
// runs a worker per core on every buffer a region moves, and each worker's
// round trip gets a connection of its own, as S3 serves each of the paper's
// transmission threads (§III.A); past the cap a call waits for one to come
// back.
const maxConns = 8

// errClosed is what a call on a closed RemoteStore returns.
var errClosed = errors.New("storage: client closed")

// RemoteStore is a Store client for a Server. It keeps a pool of up to
// maxConns connections, dialed on demand and reused while idle; a round trip
// holds one connection from request to response. A connection that saw a
// transport or framing error is closed, and the idle ones go with it: they
// reach the same peer, which may have restarted or drained, and the next
// call dials afresh.
type RemoteStore struct {
	dial func() (net.Conn, error)

	mu      sync.Mutex
	cond    sync.Cond   // a connection went idle, a slot freed, or Close
	open    []*wireConn // every live connection, idle or in use
	idle    []*wireConn
	dialing int // slots taken by dials in progress
	closed  bool
}

// wireConn is one pooled connection and the scratch its requests reuse, so
// a round trip allocates nothing beyond its payload.
type wireConn struct {
	net.Conn
	// The client reader only ever buffers response headers and small
	// payloads: a large payload is read past it, straight into its
	// destination, so it keeps bufio's default size. What arrived along
	// with a header is the one part of a payload it copies.
	r   *bufio.Reader
	hdr []byte    // a request header: op, key length, key, body length
	iov [3][]byte // header, head, body of one request
	// bufs is iov as writev's argument. Writing consumes it, so every
	// request slices it from iov afresh.
	bufs net.Buffers
	body payload // a streamed get's reader
	// broken marks a transport or framing error: the connection is out of
	// frame and goes when it is released.
	broken bool
}

func newWireConn(conn net.Conn) *wireConn {
	wc := &wireConn{Conn: conn, r: bufio.NewReader(conn), hdr: make([]byte, 0, 1+4+maxKeySize+8)}
	wc.body.r = wc.r
	return wc
}

// fail marks wc broken and wraps the error that broke it.
func (wc *wireConn) fail(err error) error {
	wc.broken = true
	return fmt.Errorf("storage: %w", err)
}

// send writes one request — the header, then head and body straight from
// the caller's memory in one writev — and reads the response's header. It
// returns an OK reply's payload length, which the caller reads off next. A
// non-OK reply becomes the error it carries, its payload read off so the
// connection stays in frame.
func (wc *wireConn) send(op byte, key string, head, body []byte) (uint64, error) {
	hdr := append(wc.hdr[:0], op)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(key)))
	hdr = append(hdr, key...)
	if op == opPut {
		hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(head)+len(body)))
	}
	wc.iov = [3][]byte{hdr, head, body}
	wc.bufs = wc.iov[:]
	_, err := wc.bufs.WriteTo(wc.Conn)
	wc.iov = [3][]byte{} // hold no caller memory past the call
	if err != nil {
		return 0, wc.fail(err)
	}
	status, n, err := readFrameHeader(wc.r)
	if err != nil {
		return 0, wc.fail(err)
	}
	if status == statusOK {
		return n, nil
	}
	msg, err := readBody(wc.r, nil, n)
	if err != nil {
		return 0, wc.fail(err)
	}
	if status == statusNotFound {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return 0, fmt.Errorf("storage: server error: %s", msg)
}

// payload reads one response payload for a streamed get, never past its
// end, so the connection stays in frame for the next request.
type payload struct {
	r    *bufio.Reader
	left uint64
	err  error // the first transport error: the connection is out of frame
}

func (p *payload) Read(b []byte) (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	if p.left == 0 {
		return 0, io.EOF
	}
	if uint64(len(b)) > p.left {
		b = b[:p.left]
	}
	n, err := p.r.Read(b)
	p.left -= uint64(n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		p.err = err
	}
	return n, err
}

// finish reads off whatever of the payload its consumer left unread.
func (p *payload) finish() error {
	for p.err == nil && p.left > 0 {
		n, err := p.r.Discard(int(min(p.left, 1<<30)))
		p.left -= uint64(n)
		p.err = err
	}
	return p.err
}

// Dial connects to a storage server. The first connection is dialed here,
// so an unreachable server fails the call; it then waits in the pool.
func Dial(addr string) (*RemoteStore, error) {
	c := newRemoteStore(func() (net.Conn, error) { return net.Dial("tcp", addr) })
	wc, err := c.acquire()
	if err != nil {
		return nil, err
	}
	c.release(wc)
	return c, nil
}

func newRemoteStore(dial func() (net.Conn, error)) *RemoteStore {
	c := &RemoteStore{dial: dial}
	c.cond.L = &c.mu
	return c
}

// acquire hands out an idle connection, or dials one while fewer than
// maxConns are open, or waits for either.
func (c *RemoteStore) acquire() (*wireConn, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, errClosed
		}
		if n := len(c.idle); n > 0 {
			wc := c.idle[n-1]
			c.idle = c.idle[:n-1]
			c.mu.Unlock()
			return wc, nil
		}
		if len(c.open)+c.dialing < maxConns {
			break
		}
		c.cond.Wait()
	}
	c.dialing++
	c.mu.Unlock()
	conn, err := c.dial()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dialing--
	if err == nil && c.closed {
		conn.Close() // dialed while Close ran; it reaches no caller
		return nil, errClosed
	}
	if err != nil {
		c.cond.Broadcast() // the slot is free again
		return nil, fmt.Errorf("storage: %w", err)
	}
	wc := newWireConn(conn)
	c.open = append(c.open, wc)
	return wc, nil
}

// release returns wc to the pool, or closes it — and every idle connection
// with it — when a call left it broken.
func (c *RemoteStore) release(wc *wireConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed: // Close has closed it
	case wc.broken:
		c.drop(wc)
		for _, ic := range c.idle {
			c.drop(ic)
		}
		c.idle = c.idle[:0]
	default:
		c.idle = append(c.idle, wc)
	}
	c.cond.Broadcast()
}

// drop closes wc and forgets it; the caller holds c.mu.
func (c *RemoteStore) drop(wc *wireConn) {
	wc.Close()
	for i, oc := range c.open {
		if oc == wc {
			c.open = append(c.open[:i], c.open[i+1:]...)
			return
		}
	}
}

// Close closes every connection, idle or mid-call — a call in flight returns
// an error — and fails every later call without dialing.
func (c *RemoteStore) Close() error {
	c.mu.Lock()
	open := c.open
	c.open, c.idle, c.closed = nil, nil, true
	c.cond.Broadcast()
	c.mu.Unlock()
	var err error
	for _, wc := range open {
		if cerr := wc.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// checkKey applies the key rules before a request reaches the pool.
func checkKey(op byte, key string) error {
	if err := validKey(key); err != nil && op != opList { // List takes a prefix, possibly empty
		return err
	}
	if len(key) > maxKeySize {
		return fmt.Errorf("storage: key too long")
	}
	return nil
}

// roundTrip sends one request — a PUT's object is head followed by body —
// and appends the reply's payload to dst. On any error — local, transport
// or a non-OK status — it returns dst unmodified.
func (c *RemoteStore) roundTrip(op byte, key string, head, body, dst []byte) ([]byte, error) {
	if err := checkKey(op, key); err != nil {
		return dst, err
	}
	wc, err := c.acquire()
	if err != nil {
		return dst, err
	}
	defer c.release(wc)
	n, err := wc.send(op, key, head, body)
	if err != nil {
		return dst, err
	}
	out, err := readBody(wc.r, dst, n) // dst itself on error
	if err != nil {
		return dst, wc.fail(err)
	}
	return out, nil
}

// Put implements Store. The object goes from data straight to the socket.
func (c *RemoteStore) Put(key string, data []byte) error {
	_, err := c.roundTrip(opPut, key, data, nil, nil)
	return err
}

// PutParts implements PartsPutter: head and body go to the socket back to
// back, behind one header, with no copy of either.
func (c *RemoteStore) PutParts(key string, head, body []byte) error {
	_, err := c.roundTrip(opPut, key, head, body, nil)
	return err
}

// Get implements Store.
func (c *RemoteStore) Get(key string) ([]byte, error) {
	return c.roundTrip(opGet, key, nil, nil, nil)
}

// GetAppend implements AppendGetter: the payload is read off the socket
// straight into dst's spare capacity, so a caller with a pooled buffer
// (chunkio's wire-buffer pool) fetches a chunk without allocating.
func (c *RemoteStore) GetAppend(key string, dst []byte) ([]byte, error) {
	return c.roundTrip(opGet, key, nil, nil, dst)
}

// GetStream implements StreamGetter: fn reads the payload off the
// connection while the call holds it, so it can land anywhere — a chunk's
// raw bytes, straight in their destination window. What fn leaves unread
// is read off after it returns.
func (c *RemoteStore) GetStream(key string, fn func(size int64, r io.Reader) error) (int64, error) {
	if err := checkKey(opGet, key); err != nil {
		return 0, err
	}
	wc, err := c.acquire()
	if err != nil {
		return 0, err
	}
	defer c.release(wc)
	n, err := wc.send(opGet, key, nil, nil)
	if err != nil {
		return 0, err
	}
	wc.body.left, wc.body.err = n, nil
	err = fn(int64(n), &wc.body)
	if ferr := wc.body.finish(); ferr != nil {
		ferr = wc.fail(ferr)
		if err == nil {
			err = ferr
		}
	}
	return int64(n), err
}

// Delete implements Store.
func (c *RemoteStore) Delete(key string) error {
	_, err := c.roundTrip(opDelete, key, nil, nil, nil)
	return err
}

// List implements Store.
func (c *RemoteStore) List(prefix string) ([]string, error) {
	payload, err := c.roundTrip(opList, prefix, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		return nil, nil // no keys, not one empty key
	}
	return strings.Split(string(payload), "\n"), nil
}

// Stat implements Store.
func (c *RemoteStore) Stat(key string) (int64, error) {
	payload, err := c.roundTrip(opStat, key, nil, nil, nil)
	if err != nil {
		return 0, err
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("storage: malformed stat response")
	}
	return int64(binary.BigEndian.Uint64(payload)), nil
}

var (
	_ Store        = (*RemoteStore)(nil)
	_ PartsPutter  = (*RemoteStore)(nil)
	_ StreamGetter = (*RemoteStore)(nil)
)
