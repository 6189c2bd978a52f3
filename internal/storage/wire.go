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

// Headers are built in the bufio.Writer's own spare buffer and parsed out of
// the bufio.Reader's (a scratch array handed to Read or Write escapes to the
// heap), so a request or a response costs no allocation beyond its payload.
// Every writer flushes after each message, which is why the spare buffer
// always has room for a header and a maxKeySize key.

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

func (s *Server) serveConn(c *endpoint.Conn) {
	r := bufio.NewReaderSize(c, 1<<16)
	w := bufio.NewWriterSize(c, 1<<16)
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
		body, err := readBody(r, nil, bn)
		if err != nil {
			return err
		}
		// Nobody else holds body: the store may keep it as the object.
		if err := putOwned(s.store, key, body); err != nil {
			return fail(err)
		}
		return reply(statusOK, nil)
	case opGet:
		// Written to the socket and dropped, never modified: the stored
		// object itself will do.
		b, err := getShared(s.store, key)
		if err != nil {
			return fail(err)
		}
		return reply(statusOK, b)
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

// RemoteStore is a Store client for a Server. A single connection is shared
// and request/response pairs are serialized: the offloading plugin dials
// once per device (offload/setup.go), so its transfer goroutines take turns
// on the one stream.
type RemoteStore struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a storage server.
func Dial(addr string) (*RemoteStore, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &RemoteStore{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 1<<16),
		w:    bufio.NewWriterSize(conn, 1<<16),
	}, nil
}

// Close tears down the connection.
func (c *RemoteStore) Close() error { return c.conn.Close() }

// roundTrip sends one request and appends the reply's payload to dst. On
// any error — local, transport or a non-OK status — it returns dst
// unmodified; a non-OK reply's payload is still read off the wire, so the
// connection stays framed for the next request.
func (c *RemoteStore) roundTrip(op byte, key string, body, dst []byte) ([]byte, error) {
	if err := validKey(key); err != nil && op != opList { // List takes a prefix, possibly empty
		return dst, err
	}
	if len(key) > maxKeySize {
		return dst, fmt.Errorf("storage: key too long")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hdr := append(c.w.AvailableBuffer(), op)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(key)))
	hdr = append(hdr, key...)
	if op == opPut {
		hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(body)))
	}
	if _, err := c.w.Write(hdr); err != nil {
		return dst, fmt.Errorf("storage: %w", err)
	}
	if _, err := c.w.Write(body); err != nil { // nil unless a PUT
		return dst, fmt.Errorf("storage: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return dst, fmt.Errorf("storage: %w", err)
	}
	status, n, err := readFrameHeader(c.r)
	if err != nil {
		return dst, fmt.Errorf("storage: %w", err)
	}
	if status != statusOK {
		msg, err := readBody(c.r, nil, n)
		if err != nil {
			return dst, fmt.Errorf("storage: %w", err)
		}
		if status == statusNotFound {
			return dst, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return dst, fmt.Errorf("storage: server error: %s", msg)
	}
	out, err := readBody(c.r, dst, n) // dst itself on error
	if err != nil {
		err = fmt.Errorf("storage: %w", err)
	}
	return out, err
}

// Put implements Store.
func (c *RemoteStore) Put(key string, data []byte) error {
	_, err := c.roundTrip(opPut, key, data, nil)
	return err
}

// Get implements Store.
func (c *RemoteStore) Get(key string) ([]byte, error) {
	return c.roundTrip(opGet, key, nil, nil)
}

// GetAppend implements AppendGetter: the payload is read off the socket
// straight into dst's spare capacity, so a caller with a pooled buffer
// (chunkio's wire-buffer pool) fetches a chunk without allocating.
func (c *RemoteStore) GetAppend(key string, dst []byte) ([]byte, error) {
	return c.roundTrip(opGet, key, nil, dst)
}

// Delete implements Store.
func (c *RemoteStore) Delete(key string) error {
	_, err := c.roundTrip(opDelete, key, nil, nil)
	return err
}

// List implements Store.
func (c *RemoteStore) List(prefix string) ([]string, error) {
	payload, err := c.roundTrip(opList, prefix, nil, nil)
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
	payload, err := c.roundTrip(opStat, key, nil, nil)
	if err != nil {
		return 0, err
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("storage: malformed stat response")
	}
	return int64(binary.BigEndian.Uint64(payload)), nil
}

var _ Store = (*RemoteStore)(nil)
