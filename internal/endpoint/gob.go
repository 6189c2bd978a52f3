package endpoint

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sync"
)

// The two control planes speak plain gob over a persistent connection: one
// encoder and one decoder per direction for the connection's lifetime (gob
// sends a type's description once per stream), one request answered by one
// response, nothing around the gob stream itself.

// ErrFrameTooLarge is the read error of a gob message that needs more than
// its byte budget.
var ErrFrameTooLarge = errors.New("endpoint: frame exceeds its byte budget")

// budget lets one Decode call take at most n bytes off the connection, so a
// frame is bounded where it is read, before any of it is decoded. Reads are
// cut short rather than failed, so bytes read ahead for the next message
// never trip it. (gob itself allocates a message's buffer in pieces as its
// bytes arrive, so a length prefix alone cannot claim the whole budget.)
type budget struct {
	r io.Reader
	n int64
}

func (b *budget) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, ErrFrameTooLarge
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.r.Read(p)
	b.n -= int64(n)
	return n, err
}

// ServeGob is the serve function of a gob endpoint: it answers each Req on
// c with handle's Resp until the peer goes away, sends garbage or a request
// of more than limit bytes, or the server shuts down.
func ServeGob[Req, Resp any](c *Conn, limit int64, handle func(*Req) *Resp) {
	in := &budget{r: c}
	dec, enc := gob.NewDecoder(in), gob.NewEncoder(c)
	for {
		var req Req
		in.n = limit
		if dec.Decode(&req) != nil || !c.Begin() {
			return
		}
		err := enc.Encode(handle(&req))
		if !c.End() || err != nil {
			return
		}
	}
}

// TransportError is a round trip that failed on the connection — the peer
// is gone, or sent garbage or too much — as opposed to an error the peer
// reported inside a well-formed response.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// Client is the calling side of ServeGob. Safe for concurrent use; round
// trips serialize on the one connection.
type Client[Req, Resp any] struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	in   budget
}

// Dial connects to a gob endpoint.
func Dial[Req, Resp any](addr string) (*Client[Req, Resp], error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client[Req, Resp]{conn: conn, enc: gob.NewEncoder(conn)}
	c.in.r = conn
	c.dec = gob.NewDecoder(&c.in)
	return c, nil
}

// Close tears down the connection.
func (c *Client[Req, Resp]) Close() error { return c.conn.Close() }

// RoundTrip sends req and waits for its response, which may take at most
// limit bytes. Every error it returns is a *TransportError.
func (c *Client[Req, Resp]) RoundTrip(req *Req, limit int64) (*Resp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return nil, &TransportError{err}
	}
	c.in.n = limit
	resp := new(Resp)
	if err := c.dec.Decode(resp); err != nil {
		return nil, &TransportError{err}
	}
	return resp, nil
}
