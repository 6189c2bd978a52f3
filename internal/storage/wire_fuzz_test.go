package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// frame encodes one response frame.
func frame(status byte, payload []byte) []byte {
	b := binary.BigEndian.AppendUint64([]byte{status}, uint64(len(payload)))
	return append(b, payload...)
}

// request encodes one request.
func request(op byte, key string, body []byte) []byte {
	b := binary.BigEndian.AppendUint32([]byte{op}, uint32(len(key)))
	b = append(b, key...)
	if op == opPut {
		b = append(binary.BigEndian.AppendUint64(b, uint64(len(body))), body...)
	}
	return b
}

// nextFrame is the fuzzers' own reading of the response format: the first
// frame of b and what follows it, or ok=false when b does not hold a whole
// frame within the size limit.
func nextFrame(b []byte) (status byte, payload, rest []byte, ok bool) {
	if len(b) < 9 {
		return 0, nil, nil, false
	}
	n := binary.BigEndian.Uint64(b[1:9])
	if n > maxObjectSize || uint64(len(b)-9) < n {
		return 0, nil, nil, false
	}
	return b[0], b[9 : 9+n], b[9+n:], true
}

// fuzzRequest is one request of a fuzzed connection's input.
type fuzzRequest struct {
	op   byte
	key  string
	body []byte
}

// parseRequests is the fuzzer's own reading of the request format: the whole
// requests at the head of b, up to the first the server cannot frame.
func parseRequests(b []byte) []fuzzRequest {
	var reqs []fuzzRequest
	for len(b) >= 5 {
		n := binary.BigEndian.Uint32(b[1:5])
		if n > maxKeySize || uint64(len(b)-5) < uint64(n) {
			break
		}
		req := fuzzRequest{op: b[0], key: string(b[5 : 5+n])}
		b = b[5+n:]
		if req.op == opPut {
			if len(b) < 8 {
				break
			}
			bn := binary.BigEndian.Uint64(b)
			if bn > maxObjectSize || uint64(len(b)-8) < bn {
				break
			}
			req.body, b = b[8:8+bn], b[8+bn:]
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// FuzzServeOne feeds arbitrary bytes to the server's request decoder as one
// connection's input. Whatever arrives, the server must not panic, must not
// allocate or retain more than a small multiple of what it was sent (plus
// one eagerly allocated block), and must leave behind only whole response
// frames: a connection either answers in frame or closes. Every GET reply
// holds what a model of the last successful PUT and DELETE per key says,
// so an object overwritten or deleted — whose bytes go back to the arena —
// never shows through a later reply. An input that opens with a whole List
// request is also served by a disk store whose root has a file beside it:
// whatever the prefix, the reply names only keys in the store.
func FuzzServeOne(f *testing.F) {
	f.Add(request(opPut, "k", []byte("body")))
	f.Add(append(request(opPut, "a/b", []byte("v1")), request(opGet, "a/b", nil)...))
	f.Add(append(request(opGet, "missing", nil), request(opStat, "missing", nil)...))
	f.Add(append(request(opList, "", nil), request(opDelete, "k", nil)...))
	f.Add(request(opGet, "../escape", nil))
	f.Add(request(opList, "k/", nil))
	f.Add(request(opList, "../", nil))
	f.Add(request(opList, "../../../../", nil))
	f.Add(request(opList, "k/../../", nil))
	f.Add(request(opList, "/", nil))
	f.Add(request(9, "k", nil))                                               // unknown op
	f.Add(request(opPut, "k", nil)[:7])                                       // cut inside the header
	f.Add(binary.BigEndian.AppendUint32([]byte{opGet}, maxKeySize+1))         // oversized key
	f.Add(binary.BigEndian.AppendUint64(request(opGet, "k", nil)[:6], 1<<40)) // PUT-shaped tail on a GET
	huge := request(opPut, "k", nil)
	binary.BigEndian.PutUint64(huge[len(huge)-8:], maxObjectSize) // 4 GiB declared, 3 bytes sent
	f.Add(append(huge, "abc"...))
	large := request(opPut, "k", nil)
	binary.BigEndian.PutUint64(large[len(large)-8:], eagerAllocMax+1) // past the eager threshold, cut short
	f.Add(append(large, make([]byte, 100)...))
	join := func(reqs ...[]byte) []byte { return bytes.Join(reqs, nil) }
	f.Add(join(request(opPut, "k", []byte("v1")), request(opPut, "k", []byte("second")), request(opGet, "k", nil),
		request(opDelete, "k", nil), request(opGet, "k", nil), request(opPut, "k", []byte("v3")), request(opGet, "k", nil)))
	big := func(v byte) []byte { return bytes.Repeat([]byte{v}, objectMin) } // arena objects
	f.Add(join(request(opPut, "a/k", big(1)), request(opGet, "a/k", nil), request(opPut, "a/k", big(2)),
		request(opGet, "a/k", nil), request(opDelete, "a/k", nil), request(opPut, "b", big(3)), request(opGet, "a/k", nil),
		request(opGet, "b", nil)))

	base := f.TempDir()
	if err := os.WriteFile(filepath.Join(base, "outside"), []byte{1}, 0o644); err != nil {
		f.Fatal(err)
	}
	disk, err := NewDiskStore(filepath.Join(base, "store"))
	if err != nil {
		f.Fatal(err)
	}
	if err := disk.Put("k/v", []byte{1}); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) >= 5 && in[0] == opList && uint64(len(in)-5) >= uint64(binary.BigEndian.Uint32(in[1:5])) {
			prefix := string(in[5 : 5+binary.BigEndian.Uint32(in[1:5])])
			var out bytes.Buffer
			w := bufio.NewWriter(&out)
			if err := (&Server{store: disk}).serveOne(opList, bufio.NewReader(bytes.NewReader(in[1:])), w); err == nil {
				w.Flush()
			}
			if status, payload, _, ok := nextFrame(out.Bytes()); ok && status == statusOK && len(payload) > 0 {
				if keys := strings.Split(string(payload), "\n"); len(keys) != 1 || keys[0] != "k/v" || !strings.HasPrefix(keys[0], prefix) {
					t.Fatalf("List(%q) on disk = %q, want only the store's own keys under the prefix", prefix, keys)
				}
			}
		}
		mem := NewMemStore()
		s := &Server{store: mem}
		r := bufio.NewReader(bytes.NewReader(in))
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		allocated := totalAlloc(func() {
			for {
				op, err := r.ReadByte()
				if err != nil || s.serveOne(op, r, w) != nil {
					return
				}
			}
		})
		if !raceEnabled {
			if limit := uint64(eagerAllocMax + 8*len(in) + 1<<20); allocated > limit {
				t.Fatalf("%d request bytes made the server allocate %d (limit %d)", len(in), allocated, limit)
			}
		}
		stored := 0
		for _, d := range mem.dirs {
			for _, obj := range d.objects {
				stored += len(obj.data)
			}
		}
		if stored > len(in) {
			t.Fatalf("%d request bytes left %d bytes stored", len(in), stored)
		}
		reqs := parseRequests(in)
		model := make(map[string][]byte)
		for i, rest := 0, out.Bytes(); len(rest) > 0; i++ {
			status, payload, after, ok := nextFrame(rest)
			if !ok || status > statusError {
				t.Fatalf("response stream is out of frame at byte %d of %d", out.Len()-len(rest), out.Len())
			}
			rest = after
			if i >= len(reqs) {
				t.Fatalf("reply %d answers no whole request (%d in the input)", i, len(reqs))
			}
			req := reqs[i]
			want, stored := model[req.key]
			switch {
			case status != statusOK:
				if req.op == opGet && status == statusNotFound && stored {
					t.Fatalf("request %d: GET %q found nothing; the last PUT stored %d bytes", i, req.key, len(want))
				}
			case req.op == opPut:
				model[req.key] = req.body
			case req.op == opDelete:
				delete(model, req.key)
			case req.op == opGet && (!stored || !bytes.Equal(payload, want)):
				t.Fatalf("request %d: GET %q returned %d bytes; the last PUT stored %d (present %v)", i, req.key, len(payload), len(want), stored)
			}
		}
	})
}

// scriptConn is a client connection whose peer is a fixed byte string:
// reads replay it, writes vanish, and Close ends both.
type scriptConn struct {
	net.Conn // the rest of the interface; never called
	in       *bytes.Reader
	closed   bool
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.in.Read(p)
}

func (c *scriptConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return len(p), nil
}

func (c *scriptConn) Close() error {
	c.closed = true
	return nil
}

// errStop is what the fuzzed streamed get's callback returns on odd spares.
var errStop = errors.New("callback stops early")

// FuzzRemoteStoreResponse feeds arbitrary bytes to a pooled client as the
// server's side of its one connection and issues a GET: a GetAppend, or on
// the streamed arm a GetStream whose callback reads at most spare bytes of
// the payload (and on odd spares returns an error of its own). GetAppend must
// return exactly the payload of an OK frame appended to dst, or an error and
// dst unmodified; GetStream must hand the callback exactly such a payload, or
// fail without calling it. After a whole frame of any status the connection
// is back in the pool exactly at the next frame, so a second GET is held to
// the same rule on what follows; after anything else it is gone, never
// pooled out of frame.
func FuzzRemoteStoreResponse(f *testing.F) {
	f.Add(frame(statusOK, []byte("payload")), uint16(0), false)
	f.Add(frame(statusOK, []byte("payload")), uint16(64), false)
	f.Add(append(frame(statusNotFound, nil), frame(statusOK, []byte("second"))...), uint16(3), false)
	f.Add(append(frame(statusError, []byte("boom")), frame(statusOK, nil)...), uint16(0), false)
	f.Add(append(frame(statusOK, nil), frame(7, []byte("odd status"))...), uint16(8), false)
	f.Add(frame(statusOK, []byte("truncated"))[:12], uint16(4), false)
	f.Add(binary.BigEndian.AppendUint64([]byte{statusOK}, maxObjectSize+1), uint16(0), false)
	f.Add(append(binary.BigEndian.AppendUint64([]byte{statusOK}, maxObjectSize), "abc"...), uint16(0), false)
	f.Add(append(binary.BigEndian.AppendUint64([]byte{statusError}, eagerAllocMax+1), "abc"...), uint16(0), false)
	f.Add([]byte{statusOK, 0, 0}, uint16(0), false)
	f.Add(append(frame(statusOK, []byte("payload")), frame(statusOK, []byte("second"))...), uint16(2), true)
	f.Add(append(frame(statusOK, []byte("payload")), frame(statusOK, []byte("second"))...), uint16(3), true)
	f.Add(append(frame(statusNotFound, nil), frame(statusOK, []byte("second"))...), uint16(64), true)
	f.Add(frame(statusOK, []byte("truncated"))[:12], uint16(64), true)
	f.Add(append(binary.BigEndian.AppendUint64([]byte{statusOK}, maxObjectSize), "abc"...), uint16(8), true)

	f.Fuzz(func(t *testing.T, resp []byte, spare uint16, streamed bool) {
		conn := &scriptConn{in: bytes.NewReader(resp)}
		dials := 0
		c := newRemoteStore(func() (net.Conn, error) {
			if dials++; dials > 1 {
				return nil, errors.New("the script has one connection")
			}
			return conn, nil
		})
		rest := resp
		for call := 0; call < 2; call++ {
			dst := append(make([]byte, 0, 3+int(spare)), "pre"...)
			var out []byte
			var size int64
			var called bool
			var err error
			allocated := totalAlloc(func() {
				if !streamed {
					out, err = c.GetAppend("k", dst)
					return
				}
				size, err = c.GetStream("k", func(n int64, r io.Reader) error {
					called = true
					got, rerr := io.ReadFull(r, dst[3:3+min(int(spare), int(n))])
					out = dst[:3+got]
					if rerr == nil && spare%2 == 1 {
						rerr = errStop
					}
					return rerr
				})
			})
			if limit := uint64(eagerAllocMax + 8*len(resp) + 1<<20); !raceEnabled && allocated > limit {
				t.Fatalf("%d response bytes made the client allocate %d (limit %d)", len(resp), allocated, limit)
			}
			status, payload, after, ok := nextFrame(rest)
			switch {
			case streamed && ok && status == statusOK:
				want := append([]byte("pre"), payload[:min(int(spare), len(payload))]...)
				if !called || size != int64(len(payload)) || !bytes.Equal(out, want) {
					t.Fatalf("call %d: streamed %q of a %d-byte object (called %v); want %q of %d", call, out, size, called, want, len(payload))
				}
				if wantErr := spare%2 == 1; (err != nil) != wantErr || wantErr && !errors.Is(err, errStop) {
					t.Fatalf("call %d: GetStream returned %v; the callback returned errStop: %v", call, err, wantErr)
				}
			case streamed:
				if err == nil {
					t.Fatalf("call %d: GetStream of a frame that is not a whole OK frame returned no error", call)
				}
				// An OK header whose payload is cut short is found out only
				// as the callback reads: what it got is what arrived.
				if called && (len(rest) < 9 || rest[0] != statusOK || !bytes.HasPrefix(rest[9:], out[3:])) {
					t.Fatalf("call %d: the callback of a broken frame read %q", call, out[3:])
				}
			case ok && status == statusOK:
				if err != nil || !bytes.Equal(out, append([]byte("pre"), payload...)) {
					t.Fatalf("call %d: got %q, %v; want the frame's %d-byte payload after dst", call, out, err, len(payload))
				}
			case err == nil:
				t.Fatalf("call %d: got %q with no error from a frame that is not a whole OK frame", call, out)
			case len(out) != len(dst) || &out[0] != &dst[0] || string(out) != "pre":
				t.Fatalf("call %d: dst came back as %q (moved: %v) alongside error %v", call, out, &out[0] != &dst[0], err)
			}
			c.mu.Lock()
			idle := append([]*wireConn(nil), c.idle...)
			c.mu.Unlock()
			if !ok {
				if len(idle) != 0 || !conn.closed {
					t.Fatalf("call %d: a connection out of frame stayed open (%d idle)", call, len(idle))
				}
				return // the stream has lost its framing; nothing after it means anything
			}
			rest = after
			if len(idle) != 1 {
				t.Fatalf("call %d: after a whole frame the pool holds %d idle connections, want its one", call, len(idle))
			}
			if at := len(resp) - conn.in.Len() - idle[0].r.Buffered(); at != len(resp)-len(rest) {
				t.Fatalf("call %d: the pooled connection is at byte %d, the next frame at %d", call, at, len(resp)-len(rest))
			}
		}
	})
}

// TestWireBytesGolden pins the protocol to the bytes the previous server and
// client put on the wire (this test passes unchanged on the commit before
// the server moved onto internal/endpoint), so mixed-version storaged and
// clients interoperate.
func TestWireBytesGolden(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	exchanges := []struct{ name, req, resp string }{
		{"put", "01 00000001 6b 0000000000000002 6869", "00 0000000000000000"},
		{"get", "02 00000001 6b", "00 0000000000000002 6869"},
		{"stat", "05 00000001 6b", "00 0000000000000008 0000000000000002"},
		{"list", "04 00000000", "00 0000000000000001 6b"},
		{"delete", "03 00000001 6b", "00 0000000000000000"},
		{"get missing", "02 00000001 6b", "01 0000000000000000"},
		{"list nothing", "04 00000001 6b", "00 0000000000000000"},
	}

	// A previous-format client (these bytes) against this server.
	srv, err := Serve("127.0.0.1:0", NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	for _, x := range exchanges {
		if _, err := conn.Write(unhex(x.req)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(unhex(x.resp)))
		if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, unhex(x.resp)) {
			t.Fatalf("%s: server answered %x (%v), want %x", x.name, got, err, unhex(x.resp))
		}
	}

	// This client against a previous-format server (these bytes).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peerErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			peerErr <- err
			return
		}
		defer conn.Close()
		for _, x := range exchanges {
			got := make([]byte, len(unhex(x.req)))
			if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, unhex(x.req)) {
				peerErr <- fmt.Errorf("%s: client sent %x (%v), want %x", x.name, got, err, unhex(x.req))
				return
			}
			conn.Write(unhex(x.resp))
		}
		peerErr <- nil
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if b, err := c.Get("k"); err != nil || string(b) != "hi" {
		t.Fatalf("get: %q, %v", b, err)
	}
	if n, err := c.Stat("k"); err != nil || n != 2 {
		t.Fatalf("stat: %d, %v", n, err)
	}
	if keys, err := c.List(""); err != nil || len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("list: %q, %v", keys, err)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing: %v", err)
	}
	if keys, err := c.List("k"); err != nil || keys != nil {
		t.Fatalf("list nothing: %q, %v", keys, err)
	}
	if err := <-peerErr; err != nil {
		t.Fatal(err)
	}
}
