package remoteexec

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/resilience"
)

func testWorker(t testing.TB) (*Worker, *fatbin.Registry) {
	t.Helper()
	reg := fatbin.NewRegistry()
	reg.Register("double", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		a := data.Floats(in[0])
		for i := range a {
			data.PutFloat(out[0], i, 2*a[i])
		}
		return nil
	})
	reg.Register("panics", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		panic("kernel exploded")
	})
	reg.Register("maxinit", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		// Touch nothing: the response carries the initialization.
		return nil
	})
	w, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, reg
}

func TestRunTileRoundTrip(t *testing.T) {
	w, _ := testWorker(t)
	c, err := Dial(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in := data.Bytes([]float32{1, 2, 3})
	outs, err := c.RunTile(&TileRequest{
		Kernel: "double", Lo: 0, Hi: 3, Ins: [][]byte{in}, OutSizes: []int64{12},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := data.Floats(outs[0])
	if got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Fatalf("remote tile wrong: %v", got)
	}
	if w.Served() != 1 {
		t.Fatalf("Served = %d", w.Served())
	}
	if c.Addr() != w.Addr() {
		t.Fatalf("Addr mismatch")
	}
}

func TestRemoteErrorsSurface(t *testing.T) {
	w, _ := testWorker(t)
	c, err := Dial(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Missing kernel.
	if _, err := c.RunTile(&TileRequest{Kernel: "nope", Hi: 1}); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing kernel: %v", err)
	}
	// Panicking kernel becomes an error; worker survives.
	if _, err := c.RunTile(&TileRequest{Kernel: "panics", Hi: 1}); err == nil ||
		!strings.Contains(err.Error(), "kernel panic") {
		t.Fatalf("panic: %v", err)
	}
	// Negative output size rejected.
	if _, err := c.RunTile(&TileRequest{Kernel: "double", Hi: 1, OutSizes: []int64{-1}}); err == nil {
		t.Fatal("negative size should error")
	}
	// The connection still works after application errors.
	in := data.Bytes([]float32{5})
	outs, err := c.RunTile(&TileRequest{
		Kernel: "double", Lo: 0, Hi: 1, Ins: [][]byte{in}, OutSizes: []int64{4},
	})
	if err != nil || data.GetFloat(outs[0], 0) != 10 {
		t.Fatalf("post-error request failed: %v", err)
	}
}

func TestMaxInitIdentity(t *testing.T) {
	w, _ := testWorker(t)
	c, err := Dial(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	outs, err := c.RunTile(&TileRequest{
		Kernel: "maxinit", Hi: 1, OutSizes: []int64{8}, OutInit: []byte{InitNegInfF},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := data.Floats(outs[0])
	if got[0] != -1e38 || got[1] != -1e38 {
		t.Fatalf("max identity not applied: %v", got)
	}
}

func TestPoolAffinityAndConcurrency(t *testing.T) {
	w1, _ := testWorker(t)
	w2, _ := testWorker(t)
	pool, err := NewPool([]string{w1.Addr(), w2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != 2 {
		t.Fatalf("Size = %d", pool.Size())
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := data.Bytes([]float32{float32(i)})
			outs, err := pool.Run(i, &TileRequest{
				Kernel: "double", Lo: 0, Hi: 1, Ins: [][]byte{in}, OutSizes: []int64{4},
			})
			if err != nil {
				errCh <- err
				return
			}
			if got := data.GetFloat(outs[0], 0); got != float32(2*i) {
				errCh <- fmt.Errorf("tile %d: got %v", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Affinity split the load across both workers.
	if w1.Served() == 0 || w2.Served() == 0 {
		t.Fatalf("load not balanced: %d / %d", w1.Served(), w2.Served())
	}
	if w1.Served()+w2.Served() != 16 {
		t.Fatalf("tiles lost: %d + %d", w1.Served(), w2.Served())
	}
}

func TestPoolHealthAndFailures(t *testing.T) {
	w, reg := testWorker(t)
	pool, err := NewPool([]string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if !pool.Healthy() {
		t.Fatal("live worker should be healthy")
	}
	// Any answer from the worker proves it alive, whatever its text says.
	reg.Register("__health__", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		return errors.New("probe kernel refuses to run")
	})
	if !pool.Healthy() {
		t.Fatal("a worker that answered with an application error should be healthy")
	}
	w.Close()
	if pool.Healthy() {
		t.Fatal("dead worker should be unhealthy")
	}
	if _, err := pool.Run(0, &TileRequest{Kernel: "double", Hi: 1}); err == nil {
		t.Fatal("run against dead worker should error")
	}
}

func TestNewPoolErrors(t *testing.T) {
	if _, err := NewPool(nil); err == nil {
		t.Fatal("empty pool should error")
	}
	if _, err := NewPool([]string{"127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable worker should error")
	}
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port should error")
	}
}

func TestServeDefaultRegistry(t *testing.T) {
	w, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, err := Dial(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The default registry has no "double"; a clean application error
	// proves the round trip against fatbin.Default.
	if _, err := c.RunTile(&TileRequest{Kernel: "remoteexec-test-missing", Hi: 1}); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
}

// Execute is the executor both the worker and the in-process tile path run:
// identities filled, kernel invoked, and the kernel's error returned as the
// same value, so a transient mark or an injected fault keeps its class.
func TestExecuteIsTheWorkersExecutor(t *testing.T) {
	w, reg := testWorker(t)
	kernelErr := resilience.MarkTransient(errors.New("executor lost"))
	reg.Register("fails", func(lo, hi int64, scalars []int64, in, out [][]byte) error { return kernelErr })

	req := &TileRequest{Kernel: "maxinit", OutSizes: []int64{8, 8, 4}, OutInit: []byte{InitNegInfF, InitPosInfF}}
	local, err := Execute(reg, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote, err := c.RunTile(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("in-process and worker outputs differ:\n%v\n%v", local, remote)
	}
	if got := data.Floats(local[0]); got[0] != -1e38 || got[1] != -1e38 || data.Floats(local[1])[0] != 1e38 || data.Floats(local[2])[0] != 0 {
		t.Fatalf("identities: %v", local)
	}

	if _, err := Execute(reg, &TileRequest{Kernel: "fails"}, nil); err != kernelErr || !resilience.IsTransient(err) {
		t.Fatalf("kernel error came back as %v, want the kernel's own value", err)
	}
	if _, err := Execute(reg, &TileRequest{Kernel: "double", OutSizes: []int64{-1}}, nil); err == nil {
		t.Fatal("negative output size accepted")
	}

	// A handed destination is the output itself: the body writes into it,
	// nothing clears or initialises it first, and a buffer it does not hand
	// is allocated as before.
	in := data.Bytes([]float32{1, 2})
	window := data.Bytes([]float32{7, 7, 7})
	outs, err := Execute(reg, &TileRequest{Kernel: "double", Hi: 2, Ins: [][]byte{in}, OutSizes: []int64{8}}, [][]byte{window[:8]})
	if err != nil || &outs[0][0] != &window[0] || !reflect.DeepEqual(data.Floats(window), []float32{2, 4, 7}) {
		t.Fatalf("in-place output: %v, window %v, %v", outs, data.Floats(window), err)
	}
	kept := data.Bytes([]float32{5, 5})
	outs, err = Execute(reg, &TileRequest{Kernel: "maxinit", OutSizes: []int64{8, 8}, OutInit: []byte{InitNegInfF, InitNegInfF}}, [][]byte{nil, kept})
	if err != nil || data.Floats(outs[0])[0] != -1e38 || &outs[1][0] != &kept[0] || data.Floats(kept)[0] != 5 {
		t.Fatalf("mixed destinations: %v, %v", outs, err)
	}
	if _, err := Execute(reg, &TileRequest{Kernel: "double", Hi: 2, Ins: [][]byte{in}, OutSizes: []int64{8}}, [][]byte{window}); err == nil {
		t.Fatal("a destination of the wrong size was accepted")
	}
	// Execute does not recover: that is the worker's job, for its peers.
	if _, err := c.RunTile(&TileRequest{Kernel: "panics"}); err == nil || !strings.Contains(err.Error(), "kernel panic") {
		t.Fatalf("worker did not turn the panic into an error: %v", err)
	}
}

// TestWorkerDrain is the SIGTERM path of cmd/ompcloud-worker: a tile inside
// its kernel when the drain starts still gets its TileResponse, an idle
// pooled connection is closed at once, and Drain returns once both are done.
func TestWorkerDrain(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	reg := fatbin.NewRegistry()
	reg.Register("blocks", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		close(entered)
		<-release
		out[0][0] = 7
		return nil
	})
	w, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := Dial(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	type result struct {
		outs [][]byte
		err  error
	}
	tile := make(chan result, 1)
	go func() {
		outs, err := busy.RunTile(&TileRequest{Kernel: "blocks", Hi: 1, OutSizes: []int64{1}})
		tile <- result{outs, err}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- w.Drain(10 * time.Second) }()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection during a drain: %v, want EOF while the tile still runs", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a tile still in its kernel", err)
	default:
	}
	close(release)
	if r := <-tile; r.err != nil || r.outs[0][0] != 7 {
		t.Fatalf("tile in flight when the drain began: %v, %v", r.outs, r.err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if w.Served() != 1 {
		t.Fatalf("Served = %d", w.Served())
	}
	if _, err := busy.RunTile(&TileRequest{Kernel: "blocks"}); err == nil {
		t.Fatal("drained worker served another tile")
	}
}

// TestWorkerSpeaksBareGob drives a worker with what the parent commit's
// client was — encoding/gob on a socket and nothing else — so mixed-version
// drivers and workers interoperate.
func TestWorkerSpeaksBareGob(t *testing.T) {
	w, _ := testWorker(t)
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	for i := 1; i <= 2; i++ {
		in := data.Bytes([]float32{float32(i)})
		if err := enc.Encode(&TileRequest{Kernel: "double", Hi: 1, Ins: [][]byte{in}, OutSizes: []int64{4}}); err != nil {
			t.Fatal(err)
		}
		var resp TileResponse
		if err := dec.Decode(&resp); err != nil || resp.Err != "" || data.GetFloat(resp.Outs[0], 0) != float32(2*i) {
			t.Fatalf("tile %d: %+v, %v", i, resp, err)
		}
	}
}

// gobStream is a peer's byte stream carrying vals.
func gobStream(vals ...any) []byte {
	var b bytes.Buffer
	enc := gob.NewEncoder(&b)
	for _, v := range vals {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
	return b.Bytes()
}

// FuzzWorkerConn feeds arbitrary bytes to a worker as one peer's stream.
// Whatever arrives, the worker must not panic, must not allocate more than
// a small multiple of what it was sent (plus gob's one eagerly allocated
// block and the outputs a well-formed request declares), must close the
// connection, and must still serve the next one.
func FuzzWorkerConn(f *testing.F) {
	valid := gobStream(&TileRequest{Kernel: "double", Hi: 1, Ins: [][]byte{data.Bytes([]float32{3})}, OutSizes: []int64{4}})
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), gobStream(&TileRequest{Kernel: "nope", Hi: 1})...))
	f.Add(gobStream(&TileRequest{Kernel: "panics", OutSizes: []int64{-1, 8}, OutInit: []byte{InitPosInfF, 9}}))
	f.Add(valid[:len(valid)/2])                                         // cut inside a frame
	f.Add([]byte{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // a length prefix past every limit
	f.Add([]byte{0xfc, 0x40, 0x00, 0x00, 0x00, 'a', 'b', 'c'})          // 1 GiB declared, 3 bytes sent
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))

	w, _ := testWorker(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		// What a well-formed prefix of the stream legitimately asks the
		// worker to allocate; a huge ask is the protocol working, not a bug.
		var declared uint64
		for dec := gob.NewDecoder(bytes.NewReader(in)); ; {
			var req TileRequest
			if dec.Decode(&req) != nil {
				break
			}
			for _, sz := range req.OutSizes {
				declared += uint64(max(sz, 0))
			}
		}
		if declared > 1<<20 {
			t.Skip("request declares large outputs")
		}
		allocated := totalAlloc(func() {
			conn, err := net.Dial("tcp", w.Addr())
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
				t.Fatalf("worker left the connection open: %v", err)
			}
		})
		if limit := uint64(gobEagerAlloc + 16*len(in) + 1<<20); allocated > limit {
			t.Fatalf("%d bytes made the worker allocate %d (limit %d)", len(in), allocated, limit)
		}
		c, err := Dial(w.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		outs, err := c.RunTile(&TileRequest{Kernel: "double", Hi: 1, Ins: [][]byte{data.Bytes([]float32{4})}, OutSizes: []int64{4}})
		if err != nil || data.GetFloat(outs[0], 0) != 8 {
			t.Fatalf("next connection: %v, %v", outs, err)
		}
	})
}

// gobEagerAlloc is the most encoding/gob allocates for a message before any
// of its body has arrived (internal/saferio's chunk).
const gobEagerAlloc = 10 << 20

// totalAlloc reports the bytes the whole process allocated while f ran.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
