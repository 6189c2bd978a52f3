package chunkio

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ompcloud/internal/faults"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

// markLog collects readiness callbacks concurrently and can verify they
// tile [0, n) exactly once.
type markLog struct {
	mu   sync.Mutex
	ivls [][2]int64
}

func (m *markLog) mark(lo, hi int64) {
	m.mu.Lock()
	m.ivls = append(m.ivls, [2]int64{lo, hi})
	m.mu.Unlock()
}

func (m *markLog) covers(t *testing.T, n int64) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	covered := make([]bool, n)
	for _, iv := range m.ivls {
		for i := iv[0]; i < iv[1]; i++ {
			if covered[i] {
				t.Fatalf("byte %d marked ready twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("byte %d never marked ready", i)
		}
	}
}

func streamTestOptions(chunk int) Options {
	return Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: chunk, Parallel: 4}
}

// TestPipeRoundTrip pushes a buffer through the fused upload+fetch pipe and
// checks the destination matches, readiness marks tile the buffer, and the
// stored object is a well-formed multipart frame readable by Download.
func TestPipeRoundTrip(t *testing.T) {
	for _, size := range []int{10, 1 << 10, 10<<10 + 37} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			src := make([]byte, size)
			for i := range src {
				src[i] = byte(i % 251)
			}
			st := storage.NewMemStore()
			dst := make([]byte, size)
			var marks markLog
			res, err := Pipe(st, "k", src, dst, streamTestOptions(1<<10), marks.mark)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, src) {
				t.Fatal("piped destination differs from source")
			}
			marks.covers(t, int64(size))
			back, down, err := download(st, "k", len(src), streamTestOptions(1<<10))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, src) {
				t.Fatal("stored object does not round-trip through Download")
			}
			wantChunks := (size + (1 << 10) - 1) / (1 << 10)
			if res.Up.Chunks != wantChunks || down.Chunks != wantChunks {
				t.Fatalf("chunk accounting off: up %d down %d want %d",
					res.Up.Chunks, down.Chunks, wantChunks)
			}
			// The pipe's consumer is in-process: multipart roots are never
			// fetched; a single frame IS the data and cannot be skipped.
			multipart := size > 1<<10
			if res.Down.RootCached != multipart {
				t.Fatalf("RootCached = %v for size %d", res.Down.RootCached, size)
			}
		})
	}
}

// TestPipeSizeMismatch pins the contract: the destination must be exactly
// source-sized.
func TestPipeSizeMismatch(t *testing.T) {
	src := make([]byte, 4096)
	if _, err := Pipe(storage.NewMemStore(), "k", src, make([]byte, 4095), streamTestOptions(1<<10), nil); err == nil {
		t.Fatal("short destination must be rejected")
	}
}

// TestPipePropagatesPutError checks a dead store surfaces as an error, not
// a hang, and leaves no committed manifest behind.
func TestPipePropagatesPutError(t *testing.T) {
	fs := storage.WithFaults(storage.NewMemStore(), faults.New(1).Add(faults.Entry{Op: "put", Err: fmt.Errorf("boom")}))
	src := make([]byte, 8<<10)
	_, err := Pipe(fs, "k", src, make([]byte, len(src)), streamTestOptions(1<<10), nil)
	if err == nil {
		t.Fatal("dead store must fail the pipe")
	}
}

// TestOutStreamRoundTrip drives an output stream with a progressively
// advancing watermark — including advances that stop mid-chunk — and checks
// both the mirrored host buffer and the stored object.
func TestOutStreamRoundTrip(t *testing.T) {
	size := 10<<10 + 37
	src := make([]byte, size)
	for i := range src {
		src[i] = byte((i * 7) % 253)
	}
	st := storage.NewMemStore()
	dst := make([]byte, size)
	var marks markLog
	os, err := NewOutStream(st, "k", src, dst, streamTestOptions(1<<10), marks.mark)
	if err != nil {
		t.Fatal(err)
	}
	// Advance in uneven steps: some mid-chunk, one backwards (ignored).
	for _, hi := range []int64{100, 3 << 10, 1 << 10, 7<<10 + 5, int64(size)} {
		os.Advance(hi)
	}
	res, err := os.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("streamed destination differs from source")
	}
	marks.covers(t, int64(size))
	back, _, err := download(st, "k", len(src), streamTestOptions(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("stored object does not round-trip through Download")
	}
	wantChunks := (size + (1 << 10) - 1) / (1 << 10)
	if res.Up.Chunks != wantChunks {
		t.Fatalf("upload chunk accounting = %d, want %d", res.Up.Chunks, wantChunks)
	}
}

// TestOutStreamSingleFrame checks the ≤1-chunk degenerate path defers the
// whole transfer to Finish.
func TestOutStreamSingleFrame(t *testing.T) {
	src := []byte("tiny final buffer")
	st := storage.NewMemStore()
	dst := make([]byte, len(src))
	os, err := NewOutStream(st, "k", src, dst, streamTestOptions(1<<10), nil)
	if err != nil {
		t.Fatal(err)
	}
	os.Advance(int64(len(src)))
	if _, err := os.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("single-frame stream differs from source")
	}
	back, _, err := download(st, "k", len(src), streamTestOptions(1<<10))
	if err != nil || !bytes.Equal(back, src) {
		t.Fatalf("stored single frame wrong: %v", err)
	}
}

// TestOutStreamFinishRequiresFullWatermark pins the misuse guard: finishing
// before the watermark reaches the end is an error, and Abort leaves no
// committed manifest behind.
func TestOutStreamFinishRequiresFullWatermark(t *testing.T) {
	src := make([]byte, 8<<10)
	st := storage.NewMemStore()
	os, err := NewOutStream(st, "k", src, make([]byte, len(src)), streamTestOptions(1<<10), nil)
	if err != nil {
		t.Fatal(err)
	}
	os.Advance(4 << 10)
	if _, err := os.Finish(); err == nil {
		t.Fatal("Finish before full watermark must fail")
	}
	if _, err := st.Get("k"); err == nil {
		t.Fatal("aborted stream must not commit a manifest")
	}
}

// TestOutStreamAbortLeavesNoOrphans: aborting an output stream removes the
// parts it already shipped.
func TestOutStreamAbortLeavesNoOrphans(t *testing.T) {
	ms := storage.NewMemStore()
	src := make([]byte, 8<<10)
	for i := range src {
		src[i] = byte(i * 7)
	}
	before := runtime.NumGoroutine()
	os, err := NewOutStream(ms, "jobs/000002/out/y", src, make([]byte, len(src)), streamTestOptions(1<<10), nil)
	if err != nil {
		t.Fatal(err)
	}
	os.Advance(6 << 10) // ship a few chunks
	os.Abort()
	keys, err := ms.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("aborted stream orphaned %d objects: %v", len(keys), keys)
	}
	waitGoroutines(t, before)
}

// waitGoroutines waits for the goroutine count to settle back to the
// baseline; in-flight chunk workers drain asynchronously.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("leaked goroutines: %d running, baseline %d", g, baseline)
	}
}
