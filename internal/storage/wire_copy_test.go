package storage

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"ompcloud/internal/arena"
	"ompcloud/internal/faults"
)

// loopback serves backing on 127.0.0.1 and dials one client to it.
func loopback(t testing.TB, backing Store) *RemoteStore {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", backing)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// totalAlloc reports the bytes the whole process allocated while f ran.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWireCopyBudget pins the copies a byte pays crossing the store, client
// and server counted together (they share this process): a PUT to a fresh
// key allocates its body once — the arena buffer the server read it into
// becomes the stored object — and a PUT that overwrites a key, one-piece or
// two-part (the client writes the parts from where they lie), allocates
// nothing in steady state, because the object it replaces gives its buffer
// back; a GET into a buffer with room, or streamed into the caller's own
// buffer, allocates nothing on either side.
func TestWireCopyBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under -race instrumentation")
	}
	const n, size = 64, 1 << 20
	const slack = 2 << 20 // bufio, goroutine stacks, key strings, runtime noise
	for _, tc := range []struct {
		name    string
		backing func() Store
	}{
		{"MemStore", func() Store { return NewMemStore() }},
		{"Metered(MemStore)", func() Store { return NewMetered(NewMemStore()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli := loopback(t, tc.backing())
			body := bytes.Repeat([]byte{0xa5}, size)
			dst := make([]byte, 0, size)
			into := make([]byte, size)
			readInto := func(_ int64, r io.Reader) error {
				_, err := io.ReadFull(r, into)
				return err
			}
			var put, parts, get, stream uint64
			round := func() {
				put = totalAlloc(func() {
					for i := 0; i < n; i++ {
						if err := cli.Put("obj", body); err != nil {
							t.Fatal(err)
						}
					}
				})
				parts = totalAlloc(func() {
					for i := 0; i < n; i++ {
						if err := cli.PutParts("parts", body[:1], body[1:]); err != nil {
							t.Fatal(err)
						}
					}
				})
				get = totalAlloc(func() {
					for i := 0; i < n; i++ {
						out, err := cli.GetAppend("obj", dst)
						if err != nil || len(out) != size {
							t.Fatalf("GetAppend: %d bytes, %v", len(out), err)
						}
					}
				})
				stream = totalAlloc(func() {
					for i := 0; i < n; i++ {
						if got, err := cli.GetStream("parts", readInto); err != nil || got != size {
							t.Fatalf("GetStream: %d bytes, %v", got, err)
						}
					}
				})
			}
			round() // warm-up: connection buffers, goroutine stacks, the arena
			round()
			// Fresh keys keep every body, so none goes back for the next
			// PUT. Their bodies are 7/8 of the others: an arena size class
			// of its own, where no other test of the package leaves an idle
			// buffer a fresh PUT could take.
			const freshSize = size - size/8
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("fresh/%d", i)
			}
			fresh := totalAlloc(func() {
				for _, key := range keys {
					if err := cli.Put(key, body[:freshSize]); err != nil {
						t.Fatal(err)
					}
				}
			})
			if fresh < n*freshSize || fresh > n*freshSize+slack {
				t.Errorf("%d PUTs of %d bytes to fresh keys allocated %d bytes process-wide, want one body each (%d..%d)",
					n, freshSize, fresh, n*freshSize, n*freshSize+slack)
			}
			for _, c := range []struct {
				what  string
				bytes uint64
			}{{"PUTs overwriting a key", put}, {"two-part PUTs overwriting a key", parts}, {"GETs", get}, {"streamed GETs", stream}} {
				if c.bytes > slack {
					t.Errorf("%d %s of %d bytes allocated %d bytes process-wide, want none (<= %d)", n, c.what, size, c.bytes, slack)
				}
			}
			if !bytes.Equal(into, body) {
				t.Error("the streamed GET's bytes differ from the two-part PUT's")
			}
		})
	}
}

// TestRemoteStoreGetAppend checks the AppendGetter contract over the wire:
// the payload lands after dst's existing bytes, in place when dst has room,
// and any failure hands dst back unmodified with the connection still in
// frame.
func TestRemoteStoreGetAppend(t *testing.T) {
	cli := loopback(t, NewMemStore())
	payload := bytes.Repeat([]byte("chunk"), 1000)
	if err := cli.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	for _, spare := range []int{0, 100, len(payload), 2 * len(payload)} {
		dst := append(make([]byte, 0, 3+spare), "pre"...)
		out, err := cli.GetAppend("k", dst)
		if err != nil || !bytes.Equal(out, append([]byte("pre"), payload...)) {
			t.Fatalf("spare %d: got %d bytes, %v", spare, len(out), err)
		}
		if inPlace := &out[0] == &dst[0]; inPlace != (spare >= len(payload)) {
			t.Fatalf("spare %d: read in place = %v", spare, inPlace)
		}
	}
	dst := append(make([]byte, 0, 64), "pre"...)
	for _, key := range []string{"missing", "../bad"} {
		out, err := cli.GetAppend(key, dst)
		if err == nil || len(out) != 3 || &out[0] != &dst[0] || string(out) != "pre" {
			t.Fatalf("GetAppend(%q) = %q, %v; want dst back and an error", key, out, err)
		}
	}
	if _, err := cli.GetAppend("missing", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}
	if out, err := cli.GetAppend("k", nil); err != nil || !bytes.Equal(out, payload) {
		t.Fatalf("connection out of frame after errors: %d bytes, %v", len(out), err)
	}
}

// TestReadBodyDoesNotTrustTheHeader: a declared length is allocated up front
// only up to eagerAllocMax; past it the buffer grows with the bytes that
// actually arrive, and a body that does arrive ends in one exact buffer.
func TestReadBodyDoesNotTrustTheHeader(t *testing.T) {
	if !raceEnabled {
		lie := bufio.NewReader(bytes.NewReader(make([]byte, 10)))
		var err error
		got := totalAlloc(func() { _, err = readBody(lie, nil, maxObjectSize) })
		if err == nil {
			t.Fatal("a 10-byte body passed for a 4 GiB one")
		}
		if got > 2*eagerAllocMax {
			t.Fatalf("a header claiming 4 GiB allocated %d bytes before its body arrived", got)
		}
	}
	const n = 2*eagerAllocMax + eagerAllocMax/2 + 3
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i * 131)
	}
	dst := []byte("pre")
	out, err := readBody(bufio.NewReader(bytes.NewReader(body)), dst, n)
	if err != nil || !bytes.Equal(out[3:], body) || string(out[:3]) != "pre" {
		t.Fatalf("large body mangled: %d bytes, %v", len(out), err)
	}
	if cap(out) != len(out) {
		t.Fatalf("large body ends in a %d-byte buffer for %d bytes", cap(out), len(out))
	}
	out, err = readBody(bufio.NewReader(bytes.NewReader(body[:n-1])), dst, n)
	if err == nil || len(out) != 3 || &out[0] != &dst[0] {
		t.Fatalf("truncated body: got %d bytes, %v; want dst back and an error", len(out), err)
	}
}

// TestServedObjectsAreImmutable runs GETs over TCP while the same key is
// overwritten and deleted. The server replies from the stored object itself,
// so this holds only because a stored object is never written again: every
// reply is one whole object, old or new, never a mixture (and -race sees no
// write under the server's read).
func TestServedObjectsAreImmutable(t *testing.T) {
	backing := NewMemStore()
	srv, err := Serve("127.0.0.1:0", NewMetered(backing))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *RemoteStore {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	// Version v is (v+1) * 64 KiB of byte v: length and content both name it.
	object := func(v byte) []byte { return bytes.Repeat([]byte{v}, (int(v)+1)<<16) }
	const versions = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		c := dial()
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, 0, versions<<16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, err := c.GetAppend("k", dst)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if len(out) == 0 || len(out) != (int(out[0])+1)<<16 || !bytes.Equal(out, object(out[0])) {
					t.Errorf("get returned a mixture: %d bytes starting with %d", len(out), out[0])
					return
				}
			}
		}()
	}
	w := dial()
	for i := 0; i < 150; i++ {
		if err := w.Put("k", object(byte(i%versions))); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := w.Delete("k"); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestServerDoesNotBypassWrappers: the copy-free hooks are for stores that
// opt in. A wrapper that injects faults, paces or partitions must still see
// every read and write a Server makes on a client's behalf.
func TestServerDoesNotBypassWrappers(t *testing.T) {
	body := []byte("sixteen byte body")
	exercise := func(t *testing.T, cli *RemoteStore, puts, gets int) {
		t.Helper()
		for i := 0; i < puts; i++ {
			if err := cli.Put("k", body); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < gets; i++ {
			if got, err := cli.Get("k"); err != nil || !bytes.Equal(got, body) {
				t.Fatalf("get: %q, %v", got, err)
			}
		}
	}

	t.Run("FaultStore", func(t *testing.T) {
		sched := faults.New(1).Add(faults.Entry{Op: "put", Count: 1}, faults.Entry{Op: "get", Count: 1})
		cli := loopback(t, WithFaults(NewMemStore(), sched))
		if err := cli.Put("k", body); err == nil {
			t.Fatal("the injected PUT fault never reached the client")
		}
		exercise(t, cli, 1, 0)
		if _, err := cli.Get("k"); err == nil {
			t.Fatal("the injected GET fault never reached the client")
		}
		exercise(t, cli, 0, 1)
		if n := sched.Fired(faults.Store); n != 2 {
			t.Fatalf("fault schedule fired %d times, want 2", n)
		}
	})

	t.Run("FaultStore corruption stays out of the store", func(t *testing.T) {
		mem := NewMemStore()
		cli := loopback(t, WithFaults(mem, faults.New(1).Add(faults.Entry{Op: "get", Key: "k", Count: 1, Do: faults.Flip})))
		exercise(t, cli, 1, 0)
		if got, err := cli.Get("k"); err != nil || bytes.Equal(got, body) {
			t.Fatalf("corrupting GET returned %q, %v", got, err)
		}
		exercise(t, cli, 0, 1) // the flipped bit was in a copy, not in the object
	})

	t.Run("Throttled", func(t *testing.T) {
		th := NewThrottled(NewMemStore(), 0, 0)
		exercise(t, loopback(t, th), 3, 5)
		if th.upMeter.n != 3 || th.downMeter.n != 5 {
			t.Fatalf("throttle metered %d puts and %d gets, want 3 and 5", th.upMeter.n, th.downMeter.n)
		}
	})

	t.Run("NetFault", func(t *testing.T) {
		// The link drops from its 9th operation: exactly the 8 the exercise
		// makes cross it, and the next two are refused.
		sched := faults.New(1).Add(faults.Entry{From: 8, Do: faults.Drop})
		cli := loopback(t, WithFaults(NewMemStore(), sched))
		exercise(t, cli, 3, 5)
		if err := cli.Put("k", body); err == nil {
			t.Fatal("a PUT crossed a partitioned link")
		}
		if _, err := cli.Get("k"); err == nil || sched.Fired(faults.Store) != 2 {
			t.Fatalf("a GET crossed a partitioned link (err %v, %d refused)", err, sched.Fired(faults.Store))
		}
	})
}

// BenchmarkServerPutGetDelete times a 1 MiB PUT, GET and DELETE of one key
// over loopback, client and server in this process, and reports MB/s of
// object bytes moved (PUT and GET) and B/op. Recycled, the deleted object's
// buffer serves the next PUT; cold, the benchmark takes each freed buffer
// out of the arena and drops it, so every PUT reads into memory the runtime
// has just allocated and zeroed, as every PUT did before the store drew from
// the arena.
func BenchmarkServerPutGetDelete(b *testing.B) {
	const size = 1 << 20
	arena.Poison(false) // TestMain's, for the tests; it would time a fill per PUT
	defer arena.Poison(true)
	for _, cold := range []bool{false, true} {
		name := "recycled"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			cli := loopback(b, NewMemStore())
			body := bytes.Repeat([]byte{0x5a}, size)
			dst := make([]byte, 0, size)
			cycle := func() {
				if err := cli.Put("k", body); err != nil {
					b.Fatal(err)
				}
				if out, err := cli.GetAppend("k", dst); err != nil || len(out) != size {
					b.Fatalf("get: %d bytes, %v", len(out), err)
				}
				if err := cli.Delete("k"); err != nil {
					b.Fatal(err)
				}
			}
			cycle() // the connection, and a buffer of the class in the arena
			if cold {
				arena.Get(size)
			}
			b.SetBytes(2 * size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
				if cold {
					b.StopTimer()
					arena.Get(size) // the buffer the DELETE gave back, dropped
					b.StartTimer()
				}
			}
		})
	}
}
