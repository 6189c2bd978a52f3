package storage

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"sync"
	"testing"

	"ompcloud/internal/arena"
)

// TestMain runs every test of the package with the arena poisoning each
// buffer given back: a reply or a copy made from an object's bytes after they
// went back reads 0xFF, and under -race the poisoning write races the read.
func TestMain(m *testing.M) {
	arena.Poison(true)
	os.Exit(m.Run())
}

// serve runs one request through s and returns its reply's status.
func serve(t *testing.T, s *Server, op byte, key string, body []byte) byte {
	t.Helper()
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if err := s.serveOne(op, bufio.NewReader(bytes.NewReader(request(op, key, body)[1:])), w); err != nil {
		t.Fatal(err)
	}
	status, _, _, ok := nextFrame(out.Bytes())
	if !ok {
		t.Fatalf("op %d on %q: no whole reply", op, key)
	}
	return status
}

// TestDeletedObjectOutlivesItsReply: a GET reply is written from the stored
// object itself, so the object's bytes must not go back to the arena while
// the reply is being written, even if the object is deleted and its key
// overwritten meanwhile by PUTs of the same size, which draw from the same
// size class. The client stops reading mid-reply; the reply it then reads
// is the old object whole, and once every object is deleted the arena holds
// what it held before.
func TestDeletedObjectOutlivesItsReply(t *testing.T) {
	const size, early = 1 << 20, 128 << 10
	base := arena.Held()
	s := &Server{store: NewMetered(NewMemStore())}
	object := func(v byte) []byte { return bytes.Repeat([]byte{v}, size) }
	if st := serve(t, s, opPut, "k", object(1)); st != statusOK {
		t.Fatalf("put: status %d", st)
	}

	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		defer server.Close()
		w := bufio.NewWriterSize(server, 1<<16)
		done <- s.serveOne(opGet, bufio.NewReader(bytes.NewReader(request(opGet, "k", nil)[1:])), w)
	}()
	reply := make([]byte, 9+size)
	if _, err := io.ReadFull(client, reply[:9+early]); err != nil {
		t.Fatal(err)
	}
	// The server is blocked mid-reply: delete the object and overwrite its
	// key with same-size objects.
	if st := serve(t, s, opDelete, "k", nil); st != statusOK {
		t.Fatalf("delete: status %d", st)
	}
	for v := byte(2); v < 5; v++ {
		if st := serve(t, s, opPut, "k", object(v)); st != statusOK {
			t.Fatalf("put %d: status %d", v, st)
		}
	}
	if _, err := io.ReadFull(client, reply[9+early:]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	status, payload, _, ok := nextFrame(reply)
	if !ok || status != statusOK || len(payload) != size {
		t.Fatalf("reply: status %d, %d bytes, whole %v", status, len(payload), ok)
	}
	if i := bytes.IndexFunc(payload, func(r rune) bool { return r != 1 }); i >= 0 {
		t.Fatalf("byte %d of the reply reads %#x: the deleted object's bytes were reused before its reply was written", i, payload[i])
	}
	if st := serve(t, s, opDelete, "k", nil); st != statusOK {
		t.Fatalf("delete: status %d", st)
	}
	if held := arena.Held() - base; held != 0 {
		t.Fatalf("the arena holds %d bytes more than before the test, with nothing stored", held)
	}
}

// TestMemStoreCopiesOutliveDelete: Get and GetAppend copy an object while
// other goroutines overwrite and delete its key; every copy is one whole
// object, and every object's bytes go back to the arena once it is gone.
func TestMemStoreCopiesOutliveDelete(t *testing.T) {
	base := arena.Held()
	mem := NewMemStore()
	// Version v is (v+1) * 64 KiB of byte v + 1: length and content both
	// name it, and no byte of it is the poison.
	object := func(v int) []byte { return bytes.Repeat([]byte{byte(v + 1)}, (v+1)<<16) }
	whole := func(b []byte) bool { return len(b) > 0 && bytes.Equal(b, object(int(b[0])-1)) }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dst := make([]byte, 0, 4<<16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var got []byte
				var err error
				if r == 0 {
					got, err = mem.Get("k")
				} else {
					got, err = mem.GetAppend("k", dst)
				}
				if err == nil && !whole(got) {
					t.Errorf("reader %d copied a mixture: %d bytes starting with %d", r, len(got), got[0])
					return
				}
			}
		}(r)
	}
	for i := 0; i < 200; i++ {
		if err := mem.Put("k", object(i%4)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := mem.Delete("k"); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := mem.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if held := arena.Held() - base; held != 0 {
		t.Fatalf("the arena holds %d bytes more than before the test, with nothing stored", held)
	}
}

// A body the store behind the server copies (no ownedStore hook) goes back
// to the arena once the copying Put returns, and a body a failed PUT leaves
// behind goes back too.
func TestServerGivesBackCopiedBodies(t *testing.T) {
	base := arena.Held()
	body := bytes.Repeat([]byte{7}, 100<<10)
	prefixed, err := NewPrefix(NewMemStore(), "p/")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Store{prefixed, NewThrottled(NewMemStore(), 0, 0)} {
		s := &Server{store: st}
		if status := serve(t, s, opPut, "k", body); status != statusOK {
			t.Fatalf("%T put: status %d", st, status)
		}
		if got, err := st.Get("k"); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%T get after a copied put: %d bytes, %v", st, len(got), err)
		}
		if err := st.Delete("k"); err != nil {
			t.Fatal(err)
		}
	}
	if status := serve(t, &Server{store: NewMemStore()}, opPut, "../bad", body); status != statusError {
		t.Fatalf("put of an invalid key: status %d", status)
	}
	if held := arena.Held() - base; held != 0 {
		t.Fatalf("the arena holds %d bytes more than before the test, with nothing stored", held)
	}
}
