package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// storeContract runs the shared behavioural suite against any Store.
func storeContract(t *testing.T, s Store) {
	t.Helper()

	// Missing objects.
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v, want ErrNotFound", err)
	}
	if _, err := s.Stat("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat missing: %v, want ErrNotFound", err)
	}
	if err := s.Delete("nope"); err != nil {
		t.Fatalf("Delete missing should be idempotent: %v", err)
	}

	// Round trip and overwrite.
	if err := s.Put("job1/in/A", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("job1/in/B", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("job1/out/C", []byte("gamma")); err != nil {
		t.Fatal(err)
	}
	b, err := s.Get("job1/in/A")
	if err != nil || string(b) != "alpha" {
		t.Fatalf("Get = %q, %v", b, err)
	}
	if err := s.Put("job1/in/A", []byte("alpha2")); err != nil {
		t.Fatal(err)
	}
	b, _ = s.Get("job1/in/A")
	if string(b) != "alpha2" {
		t.Fatalf("overwrite failed: %q", b)
	}

	// Stat.
	n, err := s.Stat("job1/in/B")
	if err != nil || n != 4 {
		t.Fatalf("Stat = %d, %v", n, err)
	}

	// List with prefix, sorted.
	keys, err := s.List("job1/in/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "job1/in/A" || keys[1] != "job1/in/B" {
		t.Fatalf("List = %v", keys)
	}
	all, err := s.List("")
	if err != nil || len(all) != 3 {
		t.Fatalf("List all = %v, %v", all, err)
	}

	// Delete.
	if err := s.Delete("job1/in/A"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("job1/in/A"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object still present: %v", err)
	}

	// Mutating the returned slice must not corrupt the store.
	if err := s.Put("iso", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("iso")
	got[0] = 99
	again, _ := s.Get("iso")
	if again[0] != 1 {
		t.Fatal("store leaked internal buffer")
	}

	// Key validation.
	for _, bad := range []string{"", "../etc/passwd", "/abs", "has\nnewline"} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put(%q) should be rejected", bad)
		}
		if _, err := s.Get(bad); err == nil {
			t.Fatalf("Get(%q) should be rejected", bad)
		}
	}

	// Empty object is valid.
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	e, err := s.Get("empty")
	if err != nil || len(e) != 0 {
		t.Fatalf("empty object: %v, %v", e, err)
	}
}

func TestMemStoreContract(t *testing.T) { storeContract(t, NewMemStore()) }

func TestDiskStoreContract(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, s)
}

func TestRemoteStoreContract(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	storeContract(t, c)
}

func TestMeteredContractAndCounters(t *testing.T) {
	m := NewMetered(NewMemStore())
	storeContract(t, m)
	snap := m.Snapshot()
	if snap.Puts == 0 || snap.Gets == 0 || snap.Deletes == 0 {
		t.Fatalf("counters not advancing: %+v", snap)
	}
	if snap.BytesIn == 0 || snap.BytesOut == 0 {
		t.Fatalf("byte counters not advancing: %+v", snap)
	}
	if snap.Errors == 0 {
		t.Fatal("contract provokes errors; Errors counter should be > 0")
	}
	if snap.LargestObject < 6 {
		t.Fatalf("LargestObject = %d", snap.LargestObject)
	}
}

func TestConcurrentPutsDistinctKeys(t *testing.T) {
	stores := map[string]Store{"mem": NewMemStore()}
	ds, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores["disk"] = ds
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 32; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					key := fmt.Sprintf("k/%03d", i)
					payload := bytes.Repeat([]byte{byte(i)}, 1024)
					if err := s.Put(key, payload); err != nil {
						t.Error(err)
						return
					}
					got, err := s.Get(key)
					if err != nil || !bytes.Equal(got, payload) {
						t.Errorf("round trip %s failed: %v", key, err)
					}
				}(i)
			}
			wg.Wait()
			keys, err := s.List("k/")
			if err != nil || len(keys) != 32 {
				t.Fatalf("List = %d keys, %v", len(keys), err)
			}
		})
	}
}

func TestRemoteConcurrentClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			key := fmt.Sprintf("client%d/obj", i)
			payload := bytes.Repeat([]byte{byte(i + 1)}, 100_000)
			if err := c.Put(key, payload); err != nil {
				t.Error(err)
				return
			}
			got, err := c.Get(key)
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("client %d mismatch: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestRemoteLargeObject(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 8<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := c.Put("big", payload); err != nil {
		t.Fatal(err)
	}
	n, err := c.Stat("big")
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("Stat = %d, %v", n, err)
	}
	got, err := c.Get("big")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large object mismatch: %v", err)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port should fail")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("x", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("x2", []byte("y")); err == nil {
		// A race is possible where the write is buffered; a follow-up
		// call must fail.
		if _, err2 := c.Get("x2"); err2 == nil {
			t.Fatal("client should fail after server close")
		}
	}
}

// The LIST reply is newline-joined on the server and split on the client;
// an empty payload is no keys, not one empty key.
func TestSplitJoinKeysProperty(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []int{0, 1, 2, 19, 1000} {
		prefix := fmt.Sprintf("n%d/", n)
		var keys []string
		for i := 0; i < n; i++ {
			keys = append(keys, fmt.Sprintf("%skey-%04d", prefix, i))
			if err := c.Put(keys[i], []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		back, err := c.List(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, keys) {
			t.Fatalf("%d keys came back as %d: %v", n, len(back), back)
		}
	}
}

func TestMemStoreRoundTripProperty(t *testing.T) {
	s := NewMemStore()
	f := func(payload []byte, suffix uint16) bool {
		key := fmt.Sprintf("p/%d", suffix)
		if err := s.Put(key, payload); err != nil {
			return false
		}
		got, err := s.Get(key)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("durable/obj", []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// A new store over the same directory sees the data — durability
	// across process restarts, which MemStore deliberately lacks.
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("durable/obj")
	if err != nil || string(got) != "persisted" {
		t.Fatalf("reopen lost data: %q, %v", got, err)
	}
	keys, err := s2.List("")
	if err != nil || len(keys) != 1 {
		t.Fatalf("List after reopen = %v, %v", keys, err)
	}
}

func TestDiskStoreIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("real", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A stray .tmp from a crashed writer must not surface as an object.
	if err := os.WriteFile(filepath.Join(dir, "ghost.tmp"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := s.List("")
	if err != nil || len(keys) != 1 || keys[0] != "real" {
		t.Fatalf("List = %v, %v", keys, err)
	}
}

// TestKeyRules: validKey accepts a key and List reads the store for a prefix
// unless it holds a NUL, a newline or "..", or starts with a slash, the set
// the checks rejected when they were three scans of the key; noKeyUnder
// reads the key once.
func TestKeyRules(t *testing.T) {
	for _, key := range []string{"k", "a/b", "jobs/x/in/A", "cache/c/0f", "a.b", "a/.b", "./a", ".a.", "a/b/", "x.y.z", ". .", "a./.b", "a//b", "-"} {
		if err := validKey(key); err != nil {
			t.Errorf("validKey(%q) = %v, want accepted", key, err)
		}
	}
	for _, key := range []string{"", "..", "a..b", "a/../b", "../a", "a/..", "...", "/a", "/", "//a", "a\x00b", "\x00", "a\nb", "\n", "a/b\n"} {
		if err := validKey(key); err == nil {
			t.Errorf("validKey(%q) accepted", key)
		}
	}
	for prefix, none := range map[string]bool{
		"": false, "k": false, "k/": false, "jobs/": false, ".": false, "a.": false, "a/.": false,
		"..": true, "../": true, "k/../../": true, "/": true, "/k": true, "k\x00": true, "k\n": true,
	} {
		if got := noKeyUnder(prefix); got != none {
			t.Errorf("noKeyUnder(%q) = %v, want %v", prefix, got, none)
		}
	}
	// The three scans, as a reference over every string of up to four bytes
	// drawn from the characters the rules look at.
	ref := func(p string) bool {
		return strings.ContainsAny(p, "\x00\n") || strings.Contains(p, "..") || strings.HasPrefix(p, "/")
	}
	alphabet := []byte{'a', '.', '/', 0, '\n'}
	var walk func(p []byte)
	walk = func(p []byte) {
		if got, want := noKeyUnder(string(p)), ref(string(p)); got != want {
			t.Fatalf("noKeyUnder(%q) = %v, the three scans say %v", p, got, want)
		}
		if len(p) == 4 {
			return
		}
		for _, c := range alphabet {
			walk(append(p, c))
		}
	}
	walk(nil)
}
