package chunkio

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

func TestChunkIndexLoadAcrossInstances(t *testing.T) {
	st := storage.NewMemStore()
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = ChunkKey(sha256.Sum256([]byte{byte(i)}))
		if err := st.Put(keys[i], make([]byte, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	whole := ContentKey(sha256.Sum256([]byte("a whole buffer")))
	for _, key := range []string{"jobs/a/in.0", whole} {
		if err := st.Put(key, []byte("not a chunk")); err != nil {
			t.Fatal(err)
		}
	}

	// A "second session" builds a fresh index over the same store.
	x := NewIndex(st, false)
	n, err := x.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("loaded %d chunks, want 5", n)
	}
	if wire, ok := x.Have(keys[4]); !ok || wire != 104 {
		t.Fatalf("Have(loaded chunk) = %d, %v; want 104, true", wire, ok)
	}
	if _, ok := x.Have(ChunkKey(sha256.Sum256([]byte("absent")))); ok {
		t.Fatal("absent chunk must miss")
	}
	for _, key := range []string{"jobs/a/in.0", whole} {
		if _, ok := x.Have(key); ok {
			t.Fatalf("Load must index cache/c/ only, yet %s hits", key)
		}
	}
	if s := x.Stats(); s.DedupHits != 1 || s.DedupBytes != 104 {
		t.Fatalf("dedup hits=%d bytes=%d, want 1/104", s.DedupHits, s.DedupBytes)
	}

	// The listing runs once per index.
	if err := st.Put(ChunkKey(sha256.Sum256([]byte("late"))), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, err := x.Load(); n != 5 || err != nil {
		t.Fatalf("second Load = %d, %v; want the first call's 5, nil", n, err)
	}
}

func TestChunkIndexRememberForget(t *testing.T) {
	st := storage.NewMemStore()
	key := ChunkKey(sha256.Sum256([]byte("aa")))
	for _, k := range []string{key, "jobs/other"} {
		if err := st.Put(k, []byte("stored")); err != nil {
			t.Fatal(err)
		}
	}
	x := NewIndex(st, true)
	x.Remember(key, 42)
	x.Remember("jobs/other", 7) // outside the namespace: ignored
	if wire, ok := x.Have(key); !ok || wire != 42 {
		t.Fatalf("Have(remembered) = %d, %v; want 42, true", wire, ok)
	}
	if _, ok := x.Have("jobs/other"); ok {
		t.Fatal("keys outside cache/ must not be indexed")
	}
	x.forget(key)
	if _, ok := x.Have(key); ok {
		t.Fatal("forgotten chunk must miss")
	}

	// A stale entry — its object wiped from the store — misses and is
	// forgotten, so the object's return does not revive it.
	x.Remember(key, 42)
	if err := st.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, ok := x.Have(key); ok {
		t.Fatal("a wiped chunk must not be reported as stored")
	}
	if err := st.Put(key, []byte("stored")); err != nil {
		t.Fatal(err)
	}
	if _, ok := x.Have(key); ok {
		t.Fatal("a stale entry must be forgotten")
	}
	if s := x.Stats(); s.ChunkHits != 2 || s.ChunkMisses != 2 || s.DedupHits != 0 {
		t.Fatalf("chunk hits=%d misses=%d dedup=%d, want 2/2/0", s.ChunkHits, s.ChunkMisses, s.DedupHits)
	}
}

func TestChunkSumOf(t *testing.T) {
	sum := sha256.Sum256([]byte("chunk payload"))
	got, ok := chunkSumOf(ChunkKey(sum))
	if !ok || got != sum {
		t.Fatal("round trip through ChunkKey must recover the hash")
	}
	for _, key := range []string{
		"jobs/000001/in/A.00001.part",                    // per-job part key
		ContentKey(sum),                                  // buffer, not chunk
		chunkPrefix + strings.Repeat("g", 2*sha256.Size), // not hex
		chunkPrefix + "abcd",                             // truncated
	} {
		if _, ok := chunkSumOf(key); ok {
			t.Fatalf("%q must not parse as a chunk key", key)
		}
	}
}

// wipeStore records, per chunk key, whether it was Put since the last wipe.
// A Put and a wipe of the same key are serialised, so the record is exact.
type wipeStore struct {
	storage.Store
	mu       sync.Mutex
	started  chan struct{} // closed at the third Put
	puts     int
	reStored map[string]bool
}

func (w *wipeStore) Put(key string, data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.puts++; w.puts == 3 {
		close(w.started)
	}
	w.reStored[key] = true
	return w.Store.Put(key, data)
}

// wipe deletes every chunk, as a store wiped between jobs would.
func (w *wipeStore) wipe() ([]string, error) {
	keys, err := w.Store.List(chunkPrefix)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		w.mu.Lock()
		w.reStored[k] = false
		err := w.Store.Delete(k)
		w.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return keys, nil
}

func (w *wipeStore) stored(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reStored[key]
}

// TestIndexConcurrent runs two uploads that share chunks through one index
// while a Load and a store wipe land mid-run. Run with -race: beyond that,
// a wiped chunk is never reported as stored unless something stored it
// again, a later pass through the same index reads back intact, and every
// lookup counts as exactly one hit or miss.
func TestIndexConcurrent(t *testing.T) {
	const chunk = 4 << 10
	a := make([]byte, 0, 48*chunk)
	for i := 0; i < 48; i++ {
		a = append(a, incompressible(chunk, int64(900+i))...)
	}
	b := append([]byte(nil), a...)
	for lo := chunk; lo < len(b); lo += 2 * chunk {
		b[lo+7] ^= 0x5a // b shares a's even chunks
	}
	st := &wipeStore{Store: storage.NewMemStore(), started: make(chan struct{}), reStored: map[string]bool{}}
	idx := NewIndex(st, true)
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: chunk, Parallel: 4, Index: idx}

	var lookups int64
	var mu sync.Mutex
	upload := func(key string, buf []byte) error {
		up, err := Upload(st, key, buf, o)
		if err == nil {
			mu.Lock()
			lookups += int64(up.Chunks)
			mu.Unlock()
		}
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, buf := range [][]byte{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = upload(fmt.Sprintf("run1/%d", i), buf)
		}()
	}
	<-st.started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[2] = idx.Load()
	}()
	wiped, err := st.wipe()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range wiped {
		if _, ok := idx.Have(k); ok && !st.stored(k) {
			t.Errorf("wiped chunk %s reported as stored", k)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	lookups += int64(len(wiped))

	// Every chunk the index now reports as stored is readable: a second
	// pass reuses what survived, resends what the wipe took, and reads
	// back byte-identical.
	for i, buf := range [][]byte{a, b} {
		key := fmt.Sprintf("run2/%d", i)
		if err := upload(key, buf); err != nil {
			t.Fatal(err)
		}
		back, _, err := download(st, key, len(buf), o)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if !bytes.Equal(back, buf) {
			t.Fatalf("%s did not read back byte-identical", key)
		}
	}
	if s := idx.Stats(); s.ChunkHits+s.ChunkMisses != lookups {
		t.Fatalf("hits %d + misses %d != %d lookups", s.ChunkHits, s.ChunkMisses, lookups)
	}
}

// FuzzContentKey drives the parser every fetch runs on manifest entry keys
// read from the store: it must not panic, must accept exactly "cache/c/"
// followed by 64 lowercase hex digits, and must round-trip with ChunkKey.
func FuzzContentKey(f *testing.F) {
	sum := sha256.Sum256([]byte("seed"))
	f.Add(ChunkKey(sum))
	f.Add(ContentKey(sum))
	f.Add(strings.ToUpper(ChunkKey(sum)))
	f.Add(ChunkKey(sum)[:len(chunkPrefix)+63])
	f.Add(ChunkKey(sum) + "0")
	f.Add("jobs/000001/in/A.00001.part")
	f.Add("")
	f.Fuzz(func(t *testing.T, key string) {
		got, ok := chunkSumOf(key)
		hx, found := strings.CutPrefix(key, chunkPrefix)
		want := found && len(hx) == 2*sha256.Size
		for i := 0; want && i < len(hx); i++ {
			want = strings.IndexByte("0123456789abcdef", hx[i]) >= 0
		}
		if ok != want {
			t.Fatalf("chunkSumOf(%q) ok = %v, want %v", key, ok, want)
		}
		if ok && ChunkKey(got) != key {
			t.Fatalf("ChunkKey(chunkSumOf(%q)) = %q", key, ChunkKey(got))
		}
		if !ok && got != [sha256.Size]byte{} {
			t.Fatalf("a rejected key returned sum %x", got)
		}
		s := sha256.Sum256([]byte(key))
		if back, ok := chunkSumOf(ChunkKey(s)); !ok || back != s {
			t.Fatalf("ChunkKey(%x) does not parse back", s)
		}
	})
}
