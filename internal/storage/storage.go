// Package storage implements the cloud file-storage leg of the OmpCloud data
// path (Fig. 1 of the paper): the host runtime writes each offloaded buffer
// as a binary object (step 2), the Spark driver reads it back (step 3),
// writes the reconstructed outputs (step 7) and the host downloads them
// (step 8). It plays the role of AWS S3 / HDFS / Azure Storage behind a
// single Store interface, with three backends: in-memory, on-disk, and a
// remote store speaking an S3-like protocol over TCP.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"ompcloud/internal/arena"
)

// ErrNotFound is returned when a key does not exist.
var ErrNotFound = errors.New("storage: object not found")

// Store is the object-store abstraction the offloading plugin talks to.
// Implementations must be safe for concurrent use: the plugin uploads every
// mapped buffer on its own goroutine (paper §III.A).
type Store interface {
	// Put stores data under key, overwriting any previous object.
	Put(key string, data []byte) error
	// Get returns a copy of the object stored under key.
	Get(key string) ([]byte, error)
	// Delete removes key. Deleting a missing key is not an error: the
	// host plugin cleans up optimistically after a job.
	Delete(key string) error
	// List returns all keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Stat reports the stored size of key.
	Stat(key string) (int64, error)
}

// AppendGetter is an optional Store extension for allocation-free reads:
// the object's bytes are appended to a caller-owned buffer instead of a
// freshly allocated copy. The chunked-transfer GET hot path uses it with a
// pooled wire buffer so a warm download performs zero allocations per chunk.
// MemStore, DiskStore and RemoteStore (the client every deployment uses)
// read natively into dst; Metered and PrefixStore forward to what they wrap.
type AppendGetter interface {
	// GetAppend appends the object stored under key to dst and returns the
	// extended slice. On error the returned slice is dst unmodified.
	GetAppend(key string, dst []byte) ([]byte, error)
}

// GetAppend reads key from st into dst's spare capacity, using the store's
// native AppendGetter when it has one and falling back to Get plus a copy
// otherwise. Wrappers that must observe every read (WithFaults' schedule,
// Throttled's pacing) deliberately don't implement AppendGetter, and the
// fallback keeps their semantics intact.
func GetAppend(st Store, key string, dst []byte) ([]byte, error) {
	if ag, ok := st.(AppendGetter); ok {
		return ag.GetAppend(key, dst)
	}
	b, err := st.Get(key)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// PartsPutter is an optional Store extension for copy-free writes: the
// object is head followed by body, and the store writes the two parts
// itself instead of being handed one buffer holding both. The chunked PUT
// hot path stores a raw chunk as its one-byte frame tag and its window of
// the caller's buffer this way. RemoteStore writes both straight to the
// socket; Metered and PrefixStore forward to what they wrap.
type PartsPutter interface {
	// PutParts stores head followed by body under key, overwriting any
	// previous object.
	PutParts(key string, head, body []byte) error
}

// joinMax is the largest object PutParts's fallback joins in pooled
// scratch; a larger one (a whole buffer stored unchunked) gets a buffer of
// its own rather than being parked in the pool.
const joinMax = 4 << 20

// joinBufs pools the fallback's joined objects. Put copies, so a buffer is
// free again the moment Put returns.
var joinBufs = sync.Pool{New: func() any { return new([]byte) }}

// PutParts stores head followed by body under key, through the store's
// native PartsPutter when it has one. Any other store is handed one buffer
// holding both — in pooled scratch, unless one part is empty and is the
// object — through its Put, so wrappers that must see every write
// (WithFaults, Throttled) still see this one.
func PutParts(st Store, key string, head, body []byte) error {
	if pp, ok := st.(PartsPutter); ok {
		return pp.PutParts(key, head, body)
	}
	switch n := len(head) + len(body); {
	case len(body) == 0:
		return st.Put(key, head)
	case len(head) == 0:
		return st.Put(key, body)
	case n > joinMax:
		return st.Put(key, append(append(make([]byte, 0, n), head...), body...))
	}
	bp := joinBufs.Get().(*[]byte)
	obj := append(append((*bp)[:0], head...), body...)
	err := st.Put(key, obj)
	*bp = obj[:0] // keep the grown buffer
	joinBufs.Put(bp)
	return err
}

// StreamGetter is an optional Store extension for copy-free reads: the
// object's bytes are handed to the caller as a reader, so they can land
// wherever the caller decides as they arrive. The chunked GET hot path reads
// a raw chunk's body straight into its destination window this way.
// RemoteStore streams off the socket; Metered and PrefixStore forward to
// what they wrap.
type StreamGetter interface {
	// GetStream calls fn with the size of the object stored under key and a
	// reader of exactly that many bytes, valid until fn returns, and returns
	// the size and fn's error. A wrapper whose inner store cannot stream
	// returns errors.ErrUnsupported without calling fn.
	GetStream(key string, fn func(size int64, r io.Reader) error) (int64, error)
}

// GetStream streams key's object through fn when st can (StreamGetter).
// Otherwise it returns errors.ErrUnsupported having done nothing, and the
// caller reads the object another way (GetAppend): a stream over a copy the
// store has already made would only copy it again.
func GetStream(st Store, key string, fn func(size int64, r io.Reader) error) (int64, error) {
	if sg, ok := st.(StreamGetter); ok {
		return sg.GetStream(key, fn)
	}
	return 0, errors.ErrUnsupported
}

// ownedStore is the copy-free path between a Server and the store it fronts,
// for stores whose objects' bytes are never written while they are stored or
// while anyone reads them. It stays unexported: the public Put keeps its
// "copies on Put" contract (chunkio recycles its encode buffers on it), and
// only Server — which reads a PUT body into a buffer nobody else holds and
// writes a GET reply without modifying it — can promise what these two
// methods require.
type ownedStore interface {
	// putOwned stores data itself, not a copy; the caller must not touch
	// data afterwards, whether or not the call succeeds. An object of an
	// inArena size must be arena memory.
	putOwned(key string, data []byte) error
	// getShared returns the stored object itself, held for the caller until
	// it calls release; the caller must not modify its bytes.
	getShared(key string) (object, error)
}

// putOwned hands data over to st when st can take ownership. Otherwise it
// falls back to the copying Put, so wrappers that must see every write
// (WithFaults, Throttled) are never bypassed, and gives data back to the
// arena once Put has copied it.
func putOwned(st Store, key string, data []byte) error {
	if o, ok := st.(ownedStore); ok {
		return o.putOwned(key, data)
	}
	defer freeObject(data)
	return st.Put(key, data)
}

// getShared is the read mirror of putOwned: a store without the hook hands
// over a private copy, which release leaves to the garbage collector.
func getShared(st Store, key string) (object, error) {
	if o, ok := st.(ownedStore); ok {
		return o.getShared(key)
	}
	b, err := st.Get(key)
	return object{data: b}, err
}

// objectMin is the smallest object whose bytes come from the arena. Smaller
// ones stay plain allocations: recycling the daemon's 4 KiB chunks cost its
// jobs more time than zeroing them did.
const objectMin = 64 << 10

// inArena reports whether an n-byte object's bytes are arena memory: from
// objectMin up to eagerAllocMax, past which a PUT body grows as it arrives
// (readBody); MemStore.Put's copy follows the same rule.
func inArena(n uint64) bool { return n >= objectMin && n <= eagerAllocMax }

// newObject returns the bytes of an n-byte object, arena memory and dirty
// when inArena(n).
func newObject(n int) []byte {
	if inArena(uint64(n)) {
		return arena.Get(n)
	}
	return make([]byte, n)
}

// freeObject gives an object's bytes that nothing references any more back
// to the arena when they came from there.
func freeObject(b []byte) {
	if inArena(uint64(len(b))) {
		arena.Put(b)
	}
}

// object is one stored object's bytes and, when they are arena memory, their
// reference count: the store's own reference while the object is stored,
// plus one per reader — a Get or GetAppend copying it, a Server reply being
// written from it. Whoever drops the last reference gives the bytes back, so
// they are never written while the object is stored or while anyone reads
// it. A plain allocation has no count and is the garbage collector's.
type object struct {
	data []byte
	refs *atomic.Int32
}

// storedObject makes data an object whose one reference is the store's.
func storedObject(data []byte) object {
	o := object{data: data}
	if inArena(uint64(len(data))) {
		o.refs = new(atomic.Int32)
		o.refs.Store(1)
	}
	return o
}

// hold takes a reader's reference. The caller holds the store's lock, under
// which the object is still stored.
func (o object) hold() {
	if o.refs != nil {
		o.refs.Add(1)
	}
}

// release drops one reference, giving the bytes back with the last.
func (o object) release() {
	if o.refs != nil && o.refs.Add(-1) == 0 {
		arena.Put(o.data)
	}
}

// validKey rejects keys that would be unsafe as file names or wire strings.
func validKey(key string) error {
	if key == "" {
		return fmt.Errorf("storage: empty key")
	}
	if noKeyUnder(key) {
		return fmt.Errorf("storage: invalid key %q", key)
	}
	return nil
}

// noKeyUnder reports whether validKey rejects every key that starts with
// prefix, so List may answer empty without reading the store: one holding a
// NUL, a newline or "..", or starting with a slash. A List prefix arrives
// unchecked from the wire, and one holding ".." or a leading slash would
// otherwise point DiskStore's walk outside its root. It reads prefix once.
func noKeyUnder(prefix string) bool {
	for i := 0; i < len(prefix); i++ {
		c := prefix[i]
		if c > '/' {
			continue // every byte the rules look at is '/' or below
		}
		switch c {
		case 0, '\n':
			return true
		case '/':
			if i == 0 {
				return true
			}
		case '.':
			if i > 0 && prefix[i-1] == '.' {
				return true
			}
		}
	}
	return false
}

// keyDir is the directory part of a key: everything up to and including its
// last slash, "" for a key without one.
func keyDir(key string) string { return key[:strings.LastIndexByte(key, '/')+1] }

// MemStore is an in-process Store, the default substrate for tests and
// in-process cluster simulations.
type MemStore struct {
	mu sync.RWMutex
	// dirs holds the objects by directory, so List reads only the part of
	// the key space under its prefix. Every ancestor of a directory that
	// holds an object is present (the root "" included), and a directory is
	// dropped once it holds neither objects nor subdirectories.
	dirs map[string]*memDir
}

// memDir is one directory of a MemStore: the objects directly in it, by
// full key, and the full names of its immediate subdirectories.
type memDir struct {
	objects map[string]object
	subdirs map[string]struct{}
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{dirs: make(map[string]*memDir)}
}

// dir returns directory d, creating it and any missing ancestor. Callers
// hold mu.
func (s *MemStore) dir(d string) *memDir {
	e := s.dirs[d]
	if e == nil {
		e = &memDir{objects: make(map[string]object), subdirs: make(map[string]struct{})}
		s.dirs[d] = e
		if d != "" {
			s.dir(keyDir(d[:len(d)-1])).subdirs[d] = struct{}{}
		}
	}
	return e
}

// lookup returns the object stored under key. Callers hold mu.
func (s *MemStore) lookup(key string) (object, bool) {
	e := s.dirs[keyDir(key)]
	if e == nil {
		return object{}, false
	}
	obj, ok := e.objects[key]
	return obj, ok
}

// collect appends every key in directory d and below it. Callers hold mu.
func (s *MemStore) collect(keys []string, d string) []string {
	e := s.dirs[d]
	for k := range e.objects {
		keys = append(keys, k)
	}
	for sub := range e.subdirs {
		keys = s.collect(keys, sub)
	}
	return keys
}

// Put implements Store: the object is a private copy of data.
func (s *MemStore) Put(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	cp := newObject(len(data))
	copy(cp, data)
	s.store(key, cp)
	return nil
}

// putOwned implements ownedStore: data itself becomes the stored object.
func (s *MemStore) putOwned(key string, data []byte) error {
	if err := validKey(key); err != nil {
		freeObject(data)
		return err
	}
	s.store(key, data)
	return nil
}

// store makes data the object stored under key and drops the store's
// reference to the object it replaces.
func (s *MemStore) store(key string, data []byte) {
	obj := storedObject(data)
	s.mu.Lock()
	objects := s.dir(keyDir(key)).objects
	old := objects[key]
	objects[key] = obj
	s.mu.Unlock()
	old.release()
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]byte, error) {
	obj, err := s.getShared(key)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(obj.data))
	copy(cp, obj.data)
	obj.release()
	return cp, nil
}

// getShared implements ownedStore. Put and Delete replace or drop the map
// entry, and the bytes behind it go back to the arena only once the reader
// releases them, so a reader keeps seeing the object it asked for.
func (s *MemStore) getShared(key string) (object, error) {
	if err := validKey(key); err != nil {
		return object{}, err
	}
	s.mu.RLock()
	obj, ok := s.lookup(key)
	obj.hold()
	s.mu.RUnlock()
	if !ok {
		return object{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return obj, nil
}

// GetAppend implements AppendGetter: the object is copied into dst, with no
// intermediate allocation when dst has capacity.
func (s *MemStore) GetAppend(key string, dst []byte) ([]byte, error) {
	obj, err := s.getShared(key)
	if err != nil {
		return dst, err
	}
	dst = append(dst, obj.data...)
	obj.release()
	return dst, nil
}

// Delete implements Store. It drops every directory the deletion leaves
// empty.
func (s *MemStore) Delete(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	d := keyDir(key)
	e := s.dirs[d]
	if e == nil {
		s.mu.Unlock()
		return nil
	}
	old := e.objects[key]
	delete(e.objects, key)
	for d != "" && len(e.objects) == 0 && len(e.subdirs) == 0 {
		delete(s.dirs, d)
		child := d
		d = keyDir(child[:len(child)-1])
		e = s.dirs[d]
		delete(e.subdirs, child)
	}
	s.mu.Unlock()
	old.release()
	return nil
}

// List implements Store. It reads only prefix's directory — its keys and
// the names of its immediate subdirectories — and the subtrees of those
// subdirectories that lie under prefix, never the rest of the store.
func (s *MemStore) List(prefix string) ([]string, error) {
	var keys []string
	if noKeyUnder(prefix) {
		return keys, nil
	}
	s.mu.RLock()
	// Every key under prefix lies in its directory or below: what follows
	// that directory in prefix holds no slash, so a subdirectory either
	// lies wholly under prefix or holds no key that does.
	if e := s.dirs[keyDir(prefix)]; e != nil {
		for k := range e.objects {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		for sub := range e.subdirs {
			if strings.HasPrefix(sub, prefix) {
				keys = s.collect(keys, sub)
			}
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// Stat implements Store.
func (s *MemStore) Stat(key string) (int64, error) {
	if err := validKey(key); err != nil {
		return 0, err
	}
	s.mu.RLock()
	obj, ok := s.lookup(key)
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return int64(len(obj.data)), nil
}

// DiskStore persists objects as files under a root directory, one file per
// key (slashes in keys become subdirectories). It is the HDFS-flavoured
// backend for the standalone storage daemon.
type DiskStore struct {
	root string
	mu   sync.RWMutex // serializes multi-step file operations per store
}

// NewDiskStore creates (if needed) and opens a disk-backed store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &DiskStore{root: dir}, nil
}

func (s *DiskStore) path(key string) string { return filepath.Join(s.root, filepath.FromSlash(key)) }

// Put implements Store.
func (s *DiskStore) Put(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := os.Rename(tmp, p); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// Get implements Store.
func (s *DiskStore) Get(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := os.ReadFile(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return b, nil
}

// GetAppend implements AppendGetter by reading the file straight into dst's
// grown tail, skipping os.ReadFile's fresh allocation.
func (s *DiskStore) GetAppend(key string, dst []byte) ([]byte, error) {
	if err := validKey(key); err != nil {
		return dst, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := os.Open(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return dst, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return dst, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return dst, fmt.Errorf("storage: %w", err)
	}
	base := len(dst)
	dst = append(dst, make([]byte, int(fi.Size()))...)
	if _, err := io.ReadFull(f, dst[base:]); err != nil {
		return dst[:base], fmt.Errorf("storage: %w", err)
	}
	return dst, nil
}

// Delete implements Store.
func (s *DiskStore) Delete(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// List implements Store. The walk starts at prefix's directory, as
// MemStore.List does, and skips the subdirectories that hold no key under
// prefix; a directory that does not exist, or whose path runs through an
// object, holds no keys. A prefix no valid key can start with lists nothing,
// so the walk never leaves the root.
func (s *DiskStore) List(prefix string) ([]string, error) {
	var keys []string
	if noKeyUnder(prefix) {
		return keys, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	start := s.path(keyDir(prefix))
	err := filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if path == start && (errors.Is(err, os.ErrNotExist) || errors.Is(err, syscall.ENOTDIR)) {
				return filepath.SkipAll
			}
			return err
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if d.IsDir() {
			if path != start && !strings.HasPrefix(key, prefix) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(key, ".tmp") {
			return nil
		}
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// Stat implements Store.
func (s *DiskStore) Stat(key string) (int64, error) {
	if err := validKey(key); err != nil {
		return 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	fi, err := os.Stat(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}
	return fi.Size(), nil
}

// Metrics aggregates byte/operation counters across a store's lifetime.
type Metrics struct {
	Puts, Gets, Deletes     int64
	BytesIn, BytesOut       int64
	ListCalls, StatCalls    int64
	Errors                  int64
	LargestObject, LastSize int64
}

// Metered wraps a Store and counts traffic; the trace layer uses it to
// report exactly how many bytes crossed the host-target boundary.
type Metered struct {
	inner Store

	puts, gets, deletes  atomic.Int64
	bytesIn, bytesOut    atomic.Int64
	listCalls, statCalls atomic.Int64
	errs                 atomic.Int64
	largest, last        atomic.Int64
}

// NewMetered wraps inner with counters.
func NewMetered(inner Store) *Metered { return &Metered{inner: inner} }

func (m *Metered) note(err error) error {
	if err != nil {
		m.errs.Add(1)
	}
	return err
}

// notePut counts one Put of n bytes that returned err.
func (m *Metered) notePut(n int64, err error) error {
	if err == nil {
		m.puts.Add(1)
		m.bytesIn.Add(n)
		m.last.Store(n)
		for {
			cur := m.largest.Load()
			if n <= cur || m.largest.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	return m.note(err)
}

// noteGet counts one Get of n bytes that returned err.
func (m *Metered) noteGet(n int, err error) error {
	if err == nil {
		m.gets.Add(1)
		m.bytesOut.Add(int64(n))
	}
	return m.note(err)
}

// Put implements Store.
func (m *Metered) Put(key string, data []byte) error {
	return m.notePut(int64(len(data)), m.inner.Put(key, data))
}

// PutParts implements PartsPutter, forwarding to the inner store's two-part
// write (or PutParts's fallback) and counting one Put of the whole object.
func (m *Metered) PutParts(key string, head, body []byte) error {
	return m.notePut(int64(len(head)+len(body)), PutParts(m.inner, key, head, body))
}

// putOwned implements ownedStore: the same counters, the inner store's
// copy-free write when it has one.
func (m *Metered) putOwned(key string, data []byte) error {
	n := int64(len(data)) // data is the inner store's once it is handed over
	return m.notePut(n, putOwned(m.inner, key, data))
}

// Get implements Store.
func (m *Metered) Get(key string) ([]byte, error) {
	b, err := m.inner.Get(key)
	return b, m.noteGet(len(b), err)
}

// getShared implements ownedStore, handing the inner store's hold on the
// object to the caller.
func (m *Metered) getShared(key string) (object, error) {
	obj, err := getShared(m.inner, key)
	return obj, m.noteGet(len(obj.data), err)
}

// GetAppend implements AppendGetter, forwarding to the inner store's
// append path (or the Get fallback) and counting the bytes read.
func (m *Metered) GetAppend(key string, dst []byte) ([]byte, error) {
	out, err := GetAppend(m.inner, key, dst)
	return out, m.noteGet(len(out)-len(dst), err)
}

// GetStream implements StreamGetter, forwarding to the inner store's
// stream and counting the object's bytes. A read the inner store cannot
// stream is not an operation and counts nothing.
func (m *Metered) GetStream(key string, fn func(size int64, r io.Reader) error) (int64, error) {
	n, err := GetStream(m.inner, key, fn)
	if errors.Is(err, errors.ErrUnsupported) {
		return n, err
	}
	return n, m.noteGet(int(n), err)
}

// Delete implements Store.
func (m *Metered) Delete(key string) error {
	err := m.inner.Delete(key)
	if err == nil {
		m.deletes.Add(1)
	}
	return m.note(err)
}

// List implements Store.
func (m *Metered) List(prefix string) ([]string, error) {
	keys, err := m.inner.List(prefix)
	if err == nil {
		m.listCalls.Add(1)
	}
	return keys, m.note(err)
}

// Stat implements Store.
func (m *Metered) Stat(key string) (int64, error) {
	n, err := m.inner.Stat(key)
	if err == nil {
		m.statCalls.Add(1)
	}
	return n, m.note(err)
}

// Snapshot returns the current counter values.
func (m *Metered) Snapshot() Metrics {
	return Metrics{
		Puts: m.puts.Load(), Gets: m.gets.Load(), Deletes: m.deletes.Load(),
		BytesIn: m.bytesIn.Load(), BytesOut: m.bytesOut.Load(),
		ListCalls: m.listCalls.Load(), StatCalls: m.statCalls.Load(),
		Errors: m.errs.Load(), LargestObject: m.largest.Load(), LastSize: m.last.Load(),
	}
}

var (
	_ Store        = (*MemStore)(nil)
	_ Store        = (*DiskStore)(nil)
	_ Store        = (*Metered)(nil)
	_ AppendGetter = (*MemStore)(nil)
	_ AppendGetter = (*DiskStore)(nil)
	_ AppendGetter = (*Metered)(nil)
	_ AppendGetter = (*RemoteStore)(nil)
	_ PartsPutter  = (*Metered)(nil)
	_ StreamGetter = (*Metered)(nil)
	_ ownedStore   = (*MemStore)(nil)
	_ ownedStore   = (*Metered)(nil)
)
