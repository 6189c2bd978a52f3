package chunkio

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"

	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
)

// Content addressing implements the paper's stated future work — "we plan
// to implement data caching to limit the cost of host-target
// communications": bytes already stored are not shipped again. Objects live
// under keys derived from their sha256, so the same bytes mapped under
// different variable names, or re-offloaded across jobs (an iterative
// workload re-sending its training matrix, the §II cellphone scenario),
// land on the same key. There are two granularities: whole buffers under
// "cache/<sha256>" and single chunks under "cache/c/<sha256>", so a
// partially-changed buffer whose whole-buffer key misses still reuses every
// clean chunk and resends only the dirty ones. Per-job cleanup never touches
// "cache/", which is what makes chunks durable across sessions; a wipe of
// "cache/" clears both granularities together.
const (
	contentPrefix = "cache/"
	chunkPrefix   = contentPrefix + "c/"
)

// ContentKey is the storage key of a whole buffer whose bytes hash to sum.
func ContentKey(sum [sha256.Size]byte) string { return keyOf(contentPrefix, sum) }

// ChunkKey is the storage key of one chunk whose bytes hash to sum.
func ChunkKey(sum [sha256.Size]byte) string { return keyOf(chunkPrefix, sum) }

// IsContentKey reports whether key lies in the content-addressed namespace.
func IsContentKey(key string) bool { return strings.HasPrefix(key, contentPrefix) }

// keyOf builds prefix + hex(sum) with the string's one allocation.
func keyOf(prefix string, sum [sha256.Size]byte) string {
	var b [len(chunkPrefix) + 2*sha256.Size]byte
	n := copy(b[:], prefix)
	hex.Encode(b[n:], sum[:])
	return string(b[:n+2*sha256.Size])
}

// chunkSumOf recovers the content hash a chunk key names: "cache/c/"
// followed by 64 lowercase hex digits, exactly what ChunkKey builds. Every
// fetch checks a chunk stored under such a key against it; any other key
// reports ok=false and is not checked. Decodes by hand: this runs once per
// chunk GET on the zero-alloc hot path, and hex.Decode would need a []byte
// conversion of the key.
func chunkSumOf(key string) (sum [sha256.Size]byte, ok bool) {
	if len(key) != len(chunkPrefix)+2*sha256.Size || key[:len(chunkPrefix)] != chunkPrefix {
		return sum, false
	}
	hx := key[len(chunkPrefix):]
	for i := 0; i < sha256.Size; i++ {
		hi, ok1 := unhex(hx[2*i])
		lo, ok2 := unhex(hx[2*i+1])
		if !ok1 || !ok2 {
			return [sha256.Size]byte{}, false
		}
		sum[i] = hi<<4 | lo
	}
	return sum, true
}

// unhex decodes one lowercase hex digit (the only case keyOf emits).
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// Index is the one answer to "is this content already stored?", at both
// granularities: a map from content key to the stored object's wire size.
// It is an availability hint, not a source of truth — a store can be wiped
// between jobs — so a hit is trusted only after a Stat finds the object, and
// a stale entry is forgotten. A miss costs no store op, a hit one Stat.
//
// With session set the index is also its session's upload cache: chunk
// lookups count as ChunkHits/ChunkMisses, and only hits on chunks Load found
// count as dedup. Without it every chunk hit counts as dedup: the index
// stands for what earlier uploads left in the store.
//
// Safe for concurrent use.
type Index struct {
	st      storage.Store
	session bool

	mu    sync.Mutex
	wire  map[string]indexEntry
	stats IndexStats

	load    sync.Once
	loaded  int
	loadErr error
}

type indexEntry struct {
	wire   int64
	loaded bool // found by Load rather than stored through this index
}

// IndexStats counts an Index's lookups. A hit is counted before its Stat
// check.
type IndexStats struct {
	// Hits and Misses count whole-buffer lookups; ChunkHits and
	// ChunkMisses count chunk lookups against the session's own entries
	// (zero without a session).
	Hits, Misses           int64
	ChunkHits, ChunkMisses int64
	// DedupHits/DedupBytes count the chunks (and their wire bytes) not
	// re-sent because an earlier session had stored them — reuse of data
	// Load found, or, without a session, of any earlier upload. Session
	// reuse counts under ChunkHits instead.
	DedupHits, DedupBytes int64
}

// NewIndex returns an empty index whose hits are checked against st.
func NewIndex(st storage.Store, session bool) *Index {
	return &Index{st: st, session: session, wire: make(map[string]indexEntry)}
}

// Load primes the index from the store — a List of "cache/c/" and a Stat of
// each key it returns — so a fresh session reuses the chunks earlier
// sessions left behind (what offload's Dedup switches on). Entries the index
// already holds keep their origin. The listing runs once per index; later
// calls report its result. Returns the number of chunks found.
func (x *Index) Load() (int, error) {
	x.load.Do(func() {
		keys, err := x.st.List(chunkPrefix)
		if err != nil {
			x.loadErr = err
			return
		}
		for _, key := range keys {
			size, err := x.st.Stat(key)
			if err != nil {
				continue // raced with a delete
			}
			x.mu.Lock()
			if _, ok := x.wire[key]; !ok {
				x.wire[key] = indexEntry{wire: size, loaded: true}
			}
			x.mu.Unlock()
			x.loaded++
		}
		if x.loaded > 0 {
			span.Metrics().Counter("cache.dedup.indexed").Add(int64(x.loaded))
		}
	})
	return x.loaded, x.loadErr
}

// Have reports the wire size of key's object when the index holds it and
// the store still does.
func (x *Index) Have(key string) (int64, bool) {
	chunk := strings.HasPrefix(key, chunkPrefix)
	x.mu.Lock()
	e, ok := x.wire[key]
	switch {
	case !chunk:
		count(&x.stats.Hits, &x.stats.Misses, ok)
	case x.session:
		count(&x.stats.ChunkHits, &x.stats.ChunkMisses, ok && !e.loaded)
	}
	x.mu.Unlock()
	if !ok {
		return 0, false
	}
	if _, err := x.st.Stat(key); err != nil {
		x.forget(key)
		return 0, false
	}
	if chunk && (e.loaded || !x.session) {
		x.mu.Lock()
		x.stats.DedupHits++
		x.stats.DedupBytes += e.wire
		x.mu.Unlock()
		m := span.Metrics()
		m.Counter("cache.dedup.hits").Inc()
		m.Counter("cache.dedup.bytes").Add(e.wire)
	}
	return e.wire, true
}

func count(hits, misses *int64, hit bool) {
	if hit {
		*hits++
	} else {
		*misses++
	}
}

// Remember records that key's object is now stored with the given wire
// size. Keys outside the content-addressed namespace are ignored.
func (x *Index) Remember(key string, wire int64) {
	if !IsContentKey(key) {
		return
	}
	x.mu.Lock()
	x.wire[key] = indexEntry{wire: wire}
	x.mu.Unlock()
}

// forget drops key: its object turned out to be gone.
func (x *Index) forget(key string) {
	x.mu.Lock()
	delete(x.wire, key)
	x.mu.Unlock()
}

// Stats reports the lookup counters.
func (x *Index) Stats() IndexStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.stats
}
