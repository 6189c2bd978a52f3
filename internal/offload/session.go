package offload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ompcloud/internal/chunkio"
)

// This file implements resumable offload sessions: a session journal
// persisted through the storage layer lets a killed-and-restarted
// ompcloud-run pick an offload back up instead of starting over. The journal
// records the input objects' content-addressed keys (so a resumed process
// primes its upload cache and skips already-uploaded chunks), and every
// finished tile commits its raw outputs to a per-session object — the
// completed-tile watermark. On resume, committed tiles are served from
// storage and only uncommitted tiles recompute; reconstruction still applies
// tiles in index order, so resumed outputs stay bitwise identical, including
// order-sensitive float reductions.
//
// Sessions are keyed by content — kernel, N, tile count, scalars, and the
// sha256 of every input buffer — so a restarted identical invocation finds
// its predecessor's journal with no coordination channel beyond the store
// itself. A session that runs to completion deletes its objects; only
// interrupted offloads leave state behind.

// sessionJournalVersion versions the journal layout.
const sessionJournalVersion = 1

// journalInput records one uploaded input for cache priming on resume.
type journalInput struct {
	Name string `json:"name"`
	Key  string `json:"key"`
	Wire int64  `json:"wire"`
}

// sessionJournal is the JSON object at sessions/<id>/journal.
type sessionJournal struct {
	Version int            `json:"version"`
	Kernel  string         `json:"kernel"`
	N       int64          `json:"n"`
	Tiles   int            `json:"tiles"`
	Inputs  []journalInput `json:"inputs,omitempty"`
}

// session is one region run's resumable state.
type session struct {
	p      *CloudPlugin
	prefix string // sessions/<id>
	tiles  int

	mu        sync.Mutex
	committed map[int]bool // tiles with a durable result object
	resumed   atomic.Int64 // tiles served from commits this run
}

// sessionID derives the deterministic session identity of a region run.
func sessionID(r *Region, tiles int, ins []bound) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|%s|%d|%d|", sessionJournalVersion, r.Kernel, r.N, tiles)
	for _, s := range r.Scalars {
		binary.Write(h, binary.LittleEndian, s)
	}
	for k := range r.Ins {
		fmt.Fprintf(h, "|in:%s:", r.Ins[k].Name)
		sum := ins[k].contentSum()
		h.Write(sum[:])
	}
	for l := range r.Outs {
		fmt.Fprintf(h, "|out:%s:%d:%d", r.Outs[l].Name, len(r.Outs[l].Data), r.Outs[l].Reduce)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// openSession loads (or starts) the session for a region run and, when a
// journal from an interrupted predecessor exists, primes the upload cache
// with the recorded input objects. The existing Stat verification on every
// cache hit keeps a stale journal harmless: a wiped store just misses.
func (p *CloudPlugin) openSession(r *Region, tiles int, ins []bound) *session {
	s := &session{
		p:         p,
		prefix:    "sessions/" + sessionID(r, tiles, ins),
		tiles:     tiles,
		committed: make(map[int]bool),
	}
	if blob, err := p.cfg.Store.Get(s.prefix + "/journal"); err == nil {
		var j sessionJournal
		if json.Unmarshal(blob, &j) == nil && j.Version == sessionJournalVersion &&
			j.Kernel == r.Kernel && j.Tiles == tiles {
			if p.cfg.EnableCache {
				for _, in := range j.Inputs {
					p.index.Remember(in.Key, in.Wire)
				}
			}
			p.logf("offload: session %s: resuming (journal found, %d inputs primed)",
				s.prefix, len(j.Inputs))
		}
	}
	keys, err := p.cfg.Store.List(s.prefix + "/tiles/")
	if err == nil {
		for _, k := range keys {
			idx := strings.LastIndexByte(k, '/')
			if t, err := strconv.Atoi(k[idx+1:]); err == nil && t >= 0 && t < tiles {
				s.committed[t] = true
			}
		}
	}
	if n := len(s.committed); n > 0 {
		p.logf("offload: session %s: %d/%d tiles already committed", s.prefix, n, tiles)
	}
	return s
}

// writeJournal persists the session metadata once the input objects are
// durable. Keys are only recorded when content-addressed (cache enabled):
// job-prefixed keys are deleted with their job and would be dead weight.
func (s *session) writeJournal(r *Region, ins []bound) {
	j := sessionJournal{
		Version: sessionJournalVersion,
		Kernel:  r.Kernel,
		N:       r.N,
		Tiles:   s.tiles,
	}
	for k := range ins {
		if chunkio.IsContentKey(ins[k].key) {
			j.Inputs = append(j.Inputs, journalInput{
				Name: r.Ins[k].Name, Key: ins[k].key, Wire: ins[k].wire,
			})
		}
	}
	blob, err := json.Marshal(&j)
	if err != nil {
		return
	}
	pol := s.p.retryPolicy(nil)
	_, _ = pol.Do(func() error { return s.p.cfg.Store.Put(s.prefix+"/journal", blob) })
}

// tileKey is the commit object of one tile.
func (s *session) tileKey(t int) string { return fmt.Sprintf("%s/tiles/%05d", s.prefix, t) }

// lookupTile serves a committed tile's outputs from the session, or reports
// false so the caller recomputes — also when the commit does not decode or
// its outputs are not exactly the tile's sizes: a corrupt commit degrades to
// recomputation, never to wrong output.
func (s *session) lookupTile(t int, sizes []int64) ([][]byte, bool) {
	s.mu.Lock()
	have := s.committed[t]
	s.mu.Unlock()
	if !have {
		return nil, false
	}
	blob, err := s.p.cfg.Store.Get(s.tileKey(t))
	if err != nil {
		return nil, false
	}
	outs, err := decodeTileOuts(blob)
	if err == nil && len(outs) != len(sizes) {
		err = fmt.Errorf("%d outputs, want %d", len(outs), len(sizes))
	}
	for i := 0; err == nil && i < len(outs); i++ {
		if int64(len(outs[i])) != sizes[i] {
			err = fmt.Errorf("output %d is %d bytes, want %d", i, len(outs[i]), sizes[i])
		}
	}
	if err != nil {
		s.p.logf("offload: session %s: tile %d commit unusable (%v), recomputing", s.prefix, t, err)
		return nil, false
	}
	s.resumed.Add(1)
	return outs, true
}

// commitTile durably records a finished tile's outputs — the idempotent
// result commit: racing speculative copies write identical bytes, and a
// re-run of a committed tile is skipped entirely. Commit failures are
// logged, not fatal: the session degrades to recomputing the tile on resume.
func (s *session) commitTile(t int, outs [][]byte) {
	blob := encodeTileOuts(outs)
	pol := s.p.retryPolicy(nil)
	if _, err := pol.Do(func() error { return s.p.cfg.Store.Put(s.tileKey(t), blob) }); err != nil {
		s.p.logf("offload: session %s: tile %d commit failed: %v", s.prefix, t, err)
		return
	}
	s.mu.Lock()
	s.committed[t] = true
	s.mu.Unlock()
}

// resumedTiles reports how many tiles this run served from commits.
func (s *session) resumedTiles() int { return int(s.resumed.Load()) }

// finish deletes the session's objects: a completed offload needs no resume
// state. Best effort — leftover state is re-usable, not harmful.
func (s *session) finish() {
	s.p.cleanup(s.prefix)
}

// encodeTileOuts frames a tile's output buffers: a count, then per-buffer
// lengths, then the raw bytes. The frame is byte-exact — these are the bits
// reconstruction will apply, so no codec may touch them lossily (gzip would
// be safe but the objects are small tile slices; plain framing keeps the
// commit cheap and the decode trivially verifiable).
func encodeTileOuts(outs [][]byte) []byte {
	n := 8 * (1 + len(outs))
	for _, o := range outs {
		n += len(o)
	}
	blob := make([]byte, 0, n)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(outs)))
	for _, o := range outs {
		blob = binary.LittleEndian.AppendUint64(blob, uint64(len(o)))
	}
	for _, o := range outs {
		blob = append(blob, o...)
	}
	return blob
}

// decodeTileOuts parses an encodeTileOuts frame.
func decodeTileOuts(blob []byte) ([][]byte, error) {
	if len(blob) < 8 {
		return nil, fmt.Errorf("tile commit: short frame (%d bytes)", len(blob))
	}
	count := binary.LittleEndian.Uint64(blob)
	if count > 1<<20 {
		return nil, fmt.Errorf("tile commit: implausible buffer count %d", count)
	}
	head := 8 * (1 + int(count))
	if len(blob) < head {
		return nil, fmt.Errorf("tile commit: truncated header")
	}
	outs := make([][]byte, count)
	off := head
	for i := range outs {
		ln := int(binary.LittleEndian.Uint64(blob[8*(1+i):]))
		if ln < 0 || ln > len(blob)-off { // off+ln could wrap
			return nil, fmt.Errorf("tile commit: buffer %d overruns frame", i)
		}
		outs[i] = blob[off : off+ln : off+ln]
		off += ln
	}
	if off != len(blob) {
		return nil, fmt.Errorf("tile commit: %d trailing bytes", len(blob)-off)
	}
	return outs, nil
}
