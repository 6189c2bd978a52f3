package offload

import (
	"strings"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
)

// dedupConfig builds a chunked, dedup-enabled device over the given store,
// small chunks so a test-sized buffer still splits, sleepless retries.
func dedupConfig(st storage.Store) CloudConfig {
	return CloudConfig{
		Spec:       spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
		Store:      st,
		ChunkBytes: 4096,
		CDC:        true,
		Dedup:      true,
		RetryMax:   4,
		RetrySleep: func(time.Duration) {},
	}
}

func TestDedupAndCDCRequireChunkedPath(t *testing.T) {
	for name, cfg := range map[string]CloudConfig{
		"dedup": {Spec: spark.ClusterSpec{Workers: 1, CoresPerWorker: 1},
			Store: storage.NewMemStore(), ChunkBytes: -1, Dedup: true},
		"cdc": {Spec: spark.ClusterSpec{Workers: 1, CoresPerWorker: 1},
			Store: storage.NewMemStore(), ChunkBytes: -1, CDC: true},
	} {
		_, err := NewCloudPlugin(cfg)
		if err == nil {
			t.Fatalf("%s with sequential transfers must be rejected", name)
		}
		if !strings.Contains(err.Error(), "chunk-bytes") {
			t.Fatalf("%s error should name the conflicting knob: %v", name, err)
		}
	}
}

// TestCrossSessionDedup is the headline dedup scenario: a second plugin
// instance — a fresh process with no in-memory state, sharing only the
// storage service — re-offloads the same inputs and re-sends (almost)
// nothing, because per-job cleanup left the content-addressed chunks in
// place and the persistent index rediscovers them.
func TestCrossSessionDedup(t *testing.T) {
	st := storage.NewMemStore()
	n := int64(16 << 10)
	in := data.Generate(1, int(n), data.Dense, 77)

	out1 := make([]byte, 4*n)
	p1, err := NewCloudPlugin(dedupConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	first, err := p1.Run(scale2Region(n, in.Bytes(), out1))
	if err != nil {
		t.Fatal(err)
	}
	if first.BytesUploaded < n {
		t.Fatalf("cold session uploaded only %d bytes", first.BytesUploaded)
	}
	if chunks, _ := st.List("cache/c/"); len(chunks) < 2 {
		t.Fatalf("cleanup must leave content chunks behind, found %d", len(chunks))
	}

	// "Second session": a brand-new plugin over the same store.
	out2 := make([]byte, 4*n)
	p2, err := NewCloudPlugin(dedupConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	second, err := p2.Run(scale2Region(n, in.Bytes(), out2))
	if err != nil {
		t.Fatal(err)
	}
	if second.BytesUploaded*10 > first.BytesUploaded {
		t.Fatalf("dedup'd session re-sent %d of %d bytes",
			second.BytesUploaded, first.BytesUploaded)
	}
	stats := p2.CacheStats()
	if stats.DedupHits == 0 || stats.DedupBytes == 0 {
		t.Fatalf("index reuse not counted: %+v", stats)
	}
	for i := range in.V {
		if data.GetFloat(out2, i) != 2*in.V[i] {
			t.Fatalf("dedup'd run corrupted result at %d", i)
		}
	}
	// The dedup'd run is strictly cheaper on the host-target link.
	if second.HostTargetComm() >= first.HostTargetComm() {
		t.Fatalf("dedup comm %v should beat cold %v",
			second.HostTargetComm(), first.HostTargetComm())
	}
}

// TestDedupSurvivesStoreWipe: the index is an availability hint, not truth.
// When the chunks vanish behind the plugin's back, Stat verification forgets
// the stale entries and the run re-uploads instead of failing or serving
// phantom data.
func TestDedupSurvivesStoreWipe(t *testing.T) {
	st := storage.NewMemStore()
	n := int64(8 << 10)
	in := data.Generate(1, int(n), data.Dense, 78)
	p, err := NewCloudPlugin(dedupConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	keys, _ := st.List("cache/c/")
	for _, k := range keys {
		if err := st.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	out2 := make([]byte, 4*n)
	rep, err := p.Run(scale2Region(n, in.Bytes(), out2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesUploaded < n {
		t.Fatalf("wiped chunks must force a re-upload, sent %d", rep.BytesUploaded)
	}
	for i := range in.V {
		if data.GetFloat(out2, i) != 2*in.V[i] {
			t.Fatalf("post-wipe run corrupted result at %d", i)
		}
	}
}

// TestDedupChaosCorruptChunkHeals: a bit flip in a cached content chunk is
// caught by the end-to-end content hash its chunk key names and healed by a retry —
// the dedup'd cold path must not become a silent-corruption path.
func TestDedupChaosCorruptChunkHeals(t *testing.T) {
	sched := faults.New(1)
	n := int64(8 << 10)
	in := data.Generate(1, int(n), data.Dense, 79)
	p, err := NewCloudPlugin(dedupConfig(storage.WithFaults(storage.NewMemStore(), sched)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit (byte 100 — clear of the frame tag, which would
	// fail decode rather than exercise the hash) on one chunk GET.
	const flipBit = 100*8 + 3
	sched.Add(faults.Entry{Op: "get", Key: "cache/c/", Count: 1, Do: faults.Flip, Bit: flipBit})

	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	if sched.Fired(faults.Store) == 0 {
		t.Fatal("fault schedule never fired")
	}
	for i := range in.V {
		if data.GetFloat(out, i) != 2*in.V[i] {
			t.Fatalf("corrupt chunk served silently: wrong result at %d", i)
		}
	}
}

// TestDedupStacksWithSessionCache: with EnableCache on top, within-session
// repeats hit the whole-buffer cache (no chunk traffic at all) while a fresh
// session still dedups at chunk granularity; the counters keep the two
// layers distinguishable.
func TestDedupStacksWithSessionCache(t *testing.T) {
	st := storage.NewMemStore()
	n := int64(8 << 10)
	in := data.Generate(1, int(n), data.Dense, 80)

	cfg := dedupConfig(st)
	cfg.EnableCache = true
	p1, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*n)
	if _, err := p1.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	rep, err := p1.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesUploaded != 0 {
		t.Fatalf("within-session repeat uploaded %d bytes", rep.BytesUploaded)
	}
	if st := p1.CacheStats(); st.Hits == 0 || st.DedupHits != 0 {
		t.Fatalf("repeat should hit the buffer cache, not the index: %+v", st)
	}

	cfg2 := dedupConfig(st)
	cfg2.EnableCache = true
	p2, err := NewCloudPlugin(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	out2 := make([]byte, 4*n)
	rep2, err := p2.Run(scale2Region(n, in.Bytes(), out2))
	if err != nil {
		t.Fatal(err)
	}
	if st := p2.CacheStats(); st.DedupHits == 0 {
		t.Fatalf("fresh session should dedup via the index: %+v", st)
	}
	if rep2.BytesUploaded*10 > int64(len(in.Bytes())) {
		t.Fatalf("fresh session re-sent %d bytes", rep2.BytesUploaded)
	}
	for i := range in.V {
		if data.GetFloat(out2, i) != 2*in.V[i] {
			t.Fatalf("stacked-cache run corrupted result at %d", i)
		}
	}
}
