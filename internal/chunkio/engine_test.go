package chunkio

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

// entryPoint is one way into the chunk engine that stores a buffer: the
// store half alone, both halves released at once, or both halves released by
// a watermark. Each returns the store half's accounting and the bytes that
// came back through the fetch half.
type entryPoint struct {
	name string
	run  func(st storage.Store, key string, buf []byte, o Options) (*UploadResult, []byte, error)
}

var entryPoints = []entryPoint{
	{"Upload+DownloadInto", func(st storage.Store, key string, buf []byte, o Options) (*UploadResult, []byte, error) {
		up, err := Upload(st, key, buf, o)
		if err != nil {
			return nil, nil, err
		}
		back, _, err := download(st, key, len(buf), o)
		return up, back, err
	}},
	{"Pipe", func(st storage.Store, key string, buf []byte, o Options) (*UploadResult, []byte, error) {
		dst := make([]byte, len(buf))
		res, err := Pipe(st, key, buf, dst, o, nil)
		if err != nil {
			return nil, nil, err
		}
		return &res.Up, dst, nil
	}},
	{"OutStream", func(st storage.Store, key string, buf []byte, o Options) (*UploadResult, []byte, error) {
		dst := make([]byte, len(buf))
		s, err := NewOutStream(st, key, buf, dst, o, nil)
		if err != nil {
			return nil, nil, err
		}
		// An uneven frontier: chunks release in three batches.
		s.Advance(int64(len(buf) / 3))
		s.Advance(int64(len(buf)) - 1)
		s.Advance(int64(len(buf)))
		res, err := s.Finish()
		if err != nil {
			return nil, nil, err
		}
		return &res.Up, dst, nil
	}},
}

// snapshot reads every object of st.
func snapshot(t *testing.T, st storage.Store) map[string][]byte {
	t.Helper()
	keys, err := st.List("")
	if err != nil {
		t.Fatal(err)
	}
	objs := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if objs[k], err = st.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	return objs
}

// TestEntryPointsStoreIdenticalObjects runs the same payloads through every
// storing entry point and requires what one engine must give: byte-identical
// objects under identical keys, the same accounting, and the payload back.
func TestEntryPointsStoreIdenticalObjects(t *testing.T) {
	const chunk = 2 << 10
	plain := func(cs int) func(storage.Store) Options {
		return func(storage.Store) Options {
			return Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: cs, Parallel: 3}
		}
	}
	// compressible repeats every 512 bytes; stamping each chunk's index on it
	// keeps the chunks distinct, so only the seeded ones dedup.
	many := compressible(9*chunk+77, 301)
	for lo := 0; lo < len(many); lo += chunk {
		many[lo] = byte(0x80 + lo/chunk)
	}
	// warm shares its even chunks with many and differs in the odd ones:
	// storing it first leaves the chunk cache half warm.
	warm := append([]byte(nil), many...)
	for lo := chunk; lo < len(warm); lo += 2 * chunk {
		warm[lo+9] ^= 0x5a
	}
	for _, tc := range []struct {
		name    string
		buf     []byte
		opts    func(st storage.Store) Options
		seed    []byte // stored under "seed" with the same options first
		skip    string // entry point the row does not apply to
		chunks  int
		reused  int
		objects int
	}{
		{name: "empty", buf: nil, opts: plain(chunk), chunks: 1, objects: 1},
		{name: "one chunk", buf: compressible(chunk, 302), opts: plain(chunk), chunks: 1, objects: 1},
		{name: "one chunk adaptive", buf: compressible(chunk-5, 303), chunks: 1, objects: 1,
			opts: func(storage.Store) Options {
				return Options{Codec: xcompress.Codec{MinSize: 1, Algo: xcompress.AlgoAdaptive}, ChunkSize: chunk, WireBytesPerS: 1e6}
			}},
		{name: "many chunks", buf: many, opts: plain(chunk), chunks: 10, objects: 11},
		{name: "incompressible", buf: incompressible(5*chunk, 304), opts: plain(chunk), chunks: 5, objects: 6},
		{name: "unchunked", buf: many, opts: plain(-1), chunks: 1, objects: 1},
		// OutStream keeps fixed cuts whatever Options.CDC says: its producer
		// has not written the bytes content cuts would depend on.
		{name: "cdc", buf: incompressible(64<<10, 305), skip: "OutStream",
			opts: func(storage.Store) Options {
				return Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: chunk, Parallel: 3, CDC: true}
			}},
		{name: "content-addressed, half warm", buf: many, seed: warm, chunks: 10, reused: 5,
			opts: func(st storage.Store) Options { return cachedOptions(chunk, false, NewIndex(st, true)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var refName string
			var refUp *UploadResult
			var refObjs map[string][]byte
			for _, ep := range entryPoints {
				if ep.name == tc.skip {
					continue
				}
				st := storage.NewMemStore()
				o := tc.opts(st)
				if tc.seed != nil {
					if _, err := Upload(st, "seed", tc.seed, o); err != nil {
						t.Fatalf("%s: seeding: %v", ep.name, err)
					}
				}
				up, back, err := ep.run(st, "obj", tc.buf, o)
				if err != nil {
					t.Fatalf("%s: %v", ep.name, err)
				}
				if !bytes.Equal(back, tc.buf) {
					t.Fatalf("%s: payload did not come back byte-identical", ep.name)
				}
				objs := snapshot(t, st)
				if tc.chunks > 0 && up.Chunks != tc.chunks {
					t.Errorf("%s: Chunks = %d, want %d", ep.name, up.Chunks, tc.chunks)
				}
				if up.Reused != tc.reused {
					t.Errorf("%s: Reused = %d, want %d", ep.name, up.Reused, tc.reused)
				}
				if tc.objects > 0 && len(objs) != tc.objects {
					t.Errorf("%s: store holds %d objects, want %d", ep.name, len(objs), tc.objects)
				}
				if refObjs == nil {
					refName, refUp, refObjs = ep.name, up, objs
					continue
				}
				if up.Chunks != refUp.Chunks || up.TotalWire != refUp.TotalWire || up.SentWire != refUp.SentWire ||
					up.Reused != refUp.Reused || up.ReusedRaw != refUp.ReusedRaw {
					t.Errorf("%s reports chunks=%d total=%d sent=%d reused=%d/%d, %s reports chunks=%d total=%d sent=%d reused=%d/%d",
						ep.name, up.Chunks, up.TotalWire, up.SentWire, up.Reused, up.ReusedRaw,
						refName, refUp.Chunks, refUp.TotalWire, refUp.SentWire, refUp.Reused, refUp.ReusedRaw)
				}
				if len(objs) != len(refObjs) {
					t.Errorf("%s stored %d objects, %s stored %d", ep.name, len(objs), refName, len(refObjs))
				}
				for k, want := range refObjs {
					if got, ok := objs[k]; !ok {
						t.Errorf("%s did not store %s, which %s did", ep.name, k, refName)
					} else if !bytes.Equal(got, want) {
						t.Errorf("%s and %s disagree on the bytes of %s", ep.name, refName, k)
					}
				}
			}
		})
	}
}

// TestFailedStoreLeavesNoParts is the one failure rule on every entry point:
// a transfer that dies mid-flight (some parts stored, then the store starts
// failing) deletes the parts it stored, commits no manifest and leaks no
// goroutines — except content-addressed chunks, which are shared cache
// entries another manifest may reference and a resumed run reuses. Run with
// -race.
func TestFailedStoreLeavesNoParts(t *testing.T) {
	// Every 1 KiB chunk differs, so the content-addressed rows store each
	// one instead of reusing the first.
	src := make([]byte, 16<<10)
	for i := range src {
		src[i] = byte(i*31 + i>>10)
	}
	for _, ep := range entryPoints {
		for _, addressed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/addressed=%v", ep.name, addressed), func(t *testing.T) {
				o := streamTestOptions(1 << 10)
				ms := storage.NewMemStore()
				match := ".part"
				if addressed {
					match = "cache/c/"
					o.Index = NewIndex(ms, true)
				}
				// Let the first three part PUTs land, then kill every further
				// one: the failure arrives with orphan candidates in the store.
				fs := storage.WithFaults(ms, faults.New(1).Add(faults.Entry{
					Op:   "put",
					Key:  match,
					Skip: 3,
					Err:  fmt.Errorf("mid-flight death"),
				}))
				before := runtime.NumGoroutine()
				if _, _, err := ep.run(fs, "jobs/000001/in/a", src, o); err == nil {
					t.Fatal("a failing store must fail the transfer")
				}
				keys, err := ms.List("")
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case !addressed && len(keys) != 0:
					t.Fatalf("failed transfer orphaned %d objects: %v", len(keys), keys)
				case addressed && len(keys) == 0:
					t.Fatal("content-addressed chunks must survive a failed transfer")
				}
				for _, k := range keys {
					if !strings.HasPrefix(k, "cache/c/") {
						t.Fatalf("failed transfer left %s behind", k)
					}
				}
				waitGoroutines(t, before)
			})
		}
	}
}

// hostileManifest frames a manifest body the way the store would hold it.
func hostileManifest(body string) []byte {
	return append([]byte{xcompress.TagChunked}, body...)
}

// overflowManifest claims 16 raw bytes in three chunks whose sizes wrap an
// int64 sum back to exactly 16.
var overflowManifest = hostileManifest(`{"version":1,"chunk_size":8,"raw_size":16,"chunks":[` +
	`{"key":"a","raw":9223372036854775807,"wire":1},` +
	`{"key":"b","raw":9223372036854775807,"wire":1},` +
	`{"key":"c","raw":18,"wire":1}]}`)

// hugeManifest is ~130 bytes claiming one 1 TiB chunk.
var hugeManifest = hostileManifest(`{"version":1,"chunk_size":1099511627776,"raw_size":1099511627776,"chunks":[` +
	`{"key":"a","raw":1099511627776,"wire":1}]}`)

// TestDownloadManifestSizeOverflow: chunk sizes are stored numbers, and a
// manifest whose sizes overflow back into range must read as corruption
// (transient: the retry ladder re-fetches, then the host falls back) — the
// parent summed them unchecked and a worker sliced dst[:-2].
func TestDownloadManifestSizeOverflow(t *testing.T) {
	st := storage.NewMemStore()
	for _, k := range []string{"a", "b", "c"} {
		if err := st.Put(k, []byte{0}); err != nil { // an empty raw frame each
			t.Fatal(err)
		}
	}
	if err := st.Put("obj", overflowManifest); err != nil {
		t.Fatal(err)
	}
	_, err := DownloadInto(st, "obj", make([]byte, 16), Options{Parallel: 1})
	if err == nil || !resilience.IsTransient(err) {
		t.Fatalf("overflowing manifest must fail as transient corruption, got %v", err)
	}
}

// TestDownloadSizesNothingFromStoredNumbers: the destination is the
// caller's, so a manifest claiming a terabyte is refused for disagreeing
// with it and costs no more memory than its own bytes. (The allocating
// Download this package used to export sized make() from that number and
// died with an unrecoverable out-of-memory error.)
func TestDownloadSizesNothingFromStoredNumbers(t *testing.T) {
	st := storage.NewMemStore()
	if err := st.Put("obj", hugeManifest); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DownloadInto(st, "obj", dst, Options{})
	runtime.ReadMemStats(&after)
	if err == nil || !resilience.IsPermanent(err) {
		t.Fatalf("a manifest disagreeing with the destination must fail permanently, got %v", err)
	}
	// One pooled wire buffer at most, on a cold pool.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("refusing a %d-byte manifest allocated %d bytes", len(hugeManifest), got)
	}
}

// rootOverlay serves one key from memory and everything else from the
// store beneath it, so the fuzz target swaps root objects without copying
// the fixture's parts. gets counts every Get.
type rootOverlay struct {
	storage.Store
	key  string
	root []byte
	gets *atomic.Int64
}

func (s rootOverlay) Get(key string) ([]byte, error) {
	s.gets.Add(1)
	if key == s.key {
		return append([]byte(nil), s.root...), nil
	}
	return s.Store.Get(key)
}

// FuzzDownloadRoot stores arbitrary bytes as the root object of a download:
// DownloadInto must return an error or a filled destination, never panic,
// and never allocate more than a constant multiple of the destination plus
// the stored bytes (plus the pools' fixed refills).
func FuzzDownloadRoot(f *testing.F) {
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: 1 << 10, Parallel: 2}
	base := storage.NewMemStore()
	payload := compressible(4*o.ChunkSize+321, 11)
	if _, err := Upload(base, "obj", payload, o); err != nil {
		f.Fatal(err)
	}
	valid, err := base.Get("obj")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(overflowManifest)
	f.Add(hugeManifest)
	f.Add(valid[:len(valid)/2]) // torn JSON
	f.Add(hostileManifest(fmt.Sprintf(`{"version":%d,"chunk_size":1,"raw_size":%d,"chunks":[]}`, manifestVersion+1, len(payload))))
	for _, v := range []xcompress.Verdict{xcompress.VerdictRaw, xcompress.VerdictGzip, xcompress.VerdictZero} {
		frame, err := o.Codec.AppendEncode(nil, payload, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})

	dst := make([]byte, len(payload))
	f.Fuzz(func(t *testing.T, root []byte) {
		for i := range dst {
			dst[i] = 0xEE
		}
		st := rootOverlay{Store: base, key: "obj", root: root, gets: new(atomic.Int64)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := DownloadInto(st, "obj", dst, o)
		runtime.ReadMemStats(&after)
		// 4 MiB covers a cold arena: one wire buffer per worker and one
		// (~1.1 MiB) for the root.
		limit := uint64(4<<20 + 128*(len(dst)+len(root)))
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("a %d-byte root made DownloadInto allocate %d bytes (limit %d)", len(root), got, limit)
		}
		if err != nil {
			return
		}
		if res == nil {
			t.Fatal("success without a result")
		}
		if bytes.Equal(root, valid) && !bytes.Equal(dst, payload) {
			t.Fatal("the valid manifest did not reproduce the payload")
		}
	})
}
