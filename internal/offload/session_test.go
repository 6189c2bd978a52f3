package offload

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"ompcloud/internal/chunkio"
	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
)

// resumeConfig is a resumable cloud device over the given store: sessions
// on, content cache on (journal priming needs it), no fallback masking.
func resumeConfig(st storage.Store) CloudConfig {
	return CloudConfig{
		Spec:        spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
		Store:       st,
		ChunkBytes:  1024,
		EnableCache: true,
		Resume:      true,
		Fallback:    FallbackFail,
		RetrySleep:  func(time.Duration) {},
	}
}

// TestResumeSkipsCommittedTiles is the kill-and-restart scenario: run one,
// sabotaged past its first few tiles, fails and leaves a session behind; run
// two, a fresh plugin over the same store, serves the committed tiles from
// the journal and recomputes only the rest — bitwise identical to a clean
// run. Covered in both dataflow modes.
func TestResumeSkipsCommittedTiles(t *testing.T) {
	for _, mode := range []struct {
		name    string
		overlap int
	}{{"overlap-on", 0}, {"overlap-off", -1}} {
		t.Run(mode.name, func(t *testing.T) {
			n := int64(4096)
			in := data.Generate(1, int(n), data.Dense, 11)

			// Clean reference output.
			want := make([]byte, 4*n)
			{
				cfg := resumeConfig(storage.NewMemStore())
				cfg.Overlap = mode.overlap
				p, err := NewCloudPlugin(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r := scale2Region(n, in.Bytes(), want)
				r.Tiles = 8
				if _, err := p.Run(r); err != nil {
					t.Fatal(err)
				}
			}

			st := storage.NewMemStore()

			// Run one: the last tile's task fails every attempt, so the job
			// dies after the earlier tiles committed their results.
			cfg := resumeConfig(st)
			cfg.Overlap = mode.overlap
			cfg.Faults = failAttempts(7, 0)
			p1, err := NewCloudPlugin(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out1 := make([]byte, 4*n)
			r1 := scale2Region(n, in.Bytes(), out1)
			r1.Tiles = 8
			if _, err := p1.Run(r1); err == nil {
				t.Fatal("sabotaged run should have failed")
			}
			keys, err := st.List("sessions/")
			if err != nil {
				t.Fatal(err)
			}
			committed := 0
			for _, k := range keys {
				if strings.Contains(k, "/tiles/") {
					committed++
				}
			}
			if committed == 0 {
				t.Fatalf("failed run left no committed tiles (session keys: %v)", keys)
			}

			// Run two: a fresh process resumes from the session.
			cfg2 := resumeConfig(st)
			cfg2.Overlap = mode.overlap
			p2, err := NewCloudPlugin(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			out2 := make([]byte, 4*n)
			r2 := scale2Region(n, in.Bytes(), out2)
			r2.Tiles = 8
			rep, err := p2.Run(r2)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ResumedTiles == 0 {
				t.Fatal("resumed run recomputed everything (ResumedTiles = 0)")
			}
			if rep.ResumedTiles != committed {
				t.Fatalf("ResumedTiles = %d, want the %d committed tiles", rep.ResumedTiles, committed)
			}
			if !bytes.Equal(out2, want) {
				t.Fatal("resumed output diverged from the clean run")
			}
			// A completed offload leaves no resume state behind.
			keys, err = st.List("sessions/")
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 0 {
				t.Fatalf("session not cleaned up after success: %v", keys)
			}
		})
	}
}

func init() {
	// scale2sum: out[0][i] = 2 * in[i] partitioned, out[1] += in[i] over the
	// tile, a float32 sum — one tile commit holds a window and a reduction.
	testRegistry.Register("scale2sum", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		var s float32
		for i := range len(in[0]) / data.FloatSize {
			v := data.GetFloat(in[0], i)
			data.PutFloat(out[0], i, 2*v)
			s += v
		}
		data.PutFloat(out[1], 0, s)
		return nil
	})
}

func scale2sumRegion(n int64, in, out, sum []byte) *Region {
	r := scale2Region(n, in, out)
	r.Kernel, r.Tiles = "scale2sum", 4
	r.Outs = append(r.Outs, Buffer{Name: "S", Data: sum, Reduce: ReduceSumF32})
	return r
}

// corruptCommits damages a valid tile commit (a window and a one-float sum)
// in each way a store can hand one back. lookupTile must refuse every one.
var corruptCommits = []struct {
	name    string
	corrupt func(outs [][]byte) []byte
}{
	{"garbage", func([][]byte) []byte { return []byte("garbage") }},
	{"overflowing-length", func(outs [][]byte) []byte {
		// off+ln wraps past MaxInt: the frame once passed the bounds check
		// and panicked on the slice, failing every retry of the tile.
		blob := encodeTileOuts(outs)
		binary.LittleEndian.PutUint64(blob[8:], math.MaxInt64-7)
		return blob
	}},
	{"short-output", func(outs [][]byte) []byte {
		return encodeTileOuts([][]byte{outs[0][:len(outs[0])-4], outs[1]})
	}},
	{"extra-output", func(outs [][]byte) []byte {
		return encodeTileOuts([][]byte{outs[0], append(slices.Clone(outs[1]), 0, 0, 0, 0)})
	}},
	{"wrong-count", func(outs [][]byte) []byte { return encodeTileOuts(outs[:1]) }},
}

// TestResumeCorruptCommitRecomputes: a damaged tile commit must degrade to
// recomputation, never to wrong output or a failed job.
func TestResumeCorruptCommitRecomputes(t *testing.T) {
	n := int64(1024)
	in := data.Generate(1, int(n), data.Dense, 3).Bytes()
	want, wantSum := make([]byte, 4*n), make([]byte, 4)
	{
		p, err := NewCloudPlugin(resumeConfig(storage.NewMemStore()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(scale2sumRegion(n, in, want, wantSum)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range corruptCommits {
		t.Run(tc.name, func(t *testing.T) {
			st := storage.NewMemStore()
			cfg := resumeConfig(st)
			cfg.Faults = failAttempts(3, 0)
			p1, err := NewCloudPlugin(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p1.Run(scale2sumRegion(n, in, make([]byte, 4*n), make([]byte, 4))); err == nil {
				t.Fatal("sabotaged run should have failed")
			}
			keys, err := st.List("sessions/")
			if err != nil {
				t.Fatal(err)
			}
			damaged := 0
			for _, k := range keys {
				if !strings.Contains(k, "/tiles/") {
					continue
				}
				blob, err := st.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				outs, err := decodeTileOuts(blob)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Put(k, tc.corrupt(outs)); err != nil {
					t.Fatal(err)
				}
				damaged++
			}
			if damaged == 0 {
				t.Fatal("the sabotaged run committed no tiles")
			}

			p2, err := NewCloudPlugin(resumeConfig(st))
			if err != nil {
				t.Fatal(err)
			}
			out, sum := make([]byte, 4*n), make([]byte, 4)
			rep, err := p2.Run(scale2sumRegion(n, in, out, sum))
			if err != nil {
				t.Fatal(err)
			}
			if rep.ResumedTiles != 0 {
				t.Fatalf("corrupt commits must not be served (ResumedTiles = %d)", rep.ResumedTiles)
			}
			if !bytes.Equal(out, want) || !bytes.Equal(sum, wantSum) {
				t.Fatal("output differs from a clean run after corrupt-commit recovery")
			}
		})
	}
}

// FuzzDecodeTileOuts feeds arbitrary bytes to the session journal's tile
// commit decoder, the reader of what a store hands back on resume. It must
// not panic, and a frame it accepts must be exactly what encodeTileOuts
// writes for the outputs it decoded.
func FuzzDecodeTileOuts(f *testing.F) {
	window := data.Generate(1, 16, data.Dense, 5).Bytes()
	sum := data.Bytes([]float32{3})
	f.Add(encodeTileOuts([][]byte{window}))
	f.Add(encodeTileOuts([][]byte{window, sum, {}}))
	for _, c := range corruptCommits {
		f.Add(c.corrupt([][]byte{window, sum}))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		outs, err := decodeTileOuts(blob)
		if err != nil {
			return
		}
		if again := encodeTileOuts(outs); !bytes.Equal(again, blob) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", blob, again)
		}
	})
}

// TestIdentitiesDoNotMove pins the session identity and the content-addressed
// input key — the names a resumed run and a cache hit find their objects
// by — for a fixed region and inputs. Both are computed from one hash per
// input; a change here strands every session and cached object already
// stored.
func TestIdentitiesDoNotMove(t *testing.T) {
	a, b := make([]byte, 144), make([]byte, 64)
	for i := range a {
		a[i] = byte(i*7 + 1)
	}
	for i := range b {
		b[i] = byte(i) ^ 0x5a
	}
	r := &Region{
		Kernel: "gemm", N: 6, Scalars: []int64{6, -7},
		Ins:  []Buffer{{Name: "A", Data: a, BytesPerIter: 24}, {Name: "B", Data: b}},
		Outs: []Buffer{{Name: "C", Data: make([]byte, 144), BytesPerIter: 24}, {Name: "S", Data: make([]byte, 4), Reduce: ReduceMaxF32}},
	}
	shipped := shipBounds(r.Ins)
	for _, tc := range []struct{ what, got, want string }{
		{"shipped session", sessionID(r, 3, shipped), "2127597ed7b980326412c069904c809c15019ddd63bced771554ba22cb2e045b"},
		{"resident session", sessionID(r, 2, []bound{{name: "A", dev: a}, {name: "B", dev: b}}), "0638236c2188eaa762945164f8b66e29dbcad4317f8d90a9367124cff0eec3c1"},
		// The session hashed the inputs; the keys reuse those sums.
		{"key A", chunkio.ContentKey(shipped[0].contentSum()), "cache/252678db30f547a20abb656587f50e8e9c423f2619ba412b6129897cf00405c7"},
		{"key B", chunkio.ContentKey(shipped[1].contentSum()), "cache/70da449788bfa33451b353936fdf55b4a222de578c6493567c42e43b59564155"},
		{"key of nothing", chunkio.ContentKey((&bound{ship: true}).contentSum()), "cache/e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %s, want %s", tc.what, tc.got, tc.want)
		}
	}

	// The same names on the store, through a run that dies and leaves its
	// session behind.
	n := int64(256)
	in := make([]byte, 4*n)
	for i := range in {
		in[i] = byte(i*13 + 5)
	}
	st := storage.NewMemStore()
	cfg := resumeConfig(st)
	cfg.Faults = failAttempts(3, 0)
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr := scale2sumRegion(n, in, make([]byte, 4*n), make([]byte, 4))
	rr.Scalars = []int64{6, -7}
	if _, err := p.Run(rr); err == nil {
		t.Fatal("sabotaged run should have failed")
	}
	for _, key := range []string{
		"cache/9009d83ef59bc6ee9cd21887aeeb25a56c84490e0bc8256c4e52abda6515a857",
		"sessions/2832b1d4fae0a0eeb6600a3372d33c1dad9e6e4c32f1e6f0e96ef7e9b05d84e2/journal",
	} {
		if _, err := st.Stat(key); err != nil {
			keys, _ := st.List("")
			t.Errorf("%s: %v (store holds %q)", key, err, keys)
		}
	}
}

// TestResumeUnavailableDeviceFallsBack: resume changes nothing about the
// manager's dynamic fallback — a dead store still reroutes to the host.
func TestResumeUnavailableDeviceFallsBack(t *testing.T) {
	cfg := resumeConfig(storage.NewMemStore())
	cfg.Faults = faults.New(1).Add(faults.Entry{Op: "put"}, faults.Entry{Op: "get"})
	cfg.Fallback = FallbackHost
	cfg.HealthTTL = -1
	p, err := NewCloudPlugin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := NewHostPlugin(2)
	m, _ := NewManager(host)
	id := m.Register(p)
	n := int64(64)
	in := data.Generate(1, int(n), data.Dense, 5)
	out := make([]byte, 4*n)
	rep, err := m.Run(id, scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack {
		t.Fatal("resume-enabled device with dead storage must fall back to the host")
	}
	for i := 0; i < int(n); i++ {
		if data.GetFloat(out, i) != 2*in.V[i] {
			t.Fatalf("host fallback wrong at %d", i)
		}
	}
}
