package chunkio

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

// TestDirtyDestinationsReproduceTheSource pins what lets the offload driver
// fetch into recycled memory: every way the engine fills a destination —
// DownloadInto, Pipe's fetch half and OutStream's mirror — writes every byte
// of it, so a destination full of garbage ends up equal to the source. It
// holds for raw, deflate and zero-run frames (a zero-run frame's zeros are
// written, not skipped), over a store that streams frames into the window
// (the loopback RemoteStore) and one that does not, and when a chunk's
// decoded bytes fail their content hash once and the chunk is fetched again.
func TestDirtyDestinationsReproduceTheSource(t *testing.T) {
	const chunk = 4 << 10
	src := sparseFloats((10*chunk+36)/4, 0.02, 91) // ten and a bit chunks, mostly zero words
	// Parts are content-addressed, so every fetch checks a chunk against
	// the hash its key names.
	part1 := ChunkKey(sha256.Sum256(src[chunk : 2*chunk]))
	garbage := func() []byte { return bytes.Repeat([]byte{0xA5}, len(src)) }

	entries := []struct {
		name string
		run  func(st storage.Store, o Options) ([]byte, error)
	}{
		{"DownloadInto", func(st storage.Store, o Options) ([]byte, error) {
			dst := garbage()
			_, err := DownloadInto(st, "obj", dst, o)
			return dst, err
		}},
		{"Pipe", func(st storage.Store, o Options) ([]byte, error) {
			dst := garbage()
			_, err := Pipe(st, "obj", src, dst, o, nil)
			return dst, err
		}},
		{"OutStream", func(st storage.Store, o Options) ([]byte, error) {
			dst := garbage()
			s, err := NewOutStream(st, "obj", src, dst, o, nil)
			if err != nil {
				return nil, err
			}
			s.Advance(int64(len(src) / 2))
			s.Advance(int64(len(src)))
			_, err = s.Finish()
			return dst, err
		}},
	}
	codecs := []struct {
		algo xcompress.Algo
		tag  byte
	}{{xcompress.AlgoRaw, 0}, {xcompress.AlgoDeflate, 1}, {xcompress.AlgoZero, 4}}
	var loopback storage.Store // one daemon serves every loopback row
	stores := []struct {
		name    string
		make    func() storage.Store
		refetch bool
	}{
		{"memstore", func() storage.Store { return storage.NewMemStore() }, false},
		{"loopback", func() storage.Store {
			if loopback == nil {
				loopback = dialStoraged(t)
			}
			return loopback
		}, false},
		{"memstore-refetch", func() storage.Store { return storage.NewMemStore() }, true},
	}
	for _, sk := range stores {
		for _, c := range codecs {
			for _, e := range entries {
				t.Run(fmt.Sprintf("%s/%v/%s", sk.name, c.algo, e.name), func(t *testing.T) {
					st := sk.make()
					o := Options{Codec: xcompress.Codec{MinSize: 1, Algo: c.algo}, ChunkSize: chunk, Parallel: 3, Index: NewIndex(st, true)}
					if e.name == "DownloadInto" {
						if _, err := Upload(st, "obj", src, o); err != nil {
							t.Fatal(err)
						}
					}
					var sched *faults.Schedule
					if sk.refetch {
						// A bit flipped in the body of part 1's first read: a
						// raw frame decodes into bytes that fail their hash, a
						// compressed one fails to decode; either way the
						// window is dirty until the retry rewrites it.
						sched = faults.New(1).Add(faults.Entry{Op: "get", Key: part1, Count: 1, Do: faults.Flip, Bit: 8*5 + 3})
						st = storage.WithFaults(st, sched)
						o.Retry = resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}}
					}
					got, err := e.run(st, o)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, src) {
						t.Fatal("the destination differs from the source")
					}
					if sched != nil && sched.Fired(faults.Store) != 1 {
						t.Fatalf("the flip fired %d times, want once", sched.Fired(faults.Store))
					}
					frame, err := st.Get(part1)
					if err != nil {
						t.Fatal(err)
					}
					if frame[0] != c.tag {
						t.Fatalf("part 1 is stored under tag %d, want %v's %d", frame[0], c.algo, c.tag)
					}
				})
			}
		}
	}
}
