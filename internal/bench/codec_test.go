package bench

import (
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

// codecPlugin builds a small chunked cloud device with the given transfer
// policy knobs and fast, sleepless retries.
func codecPlugin(st storage.Store, algo xcompress.Algo, cdc, dedup bool) (*offload.CloudPlugin, error) {
	return offload.NewCloudPlugin(offload.CloudConfig{
		Spec:       ClusterFor(chaosCores),
		Store:      st,
		ChunkBytes: 4096,
		Codec:      xcompress.Codec{Algo: algo},
		CDC:        cdc,
		Dedup:      dedup,
		RetryMax:   4,
		RetrySleep: func(time.Duration) {},
	})
}

// runKernelCodec runs one benchmark on a fresh device with the given
// transfer policy and returns its output snapshot.
func runKernelCodec(t *testing.T, b *kernels.Benchmark, st storage.Store, n int, seed int64,
	algo xcompress.Algo, cdc, dedup bool) [][]float32 {
	t.Helper()
	rt, err := omp.NewRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	plugin, err := codecPlugin(st, algo, cdc, dedup)
	if err != nil {
		t.Fatal(err)
	}
	defer plugin.Close()
	w := b.Prepare(n, data.Dense, seed)
	if _, err := w.Run(rt, rt.RegisterDevice(plugin)); err != nil {
		t.Fatalf("%s codec=%v cdc=%v dedup=%v: %v", b.Name, algo, cdc, dedup, err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("%s codec=%v cdc=%v dedup=%v: %v", b.Name, algo, cdc, dedup, err)
	}
	return snapshotOutputs(w)
}

// TestCodecDedupBitIdenticalAllKernels is the correctness gate of the codec
// and dedup work: every one of the paper's eight kernels must produce
// bit-identical outputs under every forced codec, under per-chunk adaptive
// selection, under content-defined chunking, on a dedup'd re-run in a fresh
// "session" over the same store, and on that same re-run with corrupted and
// failing chunk reads (the content hash plus retries must heal, never serve
// wrong bytes).
func TestCodecDedupBitIdenticalAllKernels(t *testing.T) {
	const n, seed = 64, 17
	for _, b := range kernels.All {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			baseline := runKernelCodec(t, b, storage.NewMemStore(), n, seed,
				xcompress.AlgoAuto, false, false)

			for _, algo := range []xcompress.Algo{
				xcompress.AlgoRaw, xcompress.AlgoZero,
				xcompress.AlgoDeflate, xcompress.AlgoAdaptive,
			} {
				got := runKernelCodec(t, b, storage.NewMemStore(), n, seed, algo, false, false)
				if err := compareOutputs(baseline, got); err != nil {
					t.Fatalf("%s: codec %v vs auto: %v", b.Name, algo, err)
				}
			}

			cdc := runKernelCodec(t, b, storage.NewMemStore(), n, seed,
				xcompress.AlgoAdaptive, true, false)
			if err := compareOutputs(baseline, cdc); err != nil {
				t.Fatalf("%s: cdc vs fixed cuts: %v", b.Name, err)
			}

			// Dedup re-run: session one populates the content-addressed
			// chunk namespace, session two (a fresh plugin) reuses it.
			shared := storage.NewMemStore()
			first := runKernelCodec(t, b, shared, n, seed, xcompress.AlgoAdaptive, true, true)
			if err := compareOutputs(baseline, first); err != nil {
				t.Fatalf("%s: dedup session one: %v", b.Name, err)
			}
			second := runKernelCodec(t, b, shared, n, seed, xcompress.AlgoAdaptive, true, true)
			if err := compareOutputs(baseline, second); err != nil {
				t.Fatalf("%s: dedup session two: %v", b.Name, err)
			}

			// Same dedup'd store, but this session's chunk reads fail and
			// corrupt: a flipped payload bit in a content chunk must be
			// caught by the key's own hash and re-fetched.
			sched := faults.New(1).Add(
				faults.Entry{Op: "get", Key: "cache/c/", Count: 1},
				faults.Entry{Op: "get", Key: "cache/c/", Count: 1, Do: faults.Flip, Bit: 100*8 + 3},
				faults.Entry{Op: "put", Key: "/out/", Count: 1})
			chaotic := runKernelCodec(t, b, storage.WithFaults(shared, sched), n, seed, xcompress.AlgoAdaptive, true, true)
			if err := compareOutputs(baseline, chaotic); err != nil {
				t.Fatalf("%s: dedup under chaos: %v", b.Name, err)
			}
			if sched.Fired(faults.Store) == 0 {
				t.Fatalf("%s: chaos schedule never fired", b.Name)
			}
		})
	}
}
