package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ompcloud/internal/chunkio"
	"ompcloud/internal/data"
	"ompcloud/internal/netsim"
	"ompcloud/internal/simtime"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

// TransferCase is one measured transfer-path configuration: a data kind
// (sparse compresses ~20x, dense barely at all) moved sequentially or
// through the chunked pipeline under one codec policy.
type TransferCase struct {
	Kind      string  `json:"kind"`      // "sparse" | "dense"
	Mode      string  `json:"mode"`      // "sequential" | "pipelined"
	Codec     string  `json:"codec"`     // "auto" | "raw" | "zero" | "deflate" | "adaptive"
	RawBytes  int64   `json:"raw_bytes"` // payload size before encoding
	WireBytes int64   `json:"wire_bytes"`
	Chunks    int     `json:"chunks"`
	UploadS   float64 `json:"upload_wall_s"`    // measured wall clock
	DownloadS float64 `json:"download_wall_s"`  // measured wall clock
	VirtualS  float64 `json:"upload_virtual_s"` // modelled upload leg (compress + WAN, or their max)
}

// DedupCase measures the cross-session dedup second pass: the same payload
// re-uploaded by a "fresh session" whose chunk index was primed by listing
// the store, so every clean chunk is recognized by content hash and only
// the manifest crosses the wire again.
type DedupCase struct {
	Kind        string  `json:"kind"`
	Chunks      int     `json:"chunks"`
	FirstSentB  int64   `json:"first_sent_bytes"`
	SecondSentB int64   `json:"second_sent_bytes"`
	ChunkHits   int     `json:"chunk_hits"` // chunks reused on the second pass
	ResendPct   float64 `json:"resend_pct"` // second/first sent bytes, percent
	FirstVirtS  float64 `json:"first_virtual_s"`
	SecondVirtS float64 `json:"second_virtual_s"`
	SpeedupV    float64 `json:"virtual_speedup"`
}

// TransferBench is the transfer-path microbenchmark result set, written to
// BENCH_transfer.json so future changes have a perf trajectory.
type TransferBench struct {
	MiB     int            `json:"mib"`      // payload size per case
	Cores   int            `json:"cores"`    // host cores used by the pipeline
	WANMbps float64        `json:"wan_mbps"` // virtual-time WAN used for the model column
	Cases   []TransferCase `json:"cases"`
	Dedup   []DedupCase    `json:"dedup"`

	SpeedupS float64 `json:"sparse_upload_speedup"` // sequential / pipelined wall, sparse, auto codec
	SpeedupV float64 `json:"sparse_virtual_speedup"`
	SpeedupD float64 `json:"dense_upload_speedup"`
	// AdaptiveWorstPct is the worst (over kinds) virtual-time gap of the
	// adaptive codec versus the best fixed codec for that kind, in percent.
	// Near zero means per-chunk adaptation finds the right codec on its
	// own; the CI gate fails it above 10%.
	AdaptiveWorstPct float64 `json:"adaptive_worst_pct"`
	// DedupSpeedupV is the dense second-pass virtual upload speedup — the
	// honest route to >=2x on dense payloads, whose random mantissas no
	// lossless codec can halve.
	DedupSpeedupV float64 `json:"dedup_virtual_speedup"`
}

// benchCodecs are the codec policies the pipelined sweep compares. "auto"
// (one whole-buffer probe) is the legacy default; "adaptive" re-decides per
// chunk against the wire speed.
var benchCodecs = []xcompress.Algo{
	xcompress.AlgoAuto, xcompress.AlgoRaw, xcompress.AlgoZero,
	xcompress.AlgoDeflate, xcompress.AlgoAdaptive,
}

// uploadVirtual models the upload leg in virtual time, the same arithmetic
// as the accountant's transfer legs: compress then WAN sequentially, or
// their max when the pipeline overlaps the two.
func uploadVirtual(wan netsim.Link, sent int64, compress time.Duration, pipelined bool) simtime.Duration {
	wire, comp := wan.Transfer(sent), simtime.FromReal(compress)
	if pipelined {
		return max(comp, wire)
	}
	return comp + wire
}

// RunTransferBench measures the transfer path of one mib-sized buffer per
// data kind through an in-memory store: sequential vs pipelined, a codec
// sweep on the pipelined path, and a cross-session dedup second pass. Wall
// clock captures the real parallel-compression win; the virtual column runs
// the same wire sizes through the accounting model, so the report reflects
// the overlap as the virtual-time reports do.
func RunTransferBench(mib int, seed int64) (*TransferBench, error) {
	if mib <= 0 {
		mib = 256
	}
	elems := mib << 20 / data.FloatSize
	profile := netsim.DefaultProfile()
	wanBytesPerS := profile.WAN.BitsPerSs / 8
	res := &TransferBench{
		MiB:     mib,
		Cores:   runtime.GOMAXPROCS(0),
		WANMbps: profile.WAN.BitsPerSs / 1e6,
	}
	walls := map[string]float64{}
	virt := map[string]float64{}

	for _, kind := range []data.Kind{data.Sparse, data.Dense} {
		payload := data.Generate(1, elems, kind, seed).Bytes()
		run := func(mode string, algo xcompress.Algo) error {
			opts := chunkio.Options{
				Codec:         xcompress.Codec{Algo: algo},
				ChunkSize:     -1,
				WireBytesPerS: wanBytesPerS,
			}
			if mode == "pipelined" {
				opts.ChunkSize = 0 // default 1 MiB chunks
			}
			st := storage.NewMemStore()
			start := time.Now()
			up, err := chunkio.Upload(st, "bench", payload, opts)
			upWall := time.Since(start)
			if err != nil {
				return fmt.Errorf("bench: transfer upload (%s/%s/%s): %w", kind, mode, algo, err)
			}
			start = time.Now()
			back := make([]byte, len(payload))
			_, err = chunkio.DownloadInto(st, "bench", back, opts)
			downWall := time.Since(start)
			if err != nil {
				return fmt.Errorf("bench: transfer download (%s/%s/%s): %w", kind, mode, algo, err)
			}
			if !bytes.Equal(back, payload) {
				return fmt.Errorf("bench: transfer round trip mismatch (%s/%s/%s)", kind, mode, algo)
			}
			virtual := uploadVirtual(profile.WAN, up.SentWire, up.CompressWall, mode == "pipelined")
			res.Cases = append(res.Cases, TransferCase{
				Kind: kind.String(), Mode: mode, Codec: algo.String(),
				RawBytes: int64(len(payload)), WireBytes: up.TotalWire,
				Chunks:  up.Chunks,
				UploadS: upWall.Seconds(), DownloadS: downWall.Seconds(),
				VirtualS: virtual.Seconds(),
			})
			walls[kind.String()+"/"+mode+"/"+algo.String()] = upWall.Seconds()
			virt[kind.String()+"/"+mode+"/"+algo.String()] = virtual.Seconds()
			return nil
		}
		if err := run("sequential", xcompress.AlgoAuto); err != nil {
			return nil, err
		}
		for _, algo := range benchCodecs {
			if err := run("pipelined", algo); err != nil {
				return nil, err
			}
		}
		dc, err := runDedupPasses(kind, payload, profile.WAN)
		if err != nil {
			return nil, err
		}
		res.Dedup = append(res.Dedup, *dc)
	}

	div := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	res.SpeedupS = div(walls["sparse/sequential/auto"], walls["sparse/pipelined/auto"])
	res.SpeedupV = div(virt["sparse/sequential/auto"], virt["sparse/pipelined/auto"])
	res.SpeedupD = div(walls["dense/sequential/auto"], walls["dense/pipelined/auto"])
	for _, kind := range []string{"sparse", "dense"} {
		best := 0.0
		for _, algo := range []string{"raw", "zero", "deflate"} {
			v := virt[kind+"/pipelined/"+algo]
			if best == 0 || (v > 0 && v < best) {
				best = v
			}
		}
		if gap := 100 * (div(virt[kind+"/pipelined/adaptive"], best) - 1); gap > res.AdaptiveWorstPct {
			res.AdaptiveWorstPct = gap
		}
	}
	for _, d := range res.Dedup {
		if d.Kind == "dense" {
			res.DedupSpeedupV = d.SpeedupV
		}
	}
	return res, nil
}

// runDedupPasses uploads the payload twice with content-defined chunks and
// content-addressed chunk keys. The second pass simulates a fresh session:
// no in-memory state survives, only the store — a new chunkio.Index is
// primed by listing it, exactly what offload.CloudPlugin's Dedup mode does,
// so a hit is Stat-checked and every chunk read back is checked against its
// content key, as on the device.
func runDedupPasses(kind data.Kind, payload []byte, wan netsim.Link) (*DedupCase, error) {
	st := storage.NewMemStore()
	pass := func(key string) (*chunkio.UploadResult, time.Duration, error) {
		idx := chunkio.NewIndex(st, false)
		if _, err := idx.Load(); err != nil {
			return nil, 0, err
		}
		opts := chunkio.Options{
			Codec:         xcompress.Codec{Algo: xcompress.AlgoAdaptive},
			ChunkSize:     0,
			CDC:           true,
			WireBytesPerS: wan.BitsPerSs / 8,
			Index:         idx,
		}
		up, err := chunkio.Upload(st, key, payload, opts)
		if err != nil {
			return nil, 0, fmt.Errorf("bench: dedup pass (%s): %w", kind, err)
		}
		back := make([]byte, len(payload))
		if _, err := chunkio.DownloadInto(st, key, back, opts); err != nil {
			return nil, 0, fmt.Errorf("bench: dedup readback (%s): %w", kind, err)
		}
		if !bytes.Equal(back, payload) {
			return nil, 0, fmt.Errorf("bench: dedup round trip mismatch (%s)", kind)
		}
		return up, up.CompressWall, nil
	}
	first, c1, err := pass("bench-pass1")
	if err != nil {
		return nil, err
	}
	second, c2, err := pass("bench-pass2")
	if err != nil {
		return nil, err
	}
	v1 := uploadVirtual(wan, first.SentWire, c1, true)
	v2 := uploadVirtual(wan, second.SentWire, c2, true)
	dc := &DedupCase{
		Kind:        kind.String(),
		Chunks:      second.Chunks,
		FirstSentB:  first.SentWire,
		SecondSentB: second.SentWire,
		ChunkHits:   second.Reused,
		FirstVirtS:  v1.Seconds(),
		SecondVirtS: v2.Seconds(),
	}
	if first.SentWire > 0 {
		dc.ResendPct = 100 * float64(second.SentWire) / float64(first.SentWire)
	}
	if v2 > 0 {
		dc.SpeedupV = v1.Seconds() / v2.Seconds()
	}
	return dc, nil
}
