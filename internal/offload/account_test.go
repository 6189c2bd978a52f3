package offload

import (
	"testing"
	"testing/quick"

	"ompcloud/internal/netsim"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/trace"
)

// TestAccountGoldenNumbers pins the accountant's arithmetic with a fully
// hand-computed scenario, so model drift cannot pass silently.
func TestAccountGoldenNumbers(t *testing.T) {
	profile := netsim.Profile{
		WAN:          netsim.Link{Name: "wan", Latency: 0, BitsPerSs: netsim.Mbps(800)}, // 100 MB/s
		LAN:          netsim.Link{Name: "lan", Latency: 0, BitsPerSs: netsim.Gbps(8)},   // 1 GB/s
		MemBytesPerS: 1e9,                                                               // 1 GB/s
	}
	ci := costInputs{
		Workers: 3, // broadcast rounds: ceil(log2(4)) = 2
		Cores:   4,
		// 4 uniform 1 s tasks on 4 cores: compute makespan = 1 s.
		TaskCompute:   []simtime.Duration{simtime.Second, simtime.Second, simtime.Second, simtime.Second},
		TaskEffective: []simtime.Duration{simtime.Second, simtime.Second, simtime.Second, simtime.Second},
		// 200 MB up -> 2 s WAN; 100 MB out -> 1 s WAN down.
		InWireSizes:    []int64{200_000_000},
		FetchWireSizes: []int64{200_000_000}, // the driver fetches what was sent
		OutWireSizes:   []int64{100_000_000},
		// Host codec: 0.5 s compress, 0.25 s decompress.
		HostCompress:   500 * simtime.Millisecond,
		HostDecompress: 250 * simtime.Millisecond,
		// Driver decode 0.1 s.
		DriverDecompress: 100 * simtime.Millisecond,
		// Intra-cluster: scatter 1 GB -> 1 s; broadcast 500 MB x 2
		// rounds -> 1 s; collect 2 GB -> 2 s; reconstruct 1 GB -> 1 s.
		DistributeWire: 1_000_000_000,
		BroadcastWire:  500_000_000,
		CollectWire:    2_000_000_000,
		ReconstructRaw: 1_000_000_000,
		Costs: spark.Costs{
			JobSubmit:    simtime.Second,
			TaskDispatch: 0, // staggered == plain makespan -> no extra
		},
	}
	rep := trace.NewReport("golden", "k")
	if err := account(profile, ci, rep); err != nil {
		t.Fatal(err)
	}

	// upload = 0.5 compress + 2.0 WAN = 2.5 s
	if got := rep.Phases[trace.PhaseUpload]; got != 2500*simtime.Millisecond {
		t.Fatalf("upload = %v, want 2.5s", got)
	}
	// compute = 1 s
	if got := rep.Phases[trace.PhaseCompute]; got != simtime.Second {
		t.Fatalf("compute = %v, want 1s", got)
	}
	// spark = fetch 0.2 (200MB over 1GB/s LAN) + decode 0.1 + submit 1.0
	//       + scatter 1.0 + broadcast 1.0 + collect 2.0 + reconstruct 1.0
	//       + store-out 0.1 (100MB over LAN) = 6.4 s
	if got := rep.Phases[trace.PhaseSpark]; got != 6400*simtime.Millisecond {
		t.Fatalf("spark = %v, want 6.4s", got)
	}
	// download = 1.0 WAN + 0.25 decompress = 1.25 s
	if got := rep.Phases[trace.PhaseDownload]; got != 1250*simtime.Millisecond {
		t.Fatalf("download = %v, want 1.25s", got)
	}
	if rep.BytesUploaded != 200_000_000 || rep.BytesDownloaded != 100_000_000 {
		t.Fatalf("wire bytes wrong: %d / %d", rep.BytesUploaded, rep.BytesDownloaded)
	}
	if rep.BytesScattered != 1_000_000_000 || rep.BytesBroadcast != 500_000_000 || rep.BytesCollected != 2_000_000_000 {
		t.Fatalf("intra-cluster bytes wrong: %d / %d / %d",
			rep.BytesScattered, rep.BytesBroadcast, rep.BytesCollected)
	}
	if rep.Total() != (2500+1000+6400+1250)*simtime.Millisecond {
		t.Fatalf("total = %v", rep.Total())
	}
}

// TestAccountGoldenNumbersPipelined pins the overlap model of the chunked
// streaming path: each host transfer leg costs max(codec, wire), not their
// sum, while every Spark-side term is unchanged.
func TestAccountGoldenNumbersPipelined(t *testing.T) {
	profile := netsim.Profile{
		WAN:          netsim.Link{Name: "wan", Latency: 0, BitsPerSs: netsim.Mbps(800)}, // 100 MB/s
		LAN:          netsim.Link{Name: "lan", Latency: 0, BitsPerSs: netsim.Gbps(8)},   // 1 GB/s
		MemBytesPerS: 1e9,
	}
	ci := costInputs{
		Workers:            1,
		Cores:              4,
		PipelinedTransfers: true,
		TaskCompute:        []simtime.Duration{simtime.Second},
		TaskEffective:      []simtime.Duration{simtime.Second},
		// 200 MB up -> 2 s WAN; 100 MB out -> 1 s WAN down.
		InWireSizes:    []int64{200_000_000},
		FetchWireSizes: []int64{200_000_000}, // the driver fetches what was sent
		OutWireSizes:   []int64{100_000_000},
		// Compression (0.5 s) hides entirely inside the 2 s upload;
		// decompression (0.25 s) hides inside the 1 s download.
		HostCompress:   500 * simtime.Millisecond,
		HostDecompress: 250 * simtime.Millisecond,
	}
	rep := trace.NewReport("golden", "k")
	if err := account(profile, ci, rep); err != nil {
		t.Fatal(err)
	}
	// upload = max(0.5 compress, 2.0 WAN) = 2.0 s
	if got := rep.Phases[trace.PhaseUpload]; got != 2*simtime.Second {
		t.Fatalf("pipelined upload = %v, want 2s", got)
	}
	// download = max(0.25 decompress, 1.0 WAN) = 1.0 s
	if got := rep.Phases[trace.PhaseDownload]; got != simtime.Second {
		t.Fatalf("pipelined download = %v, want 1s", got)
	}

	// Codec-bound direction: with a 10x faster WAN the legs are limited by
	// the codec, not the wire.
	fast := profile
	fast.WAN.BitsPerSs = netsim.Mbps(8000) // 1 GB/s: 0.2 s up, 0.1 s down
	rep2 := trace.NewReport("golden", "k")
	if err := account(fast, ci, rep2); err != nil {
		t.Fatal(err)
	}
	if got := rep2.Phases[trace.PhaseUpload]; got != 500*simtime.Millisecond {
		t.Fatalf("codec-bound upload = %v, want 0.5s", got)
	}
	if got := rep2.Phases[trace.PhaseDownload]; got != 250*simtime.Millisecond {
		t.Fatalf("codec-bound download = %v, want 0.25s", got)
	}

	// The pipelined legs never exceed the sequential ones.
	seq := ci
	seq.PipelinedTransfers = false
	rep3 := trace.NewReport("golden", "k")
	if err := account(profile, seq, rep3); err != nil {
		t.Fatal(err)
	}
	if rep.Phases[trace.PhaseUpload] > rep3.Phases[trace.PhaseUpload] ||
		rep.Phases[trace.PhaseDownload] > rep3.Phases[trace.PhaseDownload] {
		t.Fatal("pipelined legs must not exceed sequential legs")
	}
}

// TestAccountCachedRunSkipsWAN pins the warm-cache accounting: with no
// InWireSizes but FetchWireSizes set, the upload phase is only the (zero)
// compression and the driver still pays its fetch.
func TestAccountCachedRunSkipsWAN(t *testing.T) {
	profile := netsim.Profile{
		WAN:          netsim.Link{Name: "wan", Latency: 0, BitsPerSs: netsim.Mbps(800)},
		LAN:          netsim.Link{Name: "lan", Latency: 0, BitsPerSs: netsim.Gbps(8)},
		MemBytesPerS: 1e9,
	}
	ci := costInputs{
		Workers: 1, Cores: 1,
		TaskCompute:    []simtime.Duration{simtime.Second},
		TaskEffective:  []simtime.Duration{simtime.Second},
		InWireSizes:    nil,                    // nothing crossed the WAN
		FetchWireSizes: []int64{1_000_000_000}, // driver reads 1 GB
	}
	rep := trace.NewReport("golden", "k")
	if err := account(profile, ci, rep); err != nil {
		t.Fatal(err)
	}
	if rep.Phases[trace.PhaseUpload] != 0 {
		t.Fatalf("cached upload = %v, want 0", rep.Phases[trace.PhaseUpload])
	}
	if rep.BytesUploaded != 0 {
		t.Fatal("cached run must not count uploaded bytes")
	}
	if got := rep.Phases[trace.PhaseSpark]; got != simtime.Second {
		t.Fatalf("spark = %v, want the 1s driver fetch", got)
	}
}

// Property: for any consistent inputs, the phase identities of the report
// hold and every phase is non-negative.
func TestAccountIdentitiesProperty(t *testing.T) {
	profile := netsim.DefaultProfile()
	f := func(nTasks uint8, taskMs uint16, inMB, outMB, distMB, bcastMB, collectMB uint16) bool {
		n := int(nTasks%32) + 1
		tasks := make([]simtime.Duration, n)
		for i := range tasks {
			tasks[i] = simtime.Duration(taskMs) * simtime.Millisecond
		}
		ci := costInputs{
			Workers: 4, Cores: 8,
			TaskCompute: tasks, TaskEffective: tasks,
			InWireSizes:    []int64{int64(inMB) * 1e6},
			FetchWireSizes: []int64{int64(inMB) * 1e6},
			OutWireSizes:   []int64{int64(outMB) * 1e6},
			DistributeWire: int64(distMB) * 1e6,
			BroadcastWire:  int64(bcastMB) * 1e6,
			CollectWire:    int64(collectMB) * 1e6,
			Costs:          spark.DefaultCosts(),
		}
		rep := trace.NewReport("p", "k")
		if err := account(profile, ci, rep); err != nil {
			return false
		}
		if rep.Total() != rep.HostTargetComm()+rep.SparkTime() {
			return false
		}
		if rep.SparkTime() < rep.ComputeTime() {
			return false
		}
		for _, d := range rep.Phases {
			if d < 0 {
				return false
			}
		}
		return rep.Tiles == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
