package offload

import (
	"fmt"
	"log"
	"strings"

	"ompcloud/internal/cloud"
	"ompcloud/internal/config"
	"ompcloud/internal/netsim"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

// NewCloudPluginFromConfig assembles the cloud device from an OmpCloud
// configuration file, the runtime mechanism of the paper's §III.A: the same
// binary retargets clusters and storage services by editing a file, no
// recompilation. It reads [cluster], [credentials], [storage], [network]
// and [offload]; ompcloud.conf.example documents every key of each, and
// TestExampleConfIsComplete fails when it falls behind this parser.
//
// Every key has a sensible default; an empty file yields the paper's
// 16-worker c3.8xlarge deployment over an in-memory store. Knobs whose
// explicit value would silently select a different mechanism than the
// key's name promises (a zero retry backoff, a zero-threshold breaker, a
// non-positive heartbeat) are rejected at parse time, as is a key nothing
// reads. Nothing is dialed, created or provisioned until the whole file
// has been checked.
func NewCloudPluginFromConfig(f *config.File) (*CloudPlugin, error) {
	r := f.Reader("")
	cfg, construct := readCloudConfig(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := construct(&cfg); err != nil {
		return nil, err
	}
	return NewCloudPlugin(cfg)
}

// readCloudConfig reads and checks every key of one cloud device, applying
// the defaults and validation documented on NewCloudPluginFromConfig. It
// constructs nothing: the returned configuration has no Store and no
// Provider until construct, which the caller runs once r.Done() — and, in a
// device table, every other block's — is clean, so a bad knob never leaves
// a dialed connection or a created directory behind.
func readCloudConfig(r *config.Reader) (cfg CloudConfig, construct func(*CloudConfig) error) {
	// [cluster]
	cfg.Spec = spark.ClusterSpec{
		Workers:        r.Int("cluster", "workers", 16),
		CoresPerWorker: r.Int("cluster", "cores-per-worker", 16),
	}
	cfg.InstanceType = r.Str("cluster", "instance-type", "c3.8xlarge")
	cfg.AutoStartStop = r.Bool("cluster", "auto-start", false)
	cfg.WorkerAddrs = r.List("cluster", "worker-addrs")

	// heartbeat-ms turns on lease-based worker membership; absent means no
	// membership (workers never die on their own), so an explicit value
	// must be a usable interval.
	cfg.Heartbeat = r.Millis("cluster", "heartbeat-ms", 0, config.Positive)
	cfg.LeaseMisses = r.Int("cluster", "lease-misses", 0,
		config.Must("at least 1", func(x float64) bool { return x >= 1 }))
	cfg.Speculate = r.Bool("cluster", "speculate", false)
	cfg.SpeculateQuantile = r.Float("cluster", "speculate-quantile", 0,
		config.Must("in (0, 1]", func(x float64) bool { return x > 0 && x <= 1 }))

	// Cost model: cost-core-hour prices effective region time in $/core-hour
	// ("auto" reads the instance type's catalogue price), cost-gib-egress
	// prices output bytes downloaded back to the host in $/GiB. Both default
	// to 0 — an unpriced device whose reports carry no CostUSD. Inside a
	// [device "..."] block the keys are cluster.cost-core-hour and
	// cluster.cost-gib-egress, giving each member of a multi-device split
	// its own price sheet.
	if strings.EqualFold(strings.TrimSpace(r.Str("cluster", "cost-core-hour", "")), "auto") {
		it, err := cloud.LookupType(cfg.InstanceType)
		if err != nil {
			r.Fail(fmt.Errorf("offload: cost-core-hour auto: %w", err))
		}
		cfg.CostCoreHourUSD = it.PerCoreHourUSD()
	} else {
		cfg.CostCoreHourUSD = r.Float("cluster", "cost-core-hour", 0,
			config.Must("positive or auto", func(x float64) bool { return x > 0 }))
	}
	cfg.CostEgressGiBUSD = r.Float("cluster", "cost-gib-egress", 0, config.NonNegative)

	// boot-seconds and [credentials] only matter to provider = sim, path and
	// address to one storage type each; all are read whatever the provider
	// and type, so a file that keeps them around is not full of unknown keys.
	provider := r.Enum("cluster", "provider", "none", "sim", "none")
	bootSecs := r.Float("cluster", "boot-seconds", 45)
	creds := cloud.Credentials{
		AccessKey: r.Str("credentials", "access-key", ""),
		SecretKey: r.Str("credentials", "secret-key", ""),
		Region:    r.Str("credentials", "region", "us-east-1"),
	}

	// [storage]
	storeType := r.Enum("storage", "type", "memory", "memory", "disk", "remote")
	path := r.Str("storage", "path", "")
	addr := r.Str("storage", "address", "")
	if storeType == "disk" && path == "" {
		r.Fail(fmt.Errorf("offload: storage type disk needs a path"))
	}
	if storeType == "remote" && addr == "" {
		r.Fail(fmt.Errorf("offload: storage type remote needs an address"))
	}

	// [network]
	def := netsim.DefaultProfile()
	cfg.Profile = netsim.Profile{
		WAN: netsim.Link{
			Name:      "wan",
			BitsPerSs: netsim.Mbps(r.Float("network", "wan-mbps", def.WAN.BitsPerSs/1e6)),
			Latency:   simtime.FromReal(r.Millis("network", "wan-latency-ms", def.WAN.Latency.Real())),
		},
		LAN: netsim.Link{
			Name:      "lan",
			BitsPerSs: netsim.Gbps(r.Float("network", "lan-gbps", def.LAN.BitsPerSs/1e9)),
			Latency:   simtime.FromSeconds(r.Float("network", "lan-latency-us", def.LAN.Latency.Seconds()*1e6) / 1e6),
		},
		MemBytesPerS: r.Float("network", "mem-gbps", def.MemBytesPerS/1e9) * 1e9,
	}

	// [offload]
	cfg.Codec.MinSize = r.Int("offload", "compress-min-bytes", 0)
	// codec: auto (default, one probe per buffer) | adaptive (per-chunk
	// verdicts weighing entropy against the configured WAN speed) | raw |
	// zero | deflate (forced). ParseAlgo's error already lists the valid
	// names, and names the replacement of a retired one.
	algo, err := xcompress.ParseAlgo(r.Str("offload", "codec", "auto"))
	if err != nil {
		r.Fail(fmt.Errorf("offload: %w", err))
	}
	cfg.Codec.Algo = algo
	// chunk-bytes: 0 = default 1 MiB chunks; -1 = sequential single-stream
	// transfers (the paper's original policy); "cdc" = content-defined
	// (Gear) chunk boundaries at the default average size. Other negatives
	// mean nothing.
	if strings.EqualFold(strings.TrimSpace(r.Str("offload", "chunk-bytes", "")), "cdc") {
		cfg.CDC = true
	} else {
		cfg.ChunkBytes = r.Int("offload", "chunk-bytes", 0,
			config.Must("-1 (sequential), 0 (default), a positive size, or cdc", func(x float64) bool { return x >= -1 }))
	}
	cfg.Dedup = r.Bool("offload", "dedup", false)
	// overlap: on (default) streams tiles through upload, compute, and
	// download concurrently; off keeps the stage-barriered workflow. Both
	// modes produce bit-identical outputs.
	if r.Enum("offload", "overlap", "on", "on", "off") == "off" {
		cfg.Overlap = -1
	}
	cfg.ChunkParallel = r.Int("offload", "chunk-parallel", 0)
	cfg.HealthTTL = r.Millis("offload", "health-ttl-ms", 0)
	cfg.JNI = JNI{
		CallBase:  simtime.FromReal(r.Millis("offload", "jni-base-ms", DefaultJNI().CallBase.Real())),
		BytesPerS: r.Float("offload", "jni-mbps", DefaultJNI().BytesPerS/1e6) * 1e6,
	}
	cfg.EnableCache = r.Bool("offload", "enable-cache", false)
	cfg.RunOnDriver = r.Bool("offload", "run-on-driver", false)
	cfg.Resume = r.Bool("offload", "resume", false)
	// retry-max: 0 = default 3 attempts per storage leg; negative = no
	// retries. retry-base-ms/retry-cap-ms follow the same 0-means-default
	// convention as the other duration knobs, so an explicit zero (or
	// negative) backoff is a config mistake, not a request for hot-loop
	// retries.
	cfg.RetryMax = r.Int("offload", "retry-max", 0)
	cfg.RetryBase = r.Millis("offload", "retry-base-ms", 0, config.Positive)
	cfg.RetryCap = r.Millis("offload", "retry-cap-ms", 0)
	// breaker-failures: 0 = default threshold; -1 = breaker off. An
	// explicit zero would build a breaker that trips instantly, and other
	// negatives are typos for the -1 sentinel — both rejected.
	cfg.BreakerFailures = r.Int("offload", "breaker-failures", 0,
		config.Must("a positive threshold or -1 to disable", func(x float64) bool { return x > 0 || x == -1 }))
	cfg.BreakerCooldown = r.Millis("offload", "breaker-cooldown-ms", 0)
	// deadline-mult: 0 (default) = no attempt deadlines; positive = abort a
	// storage attempt past p99 × mult of its observed latency. The floor/cap
	// knobs clamp the derived value, so explicit non-positive values would
	// silently disable the clamp they name — rejected.
	cfg.DeadlineMult = r.Float("offload", "deadline-mult", 0, config.Positive)
	cfg.DeadlineFloor = r.Millis("offload", "deadline-floor-ms", 0, config.Positive)
	cfg.DeadlineCap = r.Millis("offload", "deadline-cap-ms", 0, config.Positive)
	cfg.Hedge = r.Bool("offload", "hedge", false)
	cfg.HedgeQuantile = r.Float("offload", "hedge-quantile", 0,
		config.Must("in (0, 1)", func(x float64) bool { return x > 0 && x < 1 }))
	cfg.AdaptDegraded = r.Bool("offload", "adapt-degraded", false)
	if r.Enum("offload", "fallback", "host", "host", "fail") == "fail" {
		cfg.Fallback = FallbackFail
	}
	if r.Bool("offload", "verbose", false) {
		cfg.Log = log.Printf
	}
	r.Fail(cfg.withDefaults().validate())

	return cfg, func(cfg *CloudConfig) error {
		if provider == "sim" {
			cfg.Provider = cloud.NewSimProvider(creds, cloud.WithBootTime(simtime.FromSeconds(bootSecs)))
		}
		switch storeType {
		case "memory":
			cfg.Store = storage.NewMemStore()
		case "disk":
			ds, err := storage.NewDiskStore(path)
			if err != nil {
				return err
			}
			cfg.Store = ds
		case "remote":
			rs, err := storage.Dial(addr)
			if err != nil {
				// An unreachable storage service must not fail
				// construction: the device reports unavailable and the
				// manager falls back to the host (§III.A).
				cfg.Store = unreachableStore{addr: addr, err: err}
			} else {
				cfg.Store = rs
			}
		}
		return nil
	}
}

// unreachableStore is a Store whose every operation fails with the original
// dial error, making the cloud device report itself unavailable.
type unreachableStore struct {
	addr string
	err  error
}

func (u unreachableStore) fail() error {
	return fmt.Errorf("offload: storage %s unreachable: %w", u.addr, u.err)
}

func (u unreachableStore) Put(string, []byte) error      { return u.fail() }
func (u unreachableStore) Get(string) ([]byte, error)    { return nil, u.fail() }
func (u unreachableStore) Delete(string) error           { return u.fail() }
func (u unreachableStore) List(string) ([]string, error) { return nil, u.fail() }
func (u unreachableStore) Stat(string) (int64, error)    { return 0, u.fail() }

var _ storage.Store = unreachableStore{}
