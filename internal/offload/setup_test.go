package offload

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ompcloud/internal/config"
	"ompcloud/internal/config/configtest"
	"ompcloud/internal/data"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

func parseConf(t *testing.T, text string) *config.File {
	t.Helper()
	f, err := config.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFromConfigDefaults(t *testing.T) {
	p, err := NewCloudPluginFromConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cores() != 256 {
		t.Fatalf("default cores = %d, want the paper's 256", p.Cores())
	}
	if !p.Available() {
		t.Fatal("memory-backed default should be available")
	}
}

func TestFromConfigFullFile(t *testing.T) {
	f := parseConf(t, `
[cluster]
workers = 2
cores-per-worker = 4
provider = sim
instance-type = c3.xlarge
auto-start = true
boot-seconds = 1

[credentials]
access-key = AK
secret-key = SK
region = us-west-2

[storage]
type = memory

[network]
wan-mbps = 100
lan-gbps = 1

[offload]
compress-min-bytes = 1024
jni-base-ms = 2
jni-mbps = 500
`)
	p, err := NewCloudPluginFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cores() != 8 {
		t.Fatalf("cores = %d", p.Cores())
	}
	if p.Cluster() == nil || len(p.Cluster().Workers) != 2 {
		t.Fatal("sim provider should have provisioned a 2-worker cluster")
	}
	if p.cfg.Profile.WAN.BitsPerSs != 1e8 {
		t.Fatalf("WAN bandwidth = %v", p.cfg.Profile.WAN.BitsPerSs)
	}
	if p.cfg.JNI.BytesPerS != 5e8 {
		t.Fatalf("JNI throughput = %v", p.cfg.JNI.BytesPerS)
	}

	// End-to-end run through the configured device.
	n := int64(128)
	in := data.Generate(1, int(n), data.Dense, 1)
	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	if data.GetFloat(out, 5) != 2*in.V[5] {
		t.Fatal("configured device computed wrong result")
	}
}

func TestFromConfigDiskStorage(t *testing.T) {
	dir := t.TempDir()
	f := parseConf(t, "[cluster]\nworkers = 1\ncores-per-worker = 2\n[storage]\ntype = disk\npath = "+dir+"\n")
	p, err := NewCloudPluginFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Available() {
		t.Fatal("disk store should be available")
	}
}

func TestFromConfigRemoteStorage(t *testing.T) {
	srv, err := storage.Serve("127.0.0.1:0", storage.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	f := parseConf(t, "[storage]\ntype = remote\naddress = "+srv.Addr()+"\n")
	p, err := NewCloudPluginFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Available() {
		t.Fatal("remote store should be available")
	}
}

func TestFromConfigUnreachableRemoteFallsBack(t *testing.T) {
	f := parseConf(t, "[storage]\ntype = remote\naddress = 127.0.0.1:1\n")
	p, err := NewCloudPluginFromConfig(f)
	if err != nil {
		t.Fatal(err) // construction must not fail
	}
	if p.Available() {
		t.Fatal("unreachable storage should make the device unavailable")
	}
	host, _ := NewHostPlugin(2)
	m, _ := NewManager(host)
	id := m.Register(p)
	n := int64(16)
	in := data.Generate(1, int(n), data.Dense, 2)
	out := make([]byte, 4*n)
	rep, err := m.Run(id, scale2Region(n, in.Bytes(), out))
	if err != nil || !rep.FellBack {
		t.Fatalf("expected host fallback, got rep=%v err=%v", rep, err)
	}
}

func TestFromConfigErrors(t *testing.T) {
	cases := []string{
		"[cluster]\nprovider = azure9000\n",
		"[storage]\ntype = tape\n",
		"[storage]\ntype = disk\n",   // missing path
		"[storage]\ntype = remote\n", // missing address
		"[cluster]\nworkers = many\n",
		"[network]\nwan-mbps = fast\n",
		"[offload]\njni-base-ms = x\n",
		"[cluster]\nworkers = 0\n",
	}
	for _, c := range cases {
		if _, err := NewCloudPluginFromConfig(parseConf(t, c)); err == nil {
			t.Errorf("config %q should fail", c)
		}
	}
}

func TestFromConfigKnobValidation(t *testing.T) {
	// Explicit values that would silently select a different mechanism
	// than the key promises must fail the parse, not misbehave.
	bad := []string{
		"[offload]\nretry-base-ms = 0\n",
		"[offload]\nretry-base-ms = -2\n",
		"[offload]\nbreaker-failures = 0\n",
		"[offload]\nbreaker-failures = -3\n",
		"[offload]\nchunk-bytes = -2\n",
		"[cluster]\nheartbeat-ms = 0\n",
		"[cluster]\nheartbeat-ms = -5\n",
		"[cluster]\nlease-misses = 0\n",
		"[cluster]\nlease-misses = -1\n",
		"[cluster]\nspeculate-quantile = 0\n",
		"[cluster]\nspeculate-quantile = 1.5\n",
		"[cluster]\nspeculate = perhaps\n",
		"[offload]\nresume = perhaps\n",
	}
	for _, c := range bad {
		if _, err := NewCloudPluginFromConfig(parseConf(t, c)); err == nil {
			t.Errorf("config %q should fail validation", c)
		}
	}
	// The documented sentinels and the new knobs' valid values still parse.
	good := []string{
		"[offload]\nbreaker-failures = -1\n", // disable breaker
		"[offload]\nchunk-bytes = -1\n",      // sequential transfers
		"[offload]\nretry-base-ms = 25\n",
		"[cluster]\nheartbeat-ms = 5\nlease-misses = 2\nspeculate = true\nspeculate-quantile = 0.6\n[offload]\nresume = true\n",
	}
	for _, c := range good {
		if _, err := NewCloudPluginFromConfig(parseConf(t, c)); err != nil {
			t.Errorf("config %q should parse: %v", c, err)
		}
	}
}

func TestFromConfigCodecAndDedupKnobs(t *testing.T) {
	p, err := NewCloudPluginFromConfig(parseConf(t, `
[cluster]
workers = 2
cores-per-worker = 2

[offload]
codec = zero
chunk-bytes = cdc
dedup = true
`))
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Codec.Algo != xcompress.AlgoZero {
		t.Fatalf("codec = %v, want zero", p.cfg.Codec.Algo)
	}
	if !p.cfg.CDC || p.cfg.ChunkBytes != 0 {
		t.Fatalf("chunk-bytes = cdc should select CDC at the default size, got CDC=%v ChunkBytes=%d",
			p.cfg.CDC, p.cfg.ChunkBytes)
	}
	if !p.cfg.Dedup {
		t.Fatal("dedup knob not wired")
	}

	// Defaults: legacy probe codec, fixed cuts, no dedup.
	d, err := NewCloudPluginFromConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.cfg.Codec.Algo != xcompress.AlgoAuto || d.cfg.CDC || d.cfg.Dedup {
		t.Fatalf("defaults changed: %+v", d.cfg)
	}

	// Friendly rejections: unknown codec names (the error lists the valid
	// ones) and dedup/cdc over the sequential transfer policy.
	for _, c := range []string{
		"[offload]\ncodec = zstd\n",
		"[offload]\ncodec = gzip9\n",
		"[offload]\ndedup = true\nchunk-bytes = -1\n",
		"[offload]\ndedup = perhaps\n",
	} {
		if _, err := NewCloudPluginFromConfig(parseConf(t, c)); err == nil {
			t.Errorf("config %q should fail", c)
		}
	}
	if _, err := NewCloudPluginFromConfig(parseConf(t, "[offload]\ncodec = zstd\n")); err == nil ||
		!strings.Contains(err.Error(), "adaptive") {
		t.Errorf("unknown-codec error should list valid names, got: %v", err)
	}
	// A config written for the retired codec fails by naming its replacement.
	if _, err := NewCloudPluginFromConfig(parseConf(t, "[offload]\ncodec = fast\n")); err == nil ||
		!strings.Contains(err.Error(), `"zero"`) {
		t.Errorf(`codec = fast should fail naming "zero", got: %v`, err)
	}

	// Every named codec parses.
	for _, name := range []string{"auto", "adaptive", "raw", "zero", "deflate", "gzip"} {
		if _, err := NewCloudPluginFromConfig(parseConf(t, "[offload]\ncodec = "+name+"\n")); err != nil {
			t.Errorf("codec %q should parse: %v", name, err)
		}
	}
}

func TestFromConfigFaultToleranceKnobs(t *testing.T) {
	f := parseConf(t, `
[cluster]
workers = 2
cores-per-worker = 2
heartbeat-ms = 4
lease-misses = 2
speculate = true
speculate-quantile = 0.5

[offload]
resume = true
enable-cache = true
`)
	p, err := NewCloudPluginFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Heartbeat != 4*time.Millisecond {
		t.Fatalf("Heartbeat = %v", p.cfg.Heartbeat)
	}
	if p.cfg.LeaseMisses != 2 {
		t.Fatalf("LeaseMisses = %d", p.cfg.LeaseMisses)
	}
	if !p.cfg.Speculate || p.cfg.SpeculateQuantile != 0.5 {
		t.Fatalf("Speculate = %v q=%v", p.cfg.Speculate, p.cfg.SpeculateQuantile)
	}
	if !p.cfg.Resume {
		t.Fatal("resume knob not wired")
	}
	n := int64(256)
	in := data.Generate(1, int(n), data.Dense, 7)
	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	if data.GetFloat(out, 9) != 2*in.V[9] {
		t.Fatal("configured device computed wrong result")
	}
}

func TestFromConfigNetPolicyKnobs(t *testing.T) {
	f := parseConf(t, `
[cluster]
workers = 2
cores-per-worker = 2

[offload]
deadline-mult = 3
deadline-floor-ms = 20
deadline-cap-ms = 1500
hedge = true
hedge-quantile = 0.95
adapt-degraded = true
`)
	p, err := NewCloudPluginFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.DeadlineMult != 3 {
		t.Fatalf("DeadlineMult = %v", p.cfg.DeadlineMult)
	}
	if p.cfg.DeadlineFloor != 20*time.Millisecond || p.cfg.DeadlineCap != 1500*time.Millisecond {
		t.Fatalf("deadline clamp = [%v, %v]", p.cfg.DeadlineFloor, p.cfg.DeadlineCap)
	}
	if !p.cfg.Hedge || p.cfg.HedgeQuantile != 0.95 {
		t.Fatalf("Hedge = %v q=%v", p.cfg.Hedge, p.cfg.HedgeQuantile)
	}
	if !p.cfg.AdaptDegraded {
		t.Fatal("adapt-degraded knob not wired")
	}
	bad := []string{
		"[offload]\ndeadline-mult = 0\n",
		"[offload]\ndeadline-mult = -1\n",
		"[offload]\ndeadline-floor-ms = 0\n",
		"[offload]\ndeadline-cap-ms = -5\n",
		"[offload]\nhedge = perhaps\n",
		"[offload]\nhedge-quantile = 0\n",
		"[offload]\nhedge-quantile = 1\n",
		"[offload]\nadapt-degraded = perhaps\n",
	}
	for _, c := range bad {
		if _, err := NewCloudPluginFromConfig(parseConf(t, c)); err == nil {
			t.Errorf("config %q should fail validation", c)
		}
	}
}

func TestFromConfigCacheAndVerbose(t *testing.T) {
	f := parseConf(t, "[cluster]\nworkers = 1\ncores-per-worker = 2\n[offload]\nenable-cache = true\nverbose = false\n")
	p, err := NewCloudPluginFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.index == nil {
		t.Fatal("enable-cache should install the content index")
	}
	n := int64(128)
	in := data.Generate(1, int(n), data.Dense, 40)
	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesUploaded != 0 {
		t.Fatal("configured cache did not hit on repeat offload")
	}
	for _, bad := range []string{"[offload]\nenable-cache = maybe\n", "[offload]\nverbose = 7up\n"} {
		if _, err := NewCloudPluginFromConfig(parseConf(t, bad)); err == nil {
			t.Errorf("config %q should fail", bad)
		}
	}
}

func TestFromConfigWorkerAddrs(t *testing.T) {
	addrs := startWorkers(t, 2)
	f := parseConf(t, "[cluster]\nworkers = 2\ncores-per-worker = 1\nworker-addrs = "+
		addrs[0]+" , "+addrs[1]+"\n")
	p, err := NewCloudPluginFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.pool == nil || p.pool.Size() != 2 {
		t.Fatal("worker pool not configured from file")
	}
	if !p.Available() {
		t.Fatal("configured workers should be available")
	}
}

func TestFromConfigBadCredentialsUnavailable(t *testing.T) {
	f := parseConf(t, "[cluster]\nworkers = 1\ncores-per-worker = 1\nprovider = sim\n")
	p, err := NewCloudPluginFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Available() {
		t.Fatal("sim provider without credentials should leave the device unavailable")
	}
}

// TestExampleConfIsComplete keeps ompcloud.conf.example the list of every
// key this package reads: the file with its optional lines switched on holds
// no key the parsers do not know and lacks none they ask for — flat
// sections, [host], and each [device] block with its own weight.
func TestExampleConfIsComplete(t *testing.T) {
	f := configtest.Example(t, "../../ompcloud.conf.example")
	r := f.Reader("")
	readCloudConfig(r)
	readHost(r)
	configtest.Complete(t, f, r)

	blocks, err := f.Named("device")
	if err != nil || len(blocks) == 0 {
		t.Fatalf("example device table: %v, %v", blocks, err)
	}
	for _, b := range blocks {
		r := f.Reader(b.Section)
		readDeviceBlock(r, b)
		configtest.Complete(t, f, r)
	}
	// And the whole file is accepted as it stands.
	if _, err := readDeviceTable(f); err != nil {
		t.Fatal(err)
	}
}

// A key nothing reads is an error naming its section, on the flat layout and
// inside a device table, instead of a run on the defaults.
func TestFromConfigRejectsUnknownKeys(t *testing.T) {
	for text, want := range map[string]string{
		"[offload]\nretry-maxx = 1\n":                                    "offload.retry-maxx",
		"[cluster]\nwokers = 4\n":                                        "cluster.wokers",
		"[storage]\ntype = memory\nadress = h:1\n":                       "storage.adress",
		"[device \"eu\"]\ncluster.wokers = 4\n":                          `device "eu".cluster.wokers`,
		"[device \"eu\"]\nworkers = 4\n":                                 `device "eu".workers`,
		"[network]\nwan-mbs = 5\n[device \"eu\"]\ncluster.workers = 4\n": "network.wan-mbs",
		"[host]\nthread = 2\n[device \"eu\"]\ncluster.workers = 4\n":     "host.thread",
	} {
		_, err := NewDevicePluginFromConfig(parseConf(t, text))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("config %q: err = %v, want it to name %s", text, err, want)
		}
	}
	// Keys that apply only under another key's value are known keys.
	ok := "[cluster]\nworkers = 1\nprovider = none\nboot-seconds = 3\n[credentials]\naccess-key = AK\nregion = eu-west-1\n" +
		"[storage]\ntype = memory\npath = /nowhere\naddress = 127.0.0.1:1\n" +
		"[service]\nmax-queu = 1\n" // another program's section
	if _, err := NewDevicePluginFromConfig(parseConf(t, ok)); err != nil {
		t.Fatal(err)
	}
}

// countingListener accepts and immediately closes connections. dialed
// reports how many arrived since it was last called: it dials a connection
// of its own and drains the accept log up to it, so every earlier dial —
// accepted in order — has been counted when it returns.
func countingListener(t *testing.T) (addr string, dialed func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan string) // remote address of each accepted connection
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			remote := c.RemoteAddr().String()
			c.Close()
			select {
			case accepted <- remote:
			case <-stop:
				return
			}
		}
	}()
	t.Cleanup(func() { close(stop); ln.Close(); <-done })
	return ln.Addr().String(), func() (others int) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for remote := range accepted {
			if remote == c.LocalAddr().String() {
				break
			}
			others++
		}
		return others
	}
}

// The whole file is checked before anything is dialed, created or
// provisioned: a bad knob after [storage], a bad later device block or a bad
// [host] must not leave a connection or a directory behind.
func TestFromConfigValidatesBeforeConstructing(t *testing.T) {
	addr, dialed := countingListener(t)
	dir := filepath.Join(t.TempDir(), "store")
	remote := "[storage]\ntype = remote\naddress = " + addr + "\n"
	for name, text := range map[string]string{
		"bad knob after storage":     remote + "[offload]\nretry-base-ms = 0\n",
		"unknown key":                remote + "[offload]\nretry-maxx = 1\n",
		"bad topology":               remote + "[cluster]\nworkers = 0\n",
		"dedup over sequential":      remote + "[offload]\ndedup = true\nchunk-bytes = -1\n",
		"disk store, bad knob":       "[storage]\ntype = disk\npath = " + dir + "\n[offload]\nhedge-quantile = 1\n",
		"second device block bad":    "[device \"a\"]\nstorage.type = remote\nstorage.address = " + addr + "\n[device \"b\"]\ncluster.workers = many\n",
		"second device unknown key":  "[device \"a\"]\nstorage.type = remote\nstorage.address = " + addr + "\n[device \"b\"]\nworkers = 2\n",
		"bad host after the devices": "[device \"a\"]\nstorage.type = remote\nstorage.address = " + addr + "\n[host]\nthreads = -1\n",
		"mixed weights":              "[device \"a\"]\nstorage.type = remote\nstorage.address = " + addr + "\nweight = 1\n[device \"b\"]\ncluster.workers = 2\n",
	} {
		if _, err := NewDevicePluginFromConfig(parseConf(t, text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if strings.HasPrefix(name, "second device") {
			if _, err := parseDeviceTable(parseConf(t, text)); err == nil {
				t.Errorf("%s: device table accepted", name)
			}
		}
		if n := dialed(); n != 0 {
			t.Errorf("%s: %d storage connections were dialed for a configuration that was then rejected", name, n)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a rejected configuration created its disk store directory (stat: %v)", err)
	}
	// The same storage section in a valid file does dial.
	p, err := NewCloudPluginFromConfig(parseConf(t, remote))
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if dialed() == 0 {
		t.Fatal("valid configuration never dialed its store: the listener proves nothing")
	}
}
