package offload

import (
	"testing"

	"ompcloud/internal/config"
	"ompcloud/internal/netsim"
)

// parseDeviceTable reads and opens the named device blocks of a
// configuration file as NewMultiDeviceFromConfig does, without its host
// member: sorted by name, and no block's store opened unless every block is
// valid. An empty table means the legacy single-[cluster] layout.
func parseDeviceTable(f *config.File) ([]DeviceEntry, error) {
	drafts, err := readDeviceTable(f)
	if err != nil {
		return nil, err
	}
	return constructDevices(drafts)
}

func TestParseDeviceTable(t *testing.T) {
	f := parseConf(t, `
[cluster]
workers = 8
cores-per-worker = 4

[network]
wan-mbps = 1000

[device "eu"]
cluster.workers = 2
network.wan-mbps = 500
weight = 2.5

[device us-east]
cluster.cores-per-worker = 16
`)
	entries, err := parseDeviceTable(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	// Sorted by name, names unquoted.
	eu, us := entries[0], entries[1]
	if eu.Name != "eu" || us.Name != "us-east" {
		t.Fatalf("names: %q, %q", eu.Name, us.Name)
	}

	// Device-local overlays win; flat sections fill the rest.
	if eu.Config.Spec.Workers != 2 || eu.Config.Spec.CoresPerWorker != 4 {
		t.Fatalf("eu cluster: %+v", eu.Config.Spec)
	}
	if us.Config.Spec.Workers != 8 || us.Config.Spec.CoresPerWorker != 16 {
		t.Fatalf("us-east cluster: %+v", us.Config.Spec)
	}
	if got := eu.Config.Profile.WAN.BitsPerSs; got != netsim.Mbps(500) {
		t.Fatalf("eu WAN: %v", got)
	}
	if got := us.Config.Profile.WAN.BitsPerSs; got != netsim.Mbps(1000) {
		t.Fatalf("us-east WAN should fall back to the flat [network]: %v", got)
	}

	// Device names flow into the plugin identity.
	if eu.Config.DeviceName != "eu" || us.Config.DeviceName != "us-east" {
		t.Fatalf("device names: %q, %q", eu.Config.DeviceName, us.Config.DeviceName)
	}

	// Static weight: set on eu, derived (0) on us-east.
	if eu.Weight != 2.5 || us.Weight != 0 {
		t.Fatalf("weights: %v, %v", eu.Weight, us.Weight)
	}
}

func TestParseDeviceTableEmptyIsLegacy(t *testing.T) {
	f := parseConf(t, "[cluster]\nworkers = 4\n")
	entries, err := parseDeviceTable(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("flat config should yield an empty table, got %v", entries)
	}
	// The legacy single-plugin path still works on the same file.
	p, err := NewCloudPluginFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cores() != 4*16 {
		t.Fatalf("legacy plugin cores: %d", p.Cores())
	}
}

func TestParseDeviceTableErrors(t *testing.T) {
	cases := map[string]string{
		"duplicate block": `
[device "a"]
cluster.workers = 2
[device "a"]
cluster.workers = 4
`,
		"duplicate name across quoting": `
[device "a"]
cluster.workers = 2
[device a]
cluster.workers = 4
`,
		"zero weight": `
[device "a"]
weight = 0
`,
		"negative weight": `
[device "a"]
weight = -1
`,
		"empty name": `
[device ""]
cluster.workers = 2
`,
		"bad name characters": `
[device "a/b"]
cluster.workers = 2
`,
		"bad overlay value": `
[device "a"]
cluster.workers = many
`,
	}
	for name, text := range cases {
		f := parseConf(t, text)
		if _, err := parseDeviceTable(f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNewMultiDeviceFromConfig(t *testing.T) {
	// Host + two named clouds, derived weights.
	f := parseConf(t, `
[host]
threads = 4

[device "a"]
cluster.workers = 1
[device "b"]
cluster.workers = 2
`)
	md, err := NewMultiDeviceFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if md == nil {
		t.Fatal("device table should build a MultiDevice")
	}
	if got := md.Name(); got != "multi(host-4t+a+b)" {
		t.Fatalf("name: %q", got)
	}

	// threads = 0 opts the host out of the split.
	f = parseConf(t, "[host]\nthreads = 0\n\n[device \"a\"]\ncluster.workers = 1\n")
	if md, err = NewMultiDeviceFromConfig(f); err != nil {
		t.Fatal(err)
	}
	if got := md.Name(); got != "multi(a)" {
		t.Fatalf("host opt-out name: %q", got)
	}

	// A flat file is not a device table.
	f = parseConf(t, "[cluster]\nworkers = 4\n")
	if md, err = NewMultiDeviceFromConfig(f); err != nil || md != nil {
		t.Fatalf("flat file: md=%v err=%v", md, err)
	}
	p, err := NewDevicePluginFromConfig(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*CloudPlugin); !ok {
		t.Fatalf("flat file should build the legacy cloud plugin, got %T", p)
	}

	// Static weights are all-or-nothing across host and devices.
	f = parseConf(t, "[device \"a\"]\nweight = 1\n\n[device \"b\"]\ncluster.workers = 2\n")
	if _, err = NewMultiDeviceFromConfig(f); err == nil {
		t.Fatal("mixed weights accepted")
	}
	f = parseConf(t, `
[host]
threads = 2
weight = 4

[device "a"]
weight = 1
[device "b"]
weight = 3
`)
	if md, err = NewMultiDeviceFromConfig(f); err != nil {
		t.Fatal(err)
	}
	if md == nil {
		t.Fatal("fully weighted table should build a MultiDevice")
	}

	// Members keep the table's name order, names, cores and weights.
	f = parseConf(t, `
[host]
threads = 0

[device "b"]
cluster.workers = 2
cluster.cores-per-worker = 4
weight = 3

[device "a"]
cluster.workers = 1
cluster.cores-per-worker = 2
weight = 1
`)
	if md, err = NewMultiDeviceFromConfig(f); err != nil {
		t.Fatal(err)
	}
	members := md.cfg.Members
	if len(members) != 2 || members[0].Name() != "a" || members[1].Name() != "b" {
		t.Fatalf("members: %v", members)
	}
	if members[0].Cores() != 2 || members[1].Cores() != 8 {
		t.Fatalf("member cores: %d, %d", members[0].Cores(), members[1].Cores())
	}
	if w := md.cfg.Weights; len(w) != 2 || w[0] != 1 || w[1] != 3 {
		t.Fatalf("weights: %v", w)
	}
}
