package offload

// The device table: named [device "..."] configuration blocks parsed into a
// set of cloud devices for the multi-device split. Each block overlays the
// file's flat sections, so shared knobs ([network], [offload]) are written
// once and a device customizes only what differs:
//
//	[device "eu"]
//	cluster.workers = 4
//	network.wan-mbps = 500
//	weight = 2.5          # optional static share weight (default: derived)
//
// Keys inside a device block are "<section>.<key>" for any key
// NewCloudPluginFromConfig documents, plus the device-local "weight".

import (
	"fmt"
	"io"
	"sort"

	"ompcloud/internal/config"
)

// DeviceEntry is one row of the parsed device table.
type DeviceEntry struct {
	// Name is the unquoted device name; it becomes the plugin's Name(),
	// its storage key scope, and its metric label.
	Name string
	// Weight is the static split weight (> 0) when the block sets one;
	// 0 means the splitter derives the weight from provisioned cores and
	// WAN rate, refined by observed throughput.
	Weight float64
	// Config is the assembled per-device configuration (DeviceName set).
	Config CloudConfig
}

// deviceDraft is a device block that has been read and checked; construct
// gives its Config the store and provider.
type deviceDraft struct {
	DeviceEntry
	construct func(*CloudConfig) error
}

// readDeviceTable reads and checks every [device "..."] block, each through
// a reader that overlays the block on the flat sections (the block's
// "s.k", then [s] k, then the default), sorted by name. It constructs
// nothing.
func readDeviceTable(f *config.File) ([]deviceDraft, error) {
	blocks, err := f.Named("device")
	if err != nil {
		return nil, fmt.Errorf("offload: %w", err)
	}
	drafts := make([]deviceDraft, 0, len(blocks))
	for _, b := range blocks {
		if err := checkDeviceName(b.Name); err != nil {
			return nil, err
		}
		r := f.Reader(b.Section)
		d := readDeviceBlock(r, b)
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("offload: device %q: %w", b.Name, err)
		}
		drafts = append(drafts, d)
	}
	sort.Slice(drafts, func(i, j int) bool { return drafts[i].Name < drafts[j].Name })
	return drafts, nil
}

// checkDeviceName restricts a device name to [A-Za-z0-9._-]: the name flows
// into storage key prefixes and metric labels, and separators and braces
// there would corrupt both.
func checkDeviceName(name string) error {
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("offload: device name %q: character %q not allowed (want [A-Za-z0-9._-])", name, c)
		}
	}
	return nil
}

// readDeviceBlock reads one device block through r, the reader overlaying
// it: a cloud device's keys plus the block's own weight.
func readDeviceBlock(r *config.Reader, b config.Block) deviceDraft {
	d := deviceDraft{DeviceEntry: DeviceEntry{Name: b.Name}}
	d.Config, d.construct = readCloudConfig(r)
	d.Config.DeviceName = b.Name
	d.Weight = r.Float(b.Section, "weight", 0, config.Positive)
	return d
}

// readHost reads the [host] member of a device table.
func readHost(r *config.Reader) (threads int, weight float64) {
	return r.Int("host", "threads", 16, config.NonNegative), r.Float("host", "weight", 0, config.Positive)
}

// constructDevices opens every draft's store and provider, in table order.
// When one fails, the stores already opened are closed again.
func constructDevices(drafts []deviceDraft) ([]DeviceEntry, error) {
	entries := make([]DeviceEntry, len(drafts))
	for i, d := range drafts {
		entries[i] = d.DeviceEntry
		if err := d.construct(&entries[i].Config); err != nil {
			for _, e := range entries[:i] {
				if c, ok := e.Config.Store.(io.Closer); ok {
					c.Close()
				}
			}
			return nil, fmt.Errorf("offload: device %q: %w", d.Name, err)
		}
	}
	return entries, nil
}

// NewMultiDeviceFromConfig assembles the multi-device split of a config
// file with [device "..."] blocks: the named clouds, plus a host member
// when [host] threads is positive (default 16 — the paper's region splits
// across the local machine AND the clouds; threads = 0 opts the host out).
// Static weights are all-or-nothing: either every member sets one (each
// device block's weight, plus [host] weight when the host participates) or
// none does and the splitter derives weights from provisioned capacity,
// refined by measured throughput. A file without device blocks returns
// (nil, nil): the caller falls back to the legacy single-device path.
func NewMultiDeviceFromConfig(f *config.File) (*MultiDevice, error) {
	drafts, err := readDeviceTable(f)
	if err != nil {
		return nil, err
	}
	if len(drafts) == 0 {
		return nil, nil
	}
	r := f.Reader("")
	hostThreads, hostWeight := readHost(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	weights := make([]float64, 0, len(drafts)+1)
	if hostThreads > 0 {
		weights = append(weights, hostWeight)
	}
	for _, d := range drafts {
		weights = append(weights, d.Weight)
	}
	withWeight := 0
	for _, w := range weights {
		if w > 0 {
			withWeight++
		}
	}
	switch withWeight {
	case 0:
		weights = nil // derive from provisioned capacity, refine from metrics
	case len(weights):
	default:
		return nil, fmt.Errorf("offload: static weights are all-or-nothing: %d of %d members set one", withWeight, len(weights))
	}

	entries, err := constructDevices(drafts)
	if err != nil {
		return nil, err
	}
	var members []Plugin
	if hostThreads > 0 {
		host, err := NewHostPlugin(hostThreads)
		if err != nil {
			return nil, err
		}
		members = append(members, host)
	}
	for _, e := range entries {
		p, err := NewCloudPlugin(e.Config)
		if err != nil {
			return nil, fmt.Errorf("offload: device %q: %w", e.Name, err)
		}
		members = append(members, p)
	}
	return NewMultiDevice(MultiDeviceConfig{Members: members, Weights: weights})
}

// NewDevicePluginFromConfig builds whatever device the config file
// describes: a MultiDevice when [device "..."] blocks are present, else the
// legacy single cloud plugin of the flat sections.
func NewDevicePluginFromConfig(f *config.File) (Plugin, error) {
	md, err := NewMultiDeviceFromConfig(f)
	if err != nil {
		return nil, err
	}
	if md != nil {
		return md, nil
	}
	return NewCloudPluginFromConfig(f)
}
