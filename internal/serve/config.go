package serve

import (
	"fmt"

	"ompcloud/internal/config"
	"ompcloud/internal/simtime"
)

// The daemon reads its policy from the [service] section of ompcloud.conf,
// with per-tenant overrides in [tenant "name"] blocks (the device-table
// idiom applied to the admission layer):
//
//	[service]
//	max-queue   = 64     # admission high watermark (queued jobs)
//	tenant-rate = 4      # default quota, jobs per virtual second
//	                     # (negative: quota off)
//	tenant-burst = 8     # default bucket depth
//	fair-share  = 4      # concurrent dispatch slots
//	pool-cores  = 16     # executor pool width with no registered workers
//	                     # (negative: workers-only, no static fallback)
//	drain-ms    = 5000   # graceful-drain deadline on SIGTERM
//
//	[tenant "analytics"]
//	rate   = 16
//	burst  = 32
//	weight = 2
//
// 0 means the daemon default everywhere. A negative value is rejected
// unless the key documents one above: a negative burst builds a bucket that
// never admits a job, and a negative queue, slot count or deadline would
// silently run on the default.

// ServiceSettings is the parsed [service] policy plus the drain deadline
// the daemon binary applies on SIGTERM.
type ServiceSettings struct {
	Config Config
	Drain  simtime.Duration
}

// DefaultDrain is the graceful-drain deadline when drain-ms is unset.
const DefaultDrain = 5 * simtime.Second

// ParseSettings reads the [service] section and every [tenant "..."]
// block. A file with no [service] section yields the daemon defaults.
func ParseSettings(f *config.File) (ServiceSettings, error) {
	blocks, err := f.Named("tenant")
	if err != nil {
		return ServiceSettings{}, fmt.Errorf("serve: %w", err)
	}
	r := f.Reader("")
	s := readSettings(r, blocks)
	return s, r.Done()
}

// readSettings is ParseSettings over a caller's reader.
func readSettings(r *config.Reader, tenants []config.Block) ServiceSettings {
	s := ServiceSettings{Config: Config{
		MaxQueue: r.Int("service", "max-queue", 0, config.NonNegative),
		Limits: Limits{
			Rate:  r.Float("service", "tenant-rate", 0),
			Burst: r.Float("service", "tenant-burst", 0, config.NonNegative),
		},
		FairShare: r.Int("service", "fair-share", 0, config.NonNegative),
		PoolCores: r.Int("service", "pool-cores", 0),
	}}
	s.Drain = simtime.FromReal(r.Millis("service", "drain-ms", 0, config.NonNegative))
	if s.Drain == 0 {
		s.Drain = DefaultDrain
	}
	for _, b := range tenants {
		if !ValidTenant(b.Name) {
			r.Fail(fmt.Errorf("serve: tenant section [%s]: bad name", b.Section))
		}
		if s.Config.Overrides == nil {
			s.Config.Overrides = make(map[string]Limits)
		}
		s.Config.Overrides[b.Name] = Limits{
			Rate:   r.Float(b.Section, "rate", 0),
			Burst:  r.Float(b.Section, "burst", 0, config.NonNegative),
			Weight: r.Float(b.Section, "weight", 0, config.NonNegative),
		}
	}
	return s
}
