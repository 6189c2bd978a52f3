package autoscale

import (
	"ompcloud/internal/config"
	"ompcloud/internal/simtime"
)

// ParseSettings reads the [autoscale] section of a configuration file:
//
//	[autoscale]
//	policy            = reactive        # fixed | reactive | costcap
//	min-workers       = 1
//	max-workers       = 8
//	worker-cores      = 4
//	step              = 1               # workers per scale event
//	scale-out-depth   = 2               # queued jobs per worker that trigger growth
//	scale-in-idle-ms  = 30000           # quiet time before shrink
//	warmup-ms         = 45000           # boot latency charged on the virtual clock
//	cooldown-ms       = 60000           # min gap between scale events
//	budget-usd        = 0               # costcap ceiling (0 = uncapped)
//	cost-core-hour    = 0.105           # $/core-hour for the spend meter
//	cost-gib-egress   = 0.09            # $/GiB egress for the spend meter
//
// Every key has the engine's default; enabled is a separate concern (the
// daemon treats a missing section as autoscaling off). Zero or negative
// values for knobs whose name promises a positive quantity are rejected
// rather than silently remapped.
func ParseSettings(f *config.File) (Config, error) {
	r := f.Reader("")
	cfg := readSettings(r)
	if err := r.Done(); err != nil {
		return cfg, err
	}
	cfg = cfg.withDefaults()
	return cfg, cfg.Validate()
}

// readSettings is ParseSettings over a caller's reader, before defaults.
func readSettings(r *config.Reader) Config {
	const sec = "autoscale"
	var cfg Config
	if p := r.Str(sec, "policy", ""); p != "" {
		pol, err := ParsePolicy(p)
		r.Fail(err)
		cfg.Policy = pol
	}
	cfg.MinWorkers = r.Int(sec, "min-workers", 0, config.Positive)
	cfg.MaxWorkers = r.Int(sec, "max-workers", 0, config.Positive)
	cfg.WorkerCores = r.Int(sec, "worker-cores", 0, config.Positive)
	cfg.Step = r.Int(sec, "step", 0, config.Positive)
	cfg.ScaleOutDepth = r.Int(sec, "scale-out-depth", 0, config.Positive)
	cfg.ScaleInIdle = simtime.FromReal(r.Millis(sec, "scale-in-idle-ms", 0, config.Positive))
	cfg.WarmUp = simtime.FromReal(r.Millis(sec, "warmup-ms", 0, config.NonNegative))
	cfg.CoolDown = simtime.FromReal(r.Millis(sec, "cooldown-ms", 0, config.Positive))
	// warmup-ms = 0 is a legitimate ask (pre-warmed capacity) but the
	// engine's withDefaults treats 0 as unset, like the other durations;
	// WarmUp < 0 it clamps to 0, so that carries the explicit zero.
	if r.Has(sec, "warmup-ms") && cfg.WarmUp == 0 {
		cfg.WarmUp = -1
	}
	cfg.BudgetUSD = r.Float(sec, "budget-usd", 0, config.NonNegative)
	cfg.CoreHourUSD = r.Float(sec, "cost-core-hour", 0, config.Positive)
	cfg.EgressGiBUSD = r.Float(sec, "cost-gib-egress", 0, config.NonNegative)
	return cfg
}

// Enabled reports whether the file asks for autoscaling at all: an
// [autoscale] section present turns the daemon's advisory loop on.
func Enabled(f *config.File) bool {
	return f != nil && f.HasSection("autoscale")
}
