package spark

// DefaultSpeculationQuantile is the fraction of a stage's tasks that must
// have finished before stragglers are considered (Spark's
// spark.speculation.quantile).
const DefaultSpeculationQuantile = 0.75

// DefaultSpeculationMultiplier is how many times slower than the median of
// finished tasks a running task must be before it gets a backup copy
// (Spark's spark.speculation.multiplier).
const DefaultSpeculationMultiplier = 1.5

// SpeculationConfig enables Spark-style speculative execution: once the
// configured quantile of a stage's tasks has finished, any still-running
// task whose elapsed real time exceeds Multiplier x the median finished
// duration gets one backup copy on another worker. The first copy to finish
// commits the partition's result — commit is idempotent and exactly-once, so
// outputs stay bitwise identical to a speculation-free run (both copies
// compute the same deterministic lineage).
type SpeculationConfig struct {
	Enabled bool
	// Quantile is the fraction of tasks that must have completed before
	// any backup is launched (default DefaultSpeculationQuantile). Values
	// are clamped to (0, 1].
	Quantile float64
	// Multiplier scales the median finished-task duration into the
	// slowdown threshold (default DefaultSpeculationMultiplier).
	Multiplier float64
}

// WithSpeculation enables straggler speculation.
func WithSpeculation(sc SpeculationConfig) Option {
	return func(ctx *Context) { ctx.speculation = sc }
}

// normalized fills in defaults and clamps the quantile.
func (sc SpeculationConfig) normalized() SpeculationConfig {
	if sc.Quantile <= 0 || sc.Quantile > 1 {
		sc.Quantile = DefaultSpeculationQuantile
	}
	if sc.Multiplier <= 1 {
		sc.Multiplier = DefaultSpeculationMultiplier
	}
	return sc
}
