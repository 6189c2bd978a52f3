// Package trace defines the phase-level execution report produced by every
// device plugin. Its decomposition mirrors Figure 5 of the paper, which
// splits each offloaded run into host-target communication (compression and
// WAN transfers in both directions), Spark overhead (job submission, task
// scheduling, intra-cluster communication and driver-side reconstruction)
// and computation (the parallel loop-body execution through the JNI-analog
// boundary).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ompcloud/internal/simtime"
)

// Phase identifies one component of an offloaded execution.
type Phase string

// The four accounted phases. Figure 5 merges the two communication
// directions into one "host-target communication" bar; HostTargetComm does
// that merge.
const (
	PhaseUpload   Phase = "host-to-target" // compress + upload inputs
	PhaseSpark    Phase = "spark-overhead" // submit, schedule, distribute, broadcast, collect, reconstruct
	PhaseCompute  Phase = "computation"    // parallel loop-body execution (incl. JNI-analog calls)
	PhaseDownload Phase = "target-to-host" // download + decompress outputs
)

// Report is the outcome of one target-region execution on some device.
type Report struct {
	Device string `json:"device"`
	Kernel string `json:"kernel"`

	// Phases maps each phase to its virtual duration. Phases a device
	// does not have (e.g. the host device has no communication) are
	// simply absent.
	Phases map[Phase]simtime.Duration `json:"phases"`

	// Tiles is the number of loop tiles (= Spark tasks / JNI calls).
	Tiles int `json:"tiles"`
	// Cores is the simulated worker-core count the region ran on.
	Cores int `json:"cores"`

	// BytesUploaded/BytesDownloaded are compressed wire bytes across the
	// host-target link.
	BytesUploaded   int64 `json:"bytes_uploaded"`
	BytesDownloaded int64 `json:"bytes_downloaded"`
	// Intra-cluster wire traffic (compressed): partition scatter to the
	// workers, broadcast replication, and task-output collection into the
	// driver. These expose what the §III.B partitioning extension saves.
	BytesScattered int64 `json:"bytes_scattered"`
	BytesBroadcast int64 `json:"bytes_broadcast"`
	BytesCollected int64 `json:"bytes_collected"`
	// BytesReconstructed is the raw volume the driver combined rebuilding the
	// outputs (Eq. 8): every tile's output copy. TileBytes lists, tile by
	// tile, the raw bytes each task marshalled across the JNI boundary.
	BytesReconstructed int64   `json:"bytes_reconstructed,omitempty"`
	TileBytes          []int64 `json:"tile_bytes,omitempty"`
	// TaskFailures counts retried task attempts (fault tolerance events).
	TaskFailures int `json:"task_failures"`
	// StorageRetries counts storage-leg operations that had to be
	// re-attempted by the retry policy (recovered transfer faults).
	StorageRetries int `json:"storage_retries,omitempty"`
	// ReexecutedTasks counts task attempts re-run because their worker
	// died mid-flight (lease expiry): Spark's lineage-recovery path.
	ReexecutedTasks int `json:"reexecuted_tasks,omitempty"`
	// SpeculativeWins/SpeculativeLosses count straggler backup copies by
	// race outcome: a win means the backup committed the partition first.
	SpeculativeWins   int `json:"speculative_wins,omitempty"`
	SpeculativeLosses int `json:"speculative_losses,omitempty"`
	// DeadWorkers counts workers whose heartbeat lease expired during the
	// region.
	DeadWorkers int `json:"dead_workers,omitempty"`
	// ResumedTiles counts tiles whose results were served from a resumed
	// session's journal instead of being recomputed.
	ResumedTiles int `json:"resumed_tiles,omitempty"`
	// DeadlineAborts counts storage attempts cut off by the per-leg
	// adaptive deadline (the attempt was abandoned and retried).
	DeadlineAborts int `json:"deadline_aborts,omitempty"`
	// HedgedGets/HedgeWins count backup reads launched past the hedge
	// delay and how many of them beat the primary.
	HedgedGets int `json:"hedged_gets,omitempty"`
	HedgeWins  int `json:"hedge_wins,omitempty"`
	// DegradedSwitches counts degraded-mode policy transitions (in either
	// direction) during the region: the transfer engine re-planned around
	// an observed bandwidth collapse.
	DegradedSwitches int `json:"degraded_switches,omitempty"`
	// PartitionSeconds is how long the storage link reported itself
	// partitioned during the region (simulated link schedules).
	PartitionSeconds float64 `json:"partition_seconds,omitempty"`
	// FellBack records that the region ran on the host instead of the
	// requested device (paper §III.A dynamic fallback) — either because
	// the device was unavailable at entry or because it failed
	// mid-flight with a transient error.
	FellBack bool `json:"fell_back,omitempty"`
	// FallbackReason says why FellBack happened, empty otherwise.
	FallbackReason string `json:"fallback_reason,omitempty"`

	// CriticalPath is the modelled end-to-end virtual duration when the
	// tile-granular streaming dataflow overlaps the four phases; 0 on
	// barriered runs, where Total() is the end-to-end time. WallOverlap is
	// the difference — the virtual time hidden by the overlap
	// (Total() - CriticalPath). Phase durations always report the
	// per-phase work; these two say how much of that work ran concurrently.
	CriticalPath simtime.Duration `json:"critical_path,omitempty"`
	WallOverlap  simtime.Duration `json:"wall_overlap,omitempty"`

	// CostUSD is the modelled dollar cost of the region under the device's
	// configured cost model ($/core-hour on effective duration plus
	// $/GiB-egress on bytes downloaded); 0 when the device carries no
	// prices. Multi-device reports sum their members' costs.
	CostUSD float64 `json:"cost_usd,omitempty"`
}

// NewReport builds an empty report.
func NewReport(device, kernel string) *Report {
	return &Report{Device: device, Kernel: kernel, Phases: make(map[Phase]simtime.Duration)}
}

// Add accumulates d into a phase.
func (r *Report) Add(p Phase, d simtime.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("trace: negative duration for %s", p))
	}
	r.Phases[p] += d
}

// Total reports the end-to-end virtual duration ("OmpCloud-full").
func (r *Report) Total() simtime.Duration {
	var sum simtime.Duration
	for _, d := range r.Phases {
		sum += d
	}
	return sum
}

// Effective reports the end-to-end virtual duration as experienced by the
// caller: the overlapped critical path on streaming runs, the phase sum on
// barriered ones.
func (r *Report) Effective() simtime.Duration {
	if r.CriticalPath > 0 {
		return r.CriticalPath
	}
	return r.Total()
}

// Relation says how the reports handed to Merge relate in time.
type Relation int

const (
	// Sequential reports ran one after another on one device: the open,
	// loops and close of a target-data environment.
	Sequential Relation = iota
	// Parallel reports ran side by side on different devices: the members
	// of a multi-device region.
	Parallel
)

// Merge folds several reports into one region-level report. Phase work, byte
// volumes, counters, tiles and CostUSD sum either way — they are real work
// done (and paid for) somewhere — and TileBytes concatenate in report order.
// The relation decides the rest:
//
//   - Cores: a Sequential merge keeps the widest phase's count (the same
//     device served every phase); a Parallel merge adds the members' up.
//   - End-to-end time: Sequential phases lay end to end, so it is the sum of
//     each report's Effective() — materialized into CriticalPath only when
//     some phase overlapped, so an all-barriered merge stays barriered;
//     Parallel members overlap entirely, so it is the slowest member's
//     Effective(). Reconstructing either from Total() minus summed
//     WallOverlap would misattribute the phases of a barriered (fallback)
//     report, which inflate Total but carry no overlap.
//
// Nil reports are skipped.
func Merge(device, kernel string, rel Relation, reps ...*Report) *Report {
	out := NewReport(device, kernel)
	var end simtime.Duration
	overlapped := rel == Parallel
	for _, r := range reps {
		if r == nil {
			continue
		}
		for ph, d := range r.Phases {
			out.Add(ph, d)
		}
		out.BytesUploaded += r.BytesUploaded
		out.BytesDownloaded += r.BytesDownloaded
		out.BytesScattered += r.BytesScattered
		out.BytesBroadcast += r.BytesBroadcast
		out.BytesCollected += r.BytesCollected
		out.BytesReconstructed += r.BytesReconstructed
		out.TileBytes = append(out.TileBytes, r.TileBytes...)
		out.TaskFailures += r.TaskFailures
		out.StorageRetries += r.StorageRetries
		out.ReexecutedTasks += r.ReexecutedTasks
		out.SpeculativeWins += r.SpeculativeWins
		out.SpeculativeLosses += r.SpeculativeLosses
		out.DeadWorkers += r.DeadWorkers
		out.ResumedTiles += r.ResumedTiles
		out.DeadlineAborts += r.DeadlineAborts
		out.HedgedGets += r.HedgedGets
		out.HedgeWins += r.HedgeWins
		out.DegradedSwitches += r.DegradedSwitches
		out.PartitionSeconds += r.PartitionSeconds
		out.Tiles += r.Tiles
		out.CostUSD += r.CostUSD
		out.FellBack = out.FellBack || r.FellBack
		if out.FallbackReason == "" {
			out.FallbackReason = r.FallbackReason
		}
		eff := r.Effective()
		if rel == Parallel {
			out.Cores += r.Cores
			end = max(end, eff)
		} else {
			out.Cores = max(out.Cores, r.Cores)
			end += eff
			overlapped = overlapped || r.CriticalPath > 0
		}
	}
	if overlapped {
		out.CriticalPath = end
		out.WallOverlap = out.Total() - end
	}
	return out
}

// HostTargetComm merges the two communication directions, Figure 5's first
// bar component.
func (r *Report) HostTargetComm() simtime.Duration {
	return r.Phases[PhaseUpload] + r.Phases[PhaseDownload]
}

// SparkTime reports the duration the paper calls "Spark job execution time
// (without the host-target communication)" — the OmpCloud-spark series.
func (r *Report) SparkTime() simtime.Duration {
	return r.Phases[PhaseSpark] + r.Phases[PhaseCompute]
}

// ComputeTime reports the pure parallel computation — the
// OmpCloud-computation series.
func (r *Report) ComputeTime() simtime.Duration { return r.Phases[PhaseCompute] }

// Shares reports each Figure 5 component as a fraction of the effective
// end-to-end duration (Effective()): the critical path on streamed runs, the
// phase sum on barriered ones. Dividing by Total() instead would understate
// every component on a streamed run, where overlapped work exceeds the
// wall-clock the caller experienced — on such runs the shares legitimately
// sum past 1.
func (r *Report) Shares() (comm, spark, compute float64) {
	t := r.Effective().Seconds()
	if t == 0 {
		return 0, 0, 0
	}
	return r.HostTargetComm().Seconds() / t,
		r.Phases[PhaseSpark].Seconds() / t,
		r.Phases[PhaseCompute].Seconds() / t
}

// String renders a compact single-run summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s on %d cores (%d tiles): total %v", r.Device, r.Kernel, r.Cores, r.Tiles, r.Total().Real())
	fmt.Fprintf(&b, " [comm %v | spark %v | compute %v]",
		r.HostTargetComm().Real(), r.Phases[PhaseSpark].Real(), r.Phases[PhaseCompute].Real())
	if r.CriticalPath > 0 {
		fmt.Fprintf(&b, " streamed to %v (%v overlapped)", r.CriticalPath.Real(), r.WallOverlap.Real())
	}
	if r.FellBack {
		b.WriteString(" (fell back to host)")
	}
	return b.String()
}

// MarshalJSON adds the derived "effective" field — the end-to-end duration
// consumers should compare runs by. It is computed at serialization time so
// it can never go stale against CriticalPath/Phases; ompcloud-bench reads it
// instead of re-deriving the fallback chain client-side.
func (r *Report) MarshalJSON() ([]byte, error) {
	type alias Report // drops the method set, avoiding marshal recursion
	return json.Marshal(&struct {
		*alias
		Effective simtime.Duration `json:"effective"`
	}{(*alias)(r), r.Effective()})
}

// WriteJSON serializes the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// apportion splits width cells among the weights by largest remainder
// (Hamilton's method): each row gets floor(weight/sum * width), then the
// leftover cells go to the largest fractional remainders (earlier rows win
// ties). The allocations always sum to exactly width, unlike per-row
// rounding, which can over- or under-shoot by a cell per row.
func apportion(weights []simtime.Duration, width int) []int {
	cells := make([]int, len(weights))
	var sum simtime.Duration
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 || width <= 0 {
		return cells
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(weights))
	used := 0
	for i, wt := range weights {
		exact := float64(wt) / float64(sum) * float64(width)
		cells[i] = int(exact)
		used += cells[i]
		rems[i] = rem{i, exact - float64(cells[i])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for k := 0; k < width-used; k++ {
		cells[rems[k%len(rems)].idx]++
	}
	return cells
}

// WriteBreakdown renders the Figure 5-style decomposition as an ASCII bar
// chart, width columns wide. Bars apportion the width across the components'
// work (largest remainder, so the glyphs always tile the width exactly);
// the percentage column is each component's share of the effective
// end-to-end duration, with the basis named in the header.
func (r *Report) WriteBreakdown(w io.Writer, width int) {
	if width < 10 {
		width = 10
	}
	eff := r.Effective()
	rows := []struct {
		label string
		d     simtime.Duration
		glyph byte
	}{
		{"host-target comm", r.HostTargetComm(), '#'},
		{"spark overhead", r.Phases[PhaseSpark], '='},
		{"computation", r.Phases[PhaseCompute], '*'},
	}
	basis := "total"
	if r.CriticalPath > 0 {
		basis = "critical path"
	}
	fmt.Fprintf(w, "%s/%s — %s %v on %d cores (shares of %s)\n",
		r.Device, r.Kernel, basis, eff.Real(), r.Cores, basis)
	weights := make([]simtime.Duration, len(rows))
	for i, row := range rows {
		weights[i] = row.d
	}
	cells := apportion(weights, width)
	for i, row := range rows {
		share := 0.0
		if eff > 0 {
			share = row.d.Seconds() / eff.Seconds()
		}
		bar := strings.Repeat(string(row.glyph), cells[i]) + strings.Repeat(".", width-cells[i])
		fmt.Fprintf(w, "  %-18s |%s| %5.1f%%  %v\n", row.label, bar, 100*share, row.d.Real())
	}
	if r.CriticalPath > 0 {
		fmt.Fprintf(w, "  streaming overlap hides %v: phase work totals %v\n",
			r.WallOverlap.Real(), r.Total().Real())
	}
}
