package trace

import (
	"testing"

	"ompcloud/internal/simtime"
)

// A region mixing a host-fallback loop (barriered, no overlap) with a
// streamed loop must merge to critical path = sum of per-loop effective
// durations. Reconstructing it as Total - ΣWallOverlap misattributes the
// barriered loop's time whenever the streamed loop's own bookkeeping is not
// exactly Total-CP, and drops the critical path entirely when the streamed
// loop's pipeline saved nothing (CriticalPath == Total, WallOverlap == 0).
func TestMergeFallbackPlusStreamed(t *testing.T) {
	fallback := NewReport("host", "k")
	fallback.Add(PhaseCompute, 100*simtime.Second)
	fallback.FellBack = true
	fallback.FallbackReason = "cloud unavailable"

	streamed := NewReport("cloud", "k")
	streamed.Add(PhaseUpload, 10*simtime.Second)
	streamed.Add(PhaseSpark, 5*simtime.Second)
	streamed.Add(PhaseCompute, 80*simtime.Second)
	streamed.Add(PhaseDownload, 5*simtime.Second)
	streamed.CriticalPath = 60 * simtime.Second
	streamed.WallOverlap = 40 * simtime.Second

	m := Merge("cloud", "k", Sequential, fallback, streamed)
	if want := 160 * simtime.Second; m.CriticalPath != want {
		t.Fatalf("merged CriticalPath = %v, want %v (100s barriered + 60s streamed)", m.CriticalPath, want)
	}
	if want := 40 * simtime.Second; m.WallOverlap != want {
		t.Fatalf("merged WallOverlap = %v, want %v", m.WallOverlap, want)
	}
	if m.Effective() != 160*simtime.Second {
		t.Fatalf("merged Effective = %v, want 160s", m.Effective())
	}
	if !m.FellBack || m.FallbackReason == "" {
		t.Fatalf("fallback flags lost in merge")
	}
}

// Account legitimately produces CriticalPath == Total with WallOverlap == 0
// when the pipeline grants no saving (a single dominant stage). The merge
// must still keep the streamed loop's critical path instead of keying off a
// zero WallOverlap and discarding it.
func TestMergeKeepsCriticalPathWhenOverlapIsZero(t *testing.T) {
	streamed := NewReport("cloud", "k")
	streamed.Add(PhaseCompute, 80*simtime.Second)
	streamed.CriticalPath = 80 * simtime.Second // pipeline saved nothing
	streamed.WallOverlap = 0

	fallback := NewReport("host", "k")
	fallback.Add(PhaseCompute, 20*simtime.Second)
	fallback.FellBack = true

	m := Merge("cloud", "k", Sequential, streamed, fallback)
	if want := 100 * simtime.Second; m.CriticalPath != want {
		t.Fatalf("merged CriticalPath = %v, want %v (streaming info must survive the merge)", m.CriticalPath, want)
	}
	if m.WallOverlap != 0 {
		t.Fatalf("merged WallOverlap = %v, want 0", m.WallOverlap)
	}
}

// All-barriered merges stay barriered: no CriticalPath materializes.
func TestMergeBarrieredStaysBarriered(t *testing.T) {
	a := NewReport("host", "k")
	a.Add(PhaseCompute, 10*simtime.Second)
	b := NewReport("host", "k")
	b.Add(PhaseCompute, 20*simtime.Second)
	m := Merge("host", "k", Sequential, a, b)
	if m.CriticalPath != 0 || m.WallOverlap != 0 {
		t.Fatalf("barriered merge grew overlap state: %+v", m)
	}
	if m.Effective() != 30*simtime.Second {
		t.Fatalf("Effective = %v, want 30s", m.Effective())
	}
}

// Counters, bytes, phase work and dollars sum under either relation; nil
// reports are skipped.
func TestMergeAggregation(t *testing.T) {
	a := NewReport("d", "k1")
	a.Add(PhaseUpload, simtime.Second)
	a.BytesUploaded = 100
	a.Tiles = 4
	a.Cores = 8
	a.CostUSD = 0.25
	b := NewReport("d", "k2")
	b.Add(PhaseCompute, 2*simtime.Second)
	b.BytesDownloaded = 50
	b.BytesBroadcast = 7
	b.TaskFailures = 1
	b.Tiles = 2
	b.Cores = 16
	b.CostUSD = 0.5
	b.FellBack = true

	for _, rel := range []Relation{Sequential, Parallel} {
		m := Merge("d", "merged", rel, a, nil, b)
		if m.Total() != 3*simtime.Second {
			t.Fatalf("Total = %v", m.Total())
		}
		if m.BytesUploaded != 100 || m.BytesDownloaded != 50 || m.BytesBroadcast != 7 {
			t.Fatalf("bytes wrong: %+v", m)
		}
		if m.Tiles != 6 || m.TaskFailures != 1 || !m.FellBack {
			t.Fatalf("meta wrong: %+v", m)
		}
		if m.CostUSD != 0.75 {
			t.Fatalf("CostUSD = %v, want the sum 0.75", m.CostUSD)
		}
	}
}

// The two intended differences between the relations: sequential phases
// share one device (Cores = max) and lay end to end (Effective = sum);
// parallel members add their cores and overlap (Effective = slowest).
func TestMergeRelations(t *testing.T) {
	a := NewReport("d", "k")
	a.Add(PhaseCompute, 10*simtime.Second)
	a.Cores = 8
	b := NewReport("d", "k")
	b.Add(PhaseCompute, 30*simtime.Second)
	b.Cores = 16

	seq := Merge("d", "k", Sequential, a, b)
	if seq.Cores != 16 || seq.Effective() != 40*simtime.Second {
		t.Fatalf("sequential: %d cores, effective %v; want 16, 40s", seq.Cores, seq.Effective())
	}
	par := Merge("d", "k", Parallel, a, b)
	if par.Cores != 24 || par.Effective() != 30*simtime.Second {
		t.Fatalf("parallel: %d cores, effective %v; want 24, 30s", par.Cores, par.Effective())
	}
	if par.WallOverlap != 10*simtime.Second {
		t.Fatalf("parallel WallOverlap = %v, want 10s", par.WallOverlap)
	}
}
