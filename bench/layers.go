package bench

import "ctrlguard/internal/goofi"

// This file is the only place the benchmark reads the campaign engine's
// fast-path counters (Result.Prune, Result.WarmStart, Result.Lockstep).
// A change that removes one of those layers drops its metrics here and
// nowhere else. A layer that declined a campaign (nil stats) counts as
// doing no work on it: nothing pruned, resumed, skipped or batched.

// resultLayers sums the fast-path counters over campaigns.
type resultLayers struct {
	campaigns int

	planned, simulated, classes int

	resumed, earlyExits, checkpoints int
	skipped, replayable              float64 // instructions

	batches, lanes, solo int
}

func (l *resultLayers) add(res *goofi.Result) {
	l.campaigns++
	simulated := len(res.Records)
	if p := res.Prune; p != nil {
		l.planned += p.Planned
		l.simulated += p.Simulated
		l.classes += p.Classes
		simulated = p.Simulated
	} else {
		l.planned += len(res.Records)
		l.simulated += len(res.Records)
	}
	instr := float64(res.Golden.Instructions)
	if w := res.WarmStart; w != nil {
		l.resumed += w.Resumed
		l.earlyExits += w.EarlyExits
		l.checkpoints += w.Checkpoints
		l.skipped += float64(w.SkippedInstructions)
		l.replayable += float64(w.Resumed+w.FullReplays) * instr
	} else {
		l.replayable += float64(simulated) * instr
	}
	if ls := res.Lockstep; ls != nil {
		l.batches += ls.Batches
		l.lanes += ls.Lanes
		l.solo += ls.Solo
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *resultLayers) metrics() []Metric {
	n := float64(max(l.campaigns, 1))
	return []Metric{
		{Name: "prune.simulated_frac", Value: ratio(float64(l.simulated), float64(l.planned)), Unit: "ratio", N: l.campaigns},
		{Name: "prune.classes", Value: float64(l.classes) / n, Unit: "count", N: l.campaigns},
		{Name: "workload.reconverged_frac", Value: ratio(float64(l.earlyExits), float64(l.resumed)), Unit: "ratio", N: l.campaigns},
		{Name: "goofi.warm.skipped_frac", Value: ratio(l.skipped, l.replayable), Unit: "ratio", N: l.campaigns},
		{Name: "goofi.warm.checkpoints", Value: float64(l.checkpoints) / n, Unit: "count", N: l.campaigns},
		{Name: "goofi.lockstep.lanes_per_batch", Value: ratio(float64(l.lanes), float64(l.batches)), Unit: "count", N: l.campaigns},
		{Name: "goofi.lockstep.solo", Value: float64(l.solo) / n, Unit: "count", N: l.campaigns},
	}
}
