package goofi

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"ctrlguard/internal/stats"
)

// Sequential campaigns: instead of fixing the number of experiments in
// advance (the paper used 9290 and 2372), run batches until the
// quantity of interest is estimated to a target precision. The paper's
// Algorithm II campaign, for example, is too small to bound the severe
// rate tightly (0.17 % ± 0.17 %); a precision-driven campaign makes the
// trade-off explicit.

// Metric extracts the proportion of interest from a tally.
type Metric func(*stats.Counter) stats.Proportion

// PrecisionConfig configures a sequential campaign.
type PrecisionConfig struct {
	// Campaign is the base configuration; its Experiments field is
	// ignored (batches are sized by BatchSize).
	Campaign Config

	// Metric is the proportion whose confidence interval drives
	// termination (default: SevereProportion).
	Metric Metric

	// TargetHalfWidth stops the campaign once the metric's 95 %
	// confidence half-width is at or below this value (e.g. 0.001 for
	// ±0.1 percentage points).
	TargetHalfWidth float64

	// BatchSize is the number of experiments per batch (default 500).
	BatchSize int

	// MaxExperiments bounds the total effort (default 50000).
	MaxExperiments int
}

// PrecisionResult is the outcome of a sequential campaign.
type PrecisionResult struct {
	Records     []Record
	Estimate    stats.Proportion
	HalfWidth   float64
	Batches     int
	Converged   bool // target reached before MaxExperiments
	Experiments int

	// Plan is the fast-path decision every batch executed (see
	// Result.Plan).
	Plan ExecPlan

	// WarmStart reports the checkpoint fast path's work avoidance,
	// cumulative over every batch (the batches share one golden run
	// and checkpoint cache); nil when Plan declined the layer.
	WarmStart *WarmStartStats

	// Prune accumulates the fault-space pruner's work avoidance over
	// every batch (the batches share one event index); nil when Plan
	// declined the layer.
	Prune *PruneStats

	// Detect accumulates the armed detectors' verdict counts over every
	// batch (the batches share one monitored golden run and mined
	// automaton); nil when no detectors were armed.
	Detect *DetectStats

	// Lockstep accumulates the batching engine's work sharing over
	// every batch; nil when Plan declined the layer.
	Lockstep *LockstepStats

	// Faults accumulates worker fault isolation's interventions over
	// every batch (see Result.Faults).
	Faults FaultStats
}

// RunUntilPrecision runs batches of experiments, extending the seed per
// batch, until the metric's confidence half-width reaches the target or
// the experiment budget is exhausted. Results are deterministic for a
// given configuration.
//
// Batch b owns the experiment IDs [b·BatchSize, (b+1)·BatchSize), so
// every record of the campaign has a distinct, stable ID. Records in
// Campaign.Resume are matched against their batch's plan like a
// fixed-count campaign's, and Campaign.OnRecord and Campaign.OnResume
// see campaign-wide IDs.
func RunUntilPrecision(cfg PrecisionConfig) (*PrecisionResult, error) {
	return RunUntilPrecisionContext(context.Background(), cfg)
}

// RunUntilPrecisionContext is RunUntilPrecision with cancellation: when
// ctx is cancelled the campaign stops at the next experiment boundary
// and returns the records and estimate accumulated so far together
// with ctx's error. A nil ctx behaves like context.Background.
func RunUntilPrecisionContext(ctx context.Context, cfg PrecisionConfig) (*PrecisionResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.TargetHalfWidth <= 0 {
		return nil, fmt.Errorf("goofi: TargetHalfWidth must be positive, got %v", cfg.TargetHalfWidth)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 500
	}
	if cfg.MaxExperiments <= 0 {
		cfg.MaxExperiments = 50000
	}
	metric := cfg.Metric
	if metric == nil {
		metric = SevereProportion
	}

	res := &PrecisionResult{}
	counter := stats.NewCounter()
	// Every batch runs the same variant and spec, so the golden run,
	// the checkpoint cache and the pruner's event index carry over from
	// batch to batch: only the first batch pays for the reference
	// execution.
	var warm *warmState
	var prn *pruneState
	var det *detectState
	for res.Experiments < cfg.MaxExperiments {
		batch := cfg.Campaign
		batch.Experiments = cfg.BatchSize
		if remaining := cfg.MaxExperiments - res.Experiments; batch.Experiments > remaining {
			batch.Experiments = remaining
		}
		// A distinct seed per batch keeps samples independent while
		// staying reproducible.
		batch.Seed = cfg.Campaign.Seed + uint64(res.Batches)*1_000_003
		batch.warm = warm
		batch.prune = prn
		batch.det = det
		first := res.Experiments
		batch.Resume = nil
		for _, rec := range cfg.Campaign.Resume {
			if rec.ID >= first && rec.ID < first+batch.Experiments {
				batch.Resume = append(batch.Resume, shiftID(rec, -first))
			}
		}
		if on := cfg.Campaign.OnRecord; on != nil {
			batch.OnRecord = func(rec Record) { on(shiftID(rec, first)) }
		}
		if on := cfg.Campaign.OnResume; on != nil {
			batch.OnResume = func(recs []Record) {
				for i := range recs {
					recs[i] = shiftID(recs[i], first)
				}
				on(recs)
			}
		}

		out, err := RunContext(ctx, batch)
		if out != nil {
			for i := range out.Records {
				out.Records[i] = shiftID(out.Records[i], first)
			}
			warm = out.Config.warm
			prn = out.Config.prune
			det = out.Config.det
			res.Plan = out.Plan
			if out.WarmStart != nil {
				res.WarmStart = out.WarmStart
			}
			if out.Prune != nil {
				if res.Prune == nil {
					res.Prune = &PruneStats{}
				}
				res.Prune.Add(*out.Prune)
			}
			if out.Detect != nil {
				if res.Detect == nil {
					d := *out.Detect
					d.CFEDetected, d.AutomatonDetected = 0, 0
					res.Detect = &d
				}
				res.Detect.CFEDetected += out.Detect.CFEDetected
				res.Detect.AutomatonDetected += out.Detect.AutomatonDetected
			}
			if out.Lockstep != nil {
				if res.Lockstep == nil {
					res.Lockstep = &LockstepStats{K: out.Lockstep.K}
				}
				res.Lockstep.Batches += out.Lockstep.Batches
				res.Lockstep.Lanes += out.Lockstep.Lanes
				res.Lockstep.Solo += out.Lockstep.Solo
				res.Lockstep.K = out.Lockstep.K
			}
			res.Faults.Add(out.Faults)
		}
		if out != nil && len(out.Records) > 0 {
			res.Records = append(res.Records, out.Records...)
			res.Batches++
			res.Experiments += len(out.Records)

			counter.Merge(Analyze(out.Records).Total)
			res.Estimate = metric(counter)
			res.HalfWidth = res.Estimate.CI95()
		}
		if err != nil {
			if ctx.Err() != nil {
				return res, err
			}
			return nil, err
		}
		// A zero-count estimate has a degenerate normal CI; keep
		// sampling until at least one observation or the budget ends.
		if res.Estimate.Count > 0 && res.HalfWidth <= cfg.TargetHalfWidth {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// shiftID moves a record by delta experiment IDs, together with the
// representative ID a class member's provenance names.
func shiftID(rec Record, delta int) Record {
	rec.ID += delta
	if rep, ok := strings.CutPrefix(rec.Provenance, provenanceMemberPrefix); ok {
		if id, err := strconv.Atoi(rep); err == nil {
			rec.Provenance = ProvenanceMemberOf(id + delta)
		}
	}
	return rec
}
