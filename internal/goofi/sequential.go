package goofi

import (
	"cmp"
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

// Default sizes of a sequential campaign (see PrecisionConfig).
const (
	DefaultBatchSize      = 500
	DefaultMaxExperiments = 50000
)

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

	// BatchSize is the number of experiments per batch
	// (default DefaultBatchSize).
	BatchSize int

	// MaxExperiments bounds the total effort
	// (default DefaultMaxExperiments).
	MaxExperiments int

	// RunBatch, if non-nil, runs batch b, the fixed-count campaign cfg
	// (see Batch), in place of RunContext and returns its records with
	// batch-local IDs. Campaign.OnRecord and Campaign.OnResume reach
	// the caller through cfg's hooks, which a runner must then honour
	// as RunContext does. The server shards batches through it.
	RunBatch func(ctx context.Context, b int, cfg Config) (*Result, error)
}

// withDefaults resolves the zero BatchSize, MaxExperiments and RunBatch.
func (p PrecisionConfig) withDefaults() PrecisionConfig {
	if p.BatchSize <= 0 {
		p.BatchSize = DefaultBatchSize
	}
	if p.MaxExperiments <= 0 {
		p.MaxExperiments = DefaultMaxExperiments
	}
	if p.RunBatch == nil {
		p.RunBatch = func(ctx context.Context, _ int, cfg Config) (*Result, error) { return RunContext(ctx, cfg) }
	}
	return p
}

// Batch returns the fixed-count campaign that batch b runs:
// min(BatchSize, remaining budget) experiments under the seed
// Campaign.Seed + b·1_000_003 — a distinct seed per batch keeps samples
// independent while staying reproducible. Its records take the
// campaign-wide IDs [b·BatchSize, (b+1)·BatchSize). The returned config
// carries none of Campaign's Resume, OnRecord or OnResume.
func (p PrecisionConfig) Batch(b int) Config {
	p = p.withDefaults()
	cfg := p.Campaign
	cfg.Experiments = min(p.BatchSize, p.MaxExperiments-b*p.BatchSize)
	cfg.Seed = p.Campaign.Seed + uint64(b)*1_000_003
	cfg.Resume, cfg.OnRecord, cfg.OnResume = nil, nil, nil
	return cfg
}

// PrecisionResult is the outcome of a sequential campaign.
type PrecisionResult struct {
	Records     []Record
	Estimate    stats.Proportion
	HalfWidth   float64
	Batches     int
	Converged   bool // target reached before MaxExperiments
	Experiments int

	// Plan is the fast-path decision the batches executed (see
	// Result.Plan); zero when RunBatch reports none.
	Plan ExecPlan

	// Prune accumulates the fault-space pruner's work avoidance over
	// every batch; nil when no batch pruned.
	Prune *PruneStats

	// Detect is the armed detectors' configuration with verdict counts
	// over every batch; nil when no detectors were armed.
	Detect *DetectStats

	// Faults accumulates worker fault isolation's interventions over
	// every batch (see Result.Faults).
	Faults FaultStats
}

// RunUntilPrecision runs batches of experiments, extending the seed per
// batch, until the metric's confidence half-width reaches the target or
// the experiment budget is exhausted. Results are deterministic for a
// given configuration.
//
// Every batch is an ordinary fixed-count campaign (see Batch). Batch b
// owns the experiment IDs [b·BatchSize, (b+1)·BatchSize), so every
// record of the campaign has a distinct, stable ID. Records in
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
	cfg = cfg.withDefaults()
	metric := cfg.Metric
	if metric == nil {
		metric = SevereProportion
	}

	res := &PrecisionResult{}
	counter := stats.NewCounter()
	var err error
	for err == nil && !res.Converged && res.Experiments < cfg.MaxExperiments {
		batch := cfg.Batch(res.Batches)
		first := res.Experiments
		for _, rec := range cfg.Campaign.Resume {
			if rec.ID >= first && rec.ID < first+batch.Experiments {
				batch.Resume = append(batch.Resume, ShiftID(rec, -first))
			}
		}
		if on := cfg.Campaign.OnRecord; on != nil {
			batch.OnRecord = func(rec Record) { on(ShiftID(rec, first)) }
		}
		if on := cfg.Campaign.OnResume; on != nil {
			batch.OnResume = func(recs []Record) {
				for i := range recs {
					recs[i] = ShiftID(recs[i], first)
				}
				on(recs)
			}
		}

		var out *Result
		if out, err = cfg.RunBatch(ctx, res.Batches, batch); out == nil {
			break
		}
		res.Plan = out.Plan
		if out.Prune != nil {
			res.Prune = cmp.Or(res.Prune, &PruneStats{})
			res.Prune.Add(*out.Prune)
		}
		if out.Detect != nil && res.Detect == nil {
			d := *out.Detect
			res.Detect = &d
		}
		res.Faults.Add(out.Faults)
		if len(out.Records) == 0 {
			continue
		}
		for i := range out.Records {
			out.Records[i] = ShiftID(out.Records[i], first)
		}
		res.Records = append(res.Records, out.Records...)
		res.Batches++
		res.Experiments += len(out.Records)
		counter.Merge(Analyze(out.Records).Total)
		res.Estimate = metric(counter)
		res.HalfWidth = res.Estimate.CI95()
		// A zero-count estimate has a degenerate normal CI; keep
		// sampling until at least one observation or the budget ends.
		res.Converged = err == nil && res.Estimate.Count > 0 && res.HalfWidth <= cfg.TargetHalfWidth
	}
	if res.Detect != nil {
		res.Detect.CFEDetected, res.Detect.AutomatonDetected = TallyDetect(res.Records)
	}
	if err != nil && ctx.Err() == nil {
		return nil, err
	}
	return res, err
}

// ShiftID moves a record by delta experiment IDs, together with the
// representative ID a class member's provenance names: batch b of a
// sequential campaign shifts its batch-local records by b·BatchSize.
func ShiftID(rec Record, delta int) Record {
	rec.ID += delta
	if rep, ok := strings.CutPrefix(rec.Provenance, provenanceMemberPrefix); ok {
		if id, err := strconv.Atoi(rep); err == nil {
			rec.Provenance = ProvenanceMemberOf(id + delta)
		}
	}
	return rec
}
