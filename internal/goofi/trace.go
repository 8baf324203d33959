package goofi

import (
	"context"
	"fmt"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/trace"
	"ctrlguard/internal/workload"
)

// TraceConfig opts a campaign into forensic tracing: selected
// experiments are re-executed in detail mode after classification and
// their propagation traces handed to OnTrace. Tracing an experiment
// costs two fully instrumented runs (reference and faulty), orders of
// magnitude more than the experiment itself — select sparingly.
type TraceConfig struct {
	// Select decides which completed experiments to trace. nil selects
	// the severe value failures (permanent and semi-permanent), the
	// cases the paper's propagation analysis is about.
	Select func(Record) bool

	// OnTrace receives each captured trace. Calls are serialised with
	// OnRecord but follow worker completion order. A capture that
	// fails (for example when the campaign is cancelled mid-trace) is
	// dropped rather than reported.
	OnTrace func(Record, *trace.Trace)
}

func (tc *TraceConfig) shouldTrace(rec Record) bool {
	if tc.Select != nil {
		return tc.Select(rec)
	}
	return rec.Outcome == classify.Permanent.String() ||
		rec.Outcome == classify.SemiPermanent.String()
}

// TraceExperiment re-runs experiment n of the campaign described by
// cfg in detail mode and returns its propagation trace. The injection
// is re-derived from cfg.Seed and cfg.Model exactly as RunContext
// draws it, so the returned trace replays the campaign's experiment n
// bit for bit — a campaign record plus its campaign spec is enough to
// reconstruct the full forensic picture after the fact. The replay
// declines every shortcut: no warm-start checkpoints and no fault-space
// pruning, so even an experiment whose campaign record was inferred
// (pruned-dead or class member) is traced as a genuine full simulation.
// Like RunContext's trace mode, it refuses detector campaigns.
func TraceExperiment(ctx context.Context, cfg Config, n int) (*trace.Trace, error) {
	if n < 0 {
		return nil, fmt.Errorf("goofi: experiment index %d is negative", n)
	}
	if cfg.Experiments > 0 && n >= cfg.Experiments {
		return nil, fmt.Errorf("goofi: experiment %d out of range (campaign has %d)", n, cfg.Experiments)
	}
	if cfg.Detect.Enabled() {
		return nil, fmt.Errorf("goofi: trace mode does not support detector campaigns (the detail-mode replay cannot arm monitors)")
	}
	if cfg.Spec.Iterations == 0 {
		cfg.Spec = workload.SpecFor(cfg.Variant)
	}
	prog := workload.Program(cfg.Variant)
	golden := workload.Run(prog, cfg.Spec)
	if golden.Detected() {
		return nil, fmt.Errorf("goofi: reference execution trapped: %v", golden.Trap)
	}

	sampler, err := inject.NewModelSampler(cfg.Seed, golden.Instructions, cfg.Model, cfg.BurstWidth)
	if err != nil {
		return nil, err
	}
	var inj workload.Injection
	for i := 0; i <= n; i++ {
		inj = sampler.Next()
	}

	tr, err := trace.Capture(ctx, cfg.Variant, cfg.Spec, inj, cfg.Classify)
	if err != nil {
		return nil, err
	}
	tr.Header.Experiment = n
	tr.Header.Seed = cfg.Seed
	return tr, nil
}
