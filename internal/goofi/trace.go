package goofi

import (
	"context"
	"fmt"

	"ctrlguard/internal/inject"
	"ctrlguard/internal/trace"
	"ctrlguard/internal/workload"
)

// TraceExperiment re-runs experiment n of the campaign described by
// cfg in detail mode and returns its propagation trace. The injection
// is re-derived from cfg.Seed and cfg.Model exactly as RunContext
// draws it, so the returned trace replays the campaign's experiment n
// bit for bit — a campaign record plus its campaign spec is enough to
// reconstruct the full forensic picture after the fact. The replay
// declines every shortcut: no warm-start checkpoints and no fault-space
// pruning, so even an experiment whose campaign record was inferred
// (pruned-dead or class member) is traced as a genuine full simulation.
// It refuses detector campaigns, whose monitors the detail-mode replay
// cannot arm.
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
