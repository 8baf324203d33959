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
// draws it, on the same set-up, and armed detectors run as in the
// campaign, so the returned trace replays the campaign's experiment n
// bit for bit — a campaign record plus its campaign spec is enough to
// reconstruct the full forensic picture after the fact. The replay
// declines every shortcut: no golden-cursor forks and no fault-space
// pruning, so even an experiment whose campaign record was inferred
// (pruned-dead or class member) is traced as a genuine full simulation.
func TraceExperiment(ctx context.Context, cfg Config, n int) (*trace.Trace, error) {
	if n < 0 {
		return nil, fmt.Errorf("goofi: experiment index %d is negative", n)
	}
	if cfg.Experiments > 0 && n >= cfg.Experiments {
		return nil, fmt.Errorf("goofi: experiment %d out of range (campaign has %d)", n, cfg.Experiments)
	}
	if n >= ExperimentLimit {
		// Reaching experiment n draws n+1 samples; an unbounded
		// campaign must not turn a huge index into an endless loop.
		return nil, fmt.Errorf("goofi: experiment %d out of range (limit %d)", n, ExperimentLimit)
	}
	_, prog, su, err := setupFor(&cfg)
	if err != nil {
		return nil, err
	}

	sampler, err := inject.NewModelSampler(cfg.Seed, su.golden.Instructions, cfg.Model, cfg.BurstWidth)
	if err != nil {
		return nil, err
	}
	var inj workload.Injection
	for i := 0; i <= n; i++ {
		inj = sampler.Next()
	}

	cfg.Spec.Monitor = su.det.newMonitor(prog)
	tr, err := trace.Capture(ctx, cfg.Variant, cfg.Spec, inj, cfg.Classify)
	if err != nil {
		return nil, err
	}
	tr.Header.Experiment = n
	tr.Header.Seed = cfg.Seed
	return tr, nil
}
