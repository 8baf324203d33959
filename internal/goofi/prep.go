package goofi

import (
	"fmt"
	"sync"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/prune"
	"ctrlguard/internal/workload"
)

// setup is the part of a campaign's set-up phase that precedes
// sampling: the golden run (recorded with state hashes when the campaign
// warm-starts), the pruner's def-use index over it (nil unless the
// campaign prunes and the capture could model the run) and the armed
// detectors' state (nil without detectors). All of it is read-only once
// built, so concurrent campaigns share it.
type setup struct {
	golden *workload.Outcome
	idx    *prune.Index
	det    *detectState
}

// newSetup builds a campaign's set-up, recording state digests for the
// warm start when hashes is set and the pruner's event index when
// capture is set. Armed detectors take the monitored golden run; the
// capture is otherwise the golden run's monitor, which keeps the idle
// fast-forward.
func newSetup(prog *cpu.Program, spec workload.RunSpec, hashes, capture bool, ds detect.Spec) (setup, error) {
	if ds.Enabled() {
		det, err := newDetectState(prog, spec, ds, hashes)
		if err != nil {
			return setup{}, err
		}
		return setup{golden: det.golden, det: det}, nil
	}
	spec.RecordStateHashes = hashes
	var c *prune.Capture
	if capture {
		c = prune.NewCapture()
		spec.Monitor = c
	}
	su := setup{golden: workload.Run(prog, spec)}
	if su.golden.Detected() {
		return setup{}, fmt.Errorf("goofi: reference execution trapped: %v", su.golden.Trap)
	}
	if c != nil {
		// A nil index means the capture saw something it could not
		// model; pruning silently degrades to full simulation.
		su.idx = c.Finish(su.golden.Instructions)
	}
	return su, nil
}

// goldenPrep is one memoised set-up.
type goldenPrep struct {
	once sync.Once
	setup
	err error
}

// prepKey selects a memo entry: the variant, whether the entry carries
// the prune index, and the armed detectors. Warm-start-only campaigns
// (the non-default fault models) take the hashed golden run alone, so
// they never pay for the pruner's capture or keep its index alive;
// campaigns that prune take the combined run, captured in the same
// pass; detector campaigns take the monitored golden set-up of their
// detector selection.
type prepKey struct {
	variant workload.Variant
	capture bool
	detect  detect.Spec
}

// preps memoises goldenPrep per prepKey for campaigns that run the
// variant's default spec. Like workload.Program it needs no eviction:
// it holds at most five entries per compiled-in variant (two without
// detectors, one per detector selection).
var preps sync.Map // prepKey -> *goldenPrep

// setupFor plans campaign cfg, fills in its Spec and returns its program
// and the set-up it runs on, a memo plan's from preps, computed at most
// once per process. RunContext and TraceExperiment share it, so a trace
// replays its campaign's golden run and detectors.
func setupFor(cfg *Config) (ExecPlan, *cpu.Program, setup, error) {
	if cfg.Spec.Hook() != nil {
		return ExecPlan{}, nil, setup{}, errSpecHook
	}
	xp := planFor(*cfg)
	if cfg.Spec.Iterations == 0 {
		cfg.Spec = workload.SpecFor(cfg.Variant)
	}
	prog := workload.Program(cfg.Variant)
	if !xp.memo {
		su, err := newSetup(prog, cfg.Spec, xp.WarmStart, xp.Prune, cfg.Detect)
		return xp, prog, su, err
	}
	e, _ := preps.LoadOrStore(prepKey{cfg.Variant, xp.Prune, cfg.Detect}, new(goldenPrep))
	p := e.(*goldenPrep)
	p.once.Do(func() {
		p.setup, p.err = newSetup(prog, workload.SpecFor(cfg.Variant), true, xp.Prune, cfg.Detect)
	})
	return xp, prog, p.setup, p.err
}
