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
// capture is set. Armed detectors take the monitored golden run.
func newSetup(prog *cpu.Program, spec workload.RunSpec, hashes, capture bool, ds detect.Spec) (setup, error) {
	if ds.Enabled() {
		det, err := newDetectState(prog, spec, ds, hashes)
		if err != nil {
			return setup{}, err
		}
		return setup{golden: det.golden, det: det}, nil
	}
	golden, idx, err := runGolden(prog, spec, hashes, capture)
	return setup{golden: golden, idx: idx}, err
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

// prepFor returns v's warm-start set-up under the detectors ds, with
// the prune index when capture is set, computing each kind at most once
// per process.
func prepFor(v workload.Variant, prog *cpu.Program, capture bool, ds detect.Spec) (setup, error) {
	e, _ := preps.LoadOrStore(prepKey{v, capture, ds}, new(goldenPrep))
	p := e.(*goldenPrep)
	p.once.Do(func() {
		p.setup, p.err = newSetup(prog, workload.SpecFor(v), true, capture, ds)
	})
	return p.setup, p.err
}

// runGolden executes the reference run, recording state digests for the
// warm start when hashes is set and the pruner's event index when
// capture is set.
func runGolden(prog *cpu.Program, spec workload.RunSpec, hashes, capture bool) (*workload.Outcome, *prune.Index, error) {
	spec.RecordStateHashes = hashes
	var c *prune.Capture
	if capture {
		// As the run's monitor the capture keeps the idle fast-forward;
		// a caller's own monitor leaves it the stepping observer.
		c = prune.NewCapture()
		if spec.Monitor == nil {
			spec.Monitor = c
		} else {
			spec.Observer = c.Observer()
		}
	}
	golden := workload.Run(prog, spec)
	if golden.Detected() {
		return nil, nil, fmt.Errorf("goofi: reference execution trapped: %v", golden.Trap)
	}
	if c == nil {
		return golden, nil, nil
	}
	// A nil index means the capture saw something it could not model;
	// pruning silently degrades to full simulation.
	return golden, c.Finish(golden.Instructions), nil
}
