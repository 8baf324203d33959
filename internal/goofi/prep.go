package goofi

import (
	"fmt"
	"sync"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/prune"
	"ctrlguard/internal/workload"
)

// goldenPrep is the part of a campaign's set-up phase that depends on
// the workload variant alone: the golden run recorded with state hashes
// and, for campaigns that prune, the pruner's def-use index over it
// (nil when the capture declined the run). Both are read-only once
// built, so concurrent campaigns share them.
type goldenPrep struct {
	once   sync.Once
	golden *workload.Outcome
	idx    *prune.Index
	err    error
}

// prepKey selects a memo entry: the variant, and whether the entry
// carries the prune index. Warm-start-only campaigns (the non-default
// fault models) take the hashed golden run alone, so they never pay
// for the pruner's capture or keep its index alive; campaigns that
// prune take the combined run, captured in the same pass.
type prepKey struct {
	variant workload.Variant
	capture bool
}

// preps memoises goldenPrep per prepKey for campaigns that run the
// variant's default spec. Like workload.Program it needs no eviction:
// it holds at most two entries per compiled-in variant.
var preps sync.Map // prepKey -> *goldenPrep

// prepFor returns v's golden set-up, with the prune index when capture
// is set, computing each kind at most once per process.
func prepFor(v workload.Variant, prog *cpu.Program, capture bool) (*workload.Outcome, *prune.Index, error) {
	e, _ := preps.LoadOrStore(prepKey{v, capture}, new(goldenPrep))
	p := e.(*goldenPrep)
	p.once.Do(func() {
		p.golden, p.idx, p.err = runGolden(prog, workload.SpecFor(v), true, capture)
	})
	return p.golden, p.idx, p.err
}

// runGolden executes the reference run, recording state digests for the
// warm start when hashes is set and the pruner's event index when
// capture is set.
func runGolden(prog *cpu.Program, spec workload.RunSpec, hashes, capture bool) (*workload.Outcome, *prune.Index, error) {
	spec.RecordStateHashes = hashes
	var c *prune.Capture
	if capture {
		c = prune.NewCapture()
		spec.Observer = c.Observer()
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
