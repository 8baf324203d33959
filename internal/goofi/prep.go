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
// and the pruner's def-use index over it (nil when the capture declined
// the run). Both are read-only once built, so concurrent campaigns
// share them.
type goldenPrep struct {
	once   sync.Once
	golden *workload.Outcome
	idx    *prune.Index
	err    error
}

// preps memoises goldenPrep per variant for campaigns that run the
// variant's default spec. Like workload.Program it needs no eviction:
// it holds at most one entry per compiled-in variant.
var preps sync.Map // workload.Variant -> *goldenPrep

// prepFor returns v's golden set-up, computing it at most once per
// process.
func prepFor(v workload.Variant, prog *cpu.Program) (*workload.Outcome, *prune.Index, error) {
	e, _ := preps.LoadOrStore(v, new(goldenPrep))
	p := e.(*goldenPrep)
	p.once.Do(func() {
		p.golden, p.idx, p.err = runGolden(prog, workload.SpecFor(v), true, true)
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
