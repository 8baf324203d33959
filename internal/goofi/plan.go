package goofi

import (
	"fmt"

	"ctrlguard/internal/prune"
)

// Layer is a bitset of the campaign engine's fast paths. Each one keeps
// records byte-identical to a plain simulation of every experiment; it
// only decides how much of that simulation is actually executed.
type Layer uint8

const (
	// LayerWarmStart resumes experiments from golden-prefix checkpoints
	// and splices the golden remainder once a run re-converges.
	LayerWarmStart Layer = 1 << iota
	// LayerPrune synthesizes records for provably dead faults and
	// collapses first-use equivalence classes onto one representative.
	LayerPrune
	// LayerLockstep batches experiments over one shared golden-prefix
	// replay.
	LayerLockstep

	allLayers = LayerWarmStart | LayerPrune | LayerLockstep
)

var layerNames = [...]string{"warm-start", "prune", "lockstep"}

// String names a single layer ("warm-start", "prune", "lockstep"), the
// keys of ExecPlan.Declined.
func (l Layer) String() string {
	for i, name := range layerNames {
		if l == 1<<i {
			return name
		}
	}
	return fmt.Sprintf("Layer(%#x)", uint8(l))
}

// ExecPlan is a campaign's fast-path decision: which layers run, and
// for each layer that does not, why.
type ExecPlan struct {
	WarmStart, Prune, Lockstep bool

	// Declined maps each declined layer's name (Layer.String) to the
	// reason; nil when every layer runs.
	Declined map[string]string

	// memo is set when the golden set-up comes from the process-wide
	// per-variant memo (prepFor) instead of a campaign-local golden run.
	memo bool
}

// decline turns off every layer in ls that is still on, recording why.
// The first reason found for a layer is the one reported.
func (p *ExecPlan) decline(ls Layer, why string) {
	for i, on := range [...]*bool{&p.WarmStart, &p.Prune, &p.Lockstep} {
		l := Layer(1 << i)
		if ls&l == 0 || !*on {
			continue
		}
		*on = false
		if p.Declined == nil {
			p.Declined = make(map[string]string)
		}
		p.Declined[l.String()] = why
	}
}

// planFor decides which fast paths a campaign runs. It is pure, and it
// is the only code that reads the campaign's fast-path inputs:
//
//   - Detail-mode observers and armed detectors must see every
//     instruction of every run, which checkpoints, golden splices, dead
//     faults and shared lockstep prefixes all skip.
//   - The pruner's def-use reasoning is proven only for permanent
//     single bit-flips (prune.SupportsModel); other models simulate every
//     experiment rather than risk silent misclassification. The warm
//     start and lockstep are valid for every model: each model finishes
//     changing machine state within the injected instruction's Step (the
//     transient's restore included), while checkpoints precede the
//     injection and re-convergence is tested only at later iteration
//     boundaries, so an equal state digest and output history imply an
//     equal remainder whatever the model.
//   - Trace mode simulates every selected experiment in detail, so it
//     declines pruning and batching.
//   - Chaos hooks and per-experiment deadlines build their fault
//     isolation around solo runs, so they decline batching.
//
// cfg is the caller's Config, before RunContext fills in defaults: a
// zero Spec is what lets the golden set-up come from the memo.
func planFor(cfg Config) ExecPlan {
	p := ExecPlan{WarmStart: true, Prune: true, Lockstep: true}
	p.decline(cfg.Ablate, "ablated by Config.Ablate")
	if cfg.Spec.Observer != nil {
		p.decline(allLayers, "a detail-mode observer must see every instruction")
	}
	if cfg.Detect.Enabled() {
		p.decline(allLayers, "armed detectors must see every instruction")
	}
	if !prune.SupportsModel(string(cfg.Model)) {
		p.decline(LayerPrune,
			fmt.Sprintf("fault model %q is not a permanent single bit-flip", cfg.Model))
	}
	if cfg.Trace != nil {
		p.decline(LayerPrune|LayerLockstep, "trace mode simulates every selected experiment")
	}
	if cfg.Chaos != nil {
		p.decline(LayerLockstep, "chaos hooks need solo-run fault isolation")
	}
	if cfg.ExperimentTimeout != 0 {
		p.decline(LayerLockstep, "per-experiment deadlines need solo-run fault isolation")
	}
	p.memo = cfg.Spec.Iterations == 0 && (p.WarmStart || p.Prune)
	return p
}
