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
	// LayerWarmStart is the prefix engine: each worker forks its
	// experiments off its own golden cursor at the injection
	// instruction, and a run that re-converges splices the golden
	// remainder.
	LayerWarmStart Layer = 1 << iota
	// LayerPrune synthesizes records for provably dead faults and
	// collapses first-use equivalence classes onto one representative.
	LayerPrune

	allLayers = LayerWarmStart | LayerPrune
)

var layerNames = [...]string{"warm-start", "prune"}

// String names a single layer ("warm-start", "prune"), the keys of
// ExecPlan.Declined.
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
	WarmStart, Prune bool

	// Declined maps each declined layer's name (Layer.String) to the
	// reason; nil when every layer runs.
	Declined map[string]string

	// memo is set when the golden set-up comes from the process-wide
	// per-variant memo (setupFor) instead of a campaign-local golden run.
	memo bool
}

// decline turns off every layer in ls that is still on, recording why.
// The first reason found for a layer is the one reported.
func (p *ExecPlan) decline(ls Layer, why string) {
	for i, on := range [...]*bool{&p.WarmStart, &p.Prune} {
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
//   - SWIFI image faults decline every layer: they precede instruction
//     0, so no fault-free prefix comes before them, and a code flip
//     sits outside the state digest and the def-use index.
//   - Armed detectors keep the warm start. Their monitors are
//     workload.StatefulMonitors: a lane forked off a cursor inherits
//     the cursor's monitor state, and the golden splice also requires
//     equal monitor state. Equal machine, output history and monitor
//     state imply the golden remainder, which trapped nothing.
//     Detectors decline pruning, because the automaton's state peeks
//     are not def-use events.
//   - The pruner's def-use reasoning is proven only for permanent
//     single bit-flips (prune.SupportsModel); other models simulate every
//     experiment rather than risk silent misclassification. The warm
//     start is valid for every model: a lane forks before the injection,
//     each model finishes changing machine state within the injected
//     instruction's Step (the transient's restore included), and
//     re-convergence is tested only at later iteration boundaries, so an
//     equal state digest and output history imply an equal remainder
//     whatever the model.
//
// Chaos hooks and per-experiment deadlines change no layer: each lane
// runs under the same isolation as a run from instruction 0. RunContext
// declines a layer on two facts only the set-up reveals: the warm start
// when the environment cannot be cloned, pruning when the golden-run
// capture built no def-use index.
//
// cfg is the caller's Config, before RunContext fills in defaults: a
// zero Spec is what lets the golden set-up come from the memo.
func planFor(cfg Config) ExecPlan {
	p := ExecPlan{WarmStart: true, Prune: true}
	if cfg.image {
		p.decline(allLayers, "image faults precede instruction 0, and a code flip sits outside the state digest and the def-use index")
	}
	p.decline(cfg.Ablate, "ablated by Config.Ablate")
	if cfg.Detect.Enabled() {
		p.decline(LayerPrune, "monitor peeks are not def-use events, see ROADMAP item 4 Phase B")
	}
	if !prune.SupportsModel(string(cfg.Model)) {
		p.decline(LayerPrune,
			fmt.Sprintf("fault model %q is not a permanent single bit-flip", cfg.Model))
	}
	p.memo = cfg.Spec.Iterations == 0 && (p.WarmStart || p.Prune)
	return p
}
