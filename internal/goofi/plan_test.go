package goofi

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/workload"
)

// Reasons the planner reports, pinned verbatim.
const (
	whyAblated  = "ablated by Config.Ablate"
	whyObserver = "a detail-mode observer must see every instruction"
	whyDetPrune = "monitor peeks are not def-use events, see ROADMAP item 4 Phase B"
	whyDetLock  = "lockstep lanes do not fork monitor state"
	whyChaos    = "chaos hooks need solo-run fault isolation"
	whyTimeout  = "per-experiment deadlines need solo-run fault isolation"
)

func whyModel(m inject.FaultModel) string {
	return fmt.Sprintf("fault model %q is not a permanent single bit-flip", m)
}

// planModes are the campaign modes of the plan table: each sets the
// inputs of one decline rule (or none) on a zero-spec bit-flip campaign.
var planModes = []struct {
	name string
	set  func(*Config)
}{
	{"default", func(*Config) {}},
	{"observer", func(c *Config) { c.Spec.Observer = func(int, uint64, *cpu.CPU) {} }},
	{"chaos", func(c *Config) { c.Chaos = func(int, int) {} }},
	{"timeout", func(c *Config) { c.ExperimentTimeout = time.Second }},
	{"spec", func(c *Config) { c.Spec = workload.SpecFor(c.Variant) }},
	{"ablate-warm-start", func(c *Config) { c.Ablate = LayerWarmStart }},
	{"ablate-prune", func(c *Config) { c.Ablate = LayerPrune }},
	{"ablate-lockstep", func(c *Config) { c.Ablate = LayerLockstep }},
}

// wantPlan builds an expected ExecPlan from the declined layers'
// reasons.
func wantPlan(memo bool, declined map[Layer]string) ExecPlan {
	p := ExecPlan{memo: memo}
	p.WarmStart = declined[LayerWarmStart] == ""
	p.Prune = declined[LayerPrune] == ""
	p.Lockstep = declined[LayerLockstep] == ""
	for l, why := range declined {
		if p.Declined == nil {
			p.Declined = make(map[string]string)
		}
		p.Declined[l.String()] = why
	}
	return p
}

// expectedPlan is the plan table: for each mode, the expected plan of a
// bit-flip campaign, of a campaign under a non-default fault model m
// (which declines only the pruner, so it keeps the warm start and the
// golden memo), and of a detector campaign (any model), which keeps the
// warm start and the memo but declines pruning and lockstep with its
// own reasons, unless an observer declined every layer first.
func expectedPlan(mode string, m inject.FaultModel, armed bool) ExecPlan {
	W, P, L := LayerWarmStart, LayerPrune, LayerLockstep
	wm := whyModel(m)
	det := map[Layer]string{P: whyDetPrune, L: whyDetLock}
	table := map[string][3]ExecPlan{
		"default": {
			wantPlan(true, nil),
			wantPlan(true, map[Layer]string{P: wm}),
			wantPlan(true, det),
		},
		"observer": {
			wantPlan(false, map[Layer]string{W: whyObserver, P: whyObserver, L: whyObserver}),
			wantPlan(false, map[Layer]string{W: whyObserver, P: whyObserver, L: whyObserver}),
			wantPlan(false, map[Layer]string{W: whyObserver, P: whyObserver, L: whyObserver}),
		},
		"chaos": {
			wantPlan(true, map[Layer]string{L: whyChaos}),
			wantPlan(true, map[Layer]string{P: wm, L: whyChaos}),
			wantPlan(true, det),
		},
		"timeout": {
			wantPlan(true, map[Layer]string{L: whyTimeout}),
			wantPlan(true, map[Layer]string{P: wm, L: whyTimeout}),
			wantPlan(true, det),
		},
		"spec": {
			wantPlan(false, nil),
			wantPlan(false, map[Layer]string{P: wm}),
			wantPlan(false, det),
		},
		"ablate-warm-start": {
			wantPlan(true, map[Layer]string{W: whyAblated}),
			wantPlan(false, map[Layer]string{W: whyAblated, P: wm}),
			wantPlan(false, map[Layer]string{W: whyAblated, P: whyDetPrune, L: whyDetLock}),
		},
		"ablate-prune": {
			wantPlan(true, map[Layer]string{P: whyAblated}),
			wantPlan(true, map[Layer]string{P: whyAblated}),
			wantPlan(true, map[Layer]string{P: whyAblated, L: whyDetLock}),
		},
		"ablate-lockstep": {
			wantPlan(true, map[Layer]string{L: whyAblated}),
			wantPlan(true, map[Layer]string{P: wm, L: whyAblated}),
			wantPlan(true, map[Layer]string{P: whyDetPrune, L: whyAblated}),
		},
	}
	switch {
	case armed:
		return table[mode][2]
	case m != workload.ModelBitFlip:
		return table[mode][1]
	}
	return table[mode][0]
}

// TestExecPlan is the planner's decision table: fault model × detector
// × mode, each with its expected layers, decline reasons and memo bit.
func TestExecPlan(t *testing.T) {
	models := []inject.FaultModel{workload.ModelBitFlip, workload.ModelPC, workload.ModelTransient, workload.ModelBurst}
	detectors := []detect.Spec{{}, {CFE: true}, {Automaton: true}, {CFE: true, Automaton: true}}
	for _, m := range models {
		for _, d := range detectors {
			for _, mode := range planModes {
				name := fmt.Sprintf("%s/%s/%s", m, d, mode.name)
				cfg := Config{Variant: workload.AlgorithmI, Experiments: 10, Model: m, Detect: d}
				mode.set(&cfg)
				got := planFor(cfg)
				if want := expectedPlan(mode.name, m, d.Enabled()); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: planFor = %+v (memo %v), want %+v (memo %v)", name, got, got.memo, want, want.memo)
				}
			}
		}
	}
}

// TestExecPlanLayerNames pins the Declined keys.
func TestExecPlanLayerNames(t *testing.T) {
	for l, want := range map[Layer]string{LayerWarmStart: "warm-start", LayerPrune: "prune", LayerLockstep: "lockstep"} {
		if got := l.String(); got != want {
			t.Errorf("Layer(%d).String() = %q, want %q", l, got, want)
		}
	}
}

// TestPlanStatsNilExactlyWhenDeclined runs real campaigns and checks
// the executed plan against the layer stats: each stats pointer is nil
// exactly when Result.Plan declined its layer, and Result.Plan is the
// planner's decision.
func TestPlanStatsNilExactlyWhenDeclined(t *testing.T) {
	cases := map[string]Config{
		"default":   {},
		"transient": {Model: workload.ModelTransient},
		"chaos":     {Chaos: func(int, int) {}},
		"detector":  {Detect: detect.Spec{CFE: true}},
		"observer+detector": {Detect: detect.Spec{CFE: true, Automaton: true},
			Spec: withObserver(workload.SpecFor(workload.AlgorithmI))},
		"ablated": {Ablate: LayerWarmStart | LayerLockstep},
	}
	for name, cfg := range cases {
		cfg.Variant, cfg.Experiments, cfg.Seed, cfg.Workers = workload.AlgorithmI, 20, 3, 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := planFor(cfg); !reflect.DeepEqual(res.Plan, want) {
			t.Errorf("%s: Result.Plan = %+v, want %+v", name, res.Plan, want)
		}
		if (res.WarmStart != nil) != res.Plan.WarmStart {
			t.Errorf("%s: plan warm start %v, stats %+v", name, res.Plan.WarmStart, res.WarmStart)
		}
		if (res.Prune != nil) != res.Plan.Prune {
			t.Errorf("%s: plan prune %v, stats %+v", name, res.Plan.Prune, res.Prune)
		}
		if (res.Lockstep != nil) != res.Plan.Lockstep {
			t.Errorf("%s: plan lockstep %v, stats %+v", name, res.Plan.Lockstep, res.Lockstep)
		}
	}
}

func withObserver(spec workload.RunSpec) workload.RunSpec {
	spec.Observer = func(int, uint64, *cpu.CPU) {}
	return spec
}
