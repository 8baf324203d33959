package goofi

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/plant"
	"ctrlguard/internal/workload"
)

// Reasons the planner reports, pinned verbatim.
const (
	whyAblated  = "ablated by Config.Ablate"
	whyDetPrune = "monitor peeks are not def-use events, see ROADMAP item 4 Phase B"
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
	{"chaos", func(c *Config) { c.Chaos = func(int, int) {} }},
	{"timeout", func(c *Config) { c.ExperimentTimeout = time.Second }},
	{"spec", func(c *Config) { c.Spec = workload.SpecFor(c.Variant) }},
	{"ablate-warm-start", func(c *Config) { c.Ablate = LayerWarmStart }},
	{"ablate-prune", func(c *Config) { c.Ablate = LayerPrune }},
}

// wantPlan builds an expected ExecPlan from the declined layers'
// reasons.
func wantPlan(memo bool, declined map[Layer]string) ExecPlan {
	p := ExecPlan{memo: memo}
	p.WarmStart = declined[LayerWarmStart] == ""
	p.Prune = declined[LayerPrune] == ""
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
// warm start and the memo but declines pruning with its own reason.
// Chaos hooks and per-experiment deadlines decline nothing.
func expectedPlan(mode string, m inject.FaultModel, armed bool) ExecPlan {
	W, P := LayerWarmStart, LayerPrune
	wm := whyModel(m)
	det := map[Layer]string{P: whyDetPrune}
	table := map[string][3]ExecPlan{
		"default": {
			wantPlan(true, nil),
			wantPlan(true, map[Layer]string{P: wm}),
			wantPlan(true, det),
		},
		"chaos": {
			wantPlan(true, nil),
			wantPlan(true, map[Layer]string{P: wm}),
			wantPlan(true, det),
		},
		"timeout": {
			wantPlan(true, nil),
			wantPlan(true, map[Layer]string{P: wm}),
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
			wantPlan(false, map[Layer]string{W: whyAblated, P: whyDetPrune}),
		},
		"ablate-prune": {
			wantPlan(true, map[Layer]string{P: whyAblated}),
			wantPlan(true, map[Layer]string{P: whyAblated}),
			wantPlan(true, map[Layer]string{P: whyAblated}),
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
	for l, want := range map[Layer]string{LayerWarmStart: "warm-start", LayerPrune: "prune"} {
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
		"timeout":   {ExperimentTimeout: time.Minute},
		"detector":  {Detect: detect.Spec{CFE: true}},
		"ablated":   {Ablate: LayerWarmStart},
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
		if res.Lockstep != nil {
			t.Errorf("%s: Result.Lockstep = %+v, want nil", name, res.Lockstep)
		}
	}
}

// TestWarmStartDeclinesUncloneableEnv: a custom environment that cannot
// be cloned gets no golden cursor. The campaign records the decline in
// Result.Plan, reports no warm-start counters, and runs every
// experiment from instruction 0 to the records of the cloneable
// environment it wraps.
func TestWarmStartDeclinesUncloneableEnv(t *testing.T) {
	spec := workload.SpecFor(workload.AlgorithmI)
	cfg := Config{Variant: workload.AlgorithmI, Experiments: 40, Seed: 12, Workers: 2, Spec: spec}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spec.NewEnv = func(s workload.RunSpec) workload.Environment {
		eng := plant.NewEngine(s.EngineCfg)
		return &engineOnly{eng: eng, ref: s.Reference, t: s.EngineCfg.T, y: eng.Speed()}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if why := res.Plan.Declined[LayerWarmStart.String()]; res.Plan.WarmStart || why == "" {
		t.Errorf("plan %+v: the warm start was not declined", res.Plan)
	}
	if res.WarmStart != nil {
		t.Errorf("declined warm start reported %+v", res.WarmStart)
	}
	if !reflect.DeepEqual(res.Records, want.Records) {
		t.Error("records differ from the cloneable environment's")
	}
}

// engineOnly is the paper's engine environment without CloneEnv.
type engineOnly struct {
	eng  *plant.Engine
	ref  plant.ReferenceProfile
	t, y float64
}

func (e *engineOnly) Inputs(k int, in []float64) { in[0], in[1] = e.ref(float64(k)*e.t), e.y }
func (e *engineOnly) Deliver(_ int, u []float64) { e.y = e.eng.Step(u[0]) }

// TestSpecHookRefused: a Config.Spec that carries its own
// per-instruction hook, a Monitor or an Observer, is refused by
// campaigns and traces alike. Every worker would run the one hook
// concurrently; detectors are armed through Config.Detect.
func TestSpecHookRefused(t *testing.T) {
	observed, monitored := workload.SpecFor(workload.AlgorithmI), workload.RunSpec{}
	observed.Observer = func(int, uint64, *cpu.CPU) {}
	monitored.Monitor = detect.Stack{} // on the zero spec, refused before the default fills it in
	for name, spec := range map[string]workload.RunSpec{"observer": observed, "monitor": monitored} {
		cfg := Config{Variant: workload.AlgorithmI, Experiments: 4, Seed: 1, Spec: spec}
		if _, err := Run(cfg); !errors.Is(err, errSpecHook) {
			t.Errorf("%s: Run returned %v, want the spec-hook refusal", name, err)
		}
		if _, err := TraceExperiment(nil, cfg, 0); !errors.Is(err, errSpecHook) {
			t.Errorf("%s: TraceExperiment returned %v, want the spec-hook refusal", name, err)
		}
	}
}
