package goofi

import (
	"reflect"
	"testing"

	"ctrlguard/internal/control"
	"ctrlguard/internal/core"
	"ctrlguard/internal/plant"
)

// varWarmConfig builds a variable-level campaign whose controllers
// exercise the cloning paths: a bare PI, a guard with a stateful rate
// assertion (history must survive the clone), and a guard with a
// combined assertion (aliasing of state/output assertions must survive).
func varWarmFactories() map[string]func() control.Stateful {
	return map[string]func() control.Stateful{
		"pi":        piFactory(),
		"protected": protectedFactory(),
		"guarded":   guardedFactory(nil),
		"guarded-rate": guardedFactory(func() core.Assertion {
			return core.NewRateAssertion(5.0)
		}),
	}
}

// TestVarWarmStartRecordsByteIdentical pins the fast-path contract for
// variable-level campaigns: resumed experiments classify identically
// to full replays for every controller shape, including guards whose
// assertion history is part of the resumed state.
func TestVarWarmStartRecordsByteIdentical(t *testing.T) {
	for name, factory := range varWarmFactories() {
		t.Run(name, func(t *testing.T) {
			warm := VarConfig{Name: name, New: factory, Experiments: 120, Seed: 7, Iterations: 200}
			cold := warm
			cold.DisableWarmStart = true

			a, err := RunVariable(warm)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunVariable(cold)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Records, b.Records) {
				for i := range b.Records {
					if !reflect.DeepEqual(a.Records[i], b.Records[i]) {
						t.Fatalf("record %d differs:\nwarm: %+v\nfull: %+v",
							i, a.Records[i], b.Records[i])
					}
				}
				t.Fatal("records differ")
			}
			if a.WarmStart == nil {
				t.Fatal("warm campaign reported no stats")
			}
			if a.WarmStart.Resumed == 0 {
				t.Error("no experiment resumed from a clone; the fast path is dead code")
			}
			if b.WarmStart != nil {
				t.Error("disabled campaign reported warm-start stats")
			}
		})
	}
}

// TestVarWarmStartDeclinesUncloneable: a guard built on a FuncAssertion
// cannot promise a faithful clone (the closure may capture state), so
// the campaign must fall back to full replay — and still be correct.
func TestVarWarmStartDeclinesUncloneable(t *testing.T) {
	factory := guardedFactory(func() core.Assertion {
		return core.FuncAssertion{
			CheckFunc: func(_ int, v float64) bool { return v > -1e9 },
			Label:     "opaque",
		}
	})
	warm := VarConfig{Name: "opaque", New: factory, Experiments: 40, Seed: 3, Iterations: 120}
	cold := warm
	cold.DisableWarmStart = true

	a, err := RunVariable(warm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunVariable(cold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("records differ for an uncloneable controller")
	}
	if a.WarmStart != nil {
		t.Errorf("uncloneable controller still produced warm-start stats: %+v", a.WarmStart)
	}
}

func TestGuardCloneIndependence(t *testing.T) {
	cfg := control.PaperPIConfig(plant.DefaultSampleInterval)
	rate := core.NewRateAssertion(4.0)
	assert := core.All(core.RangeAssertion{Min: cfg.OutMin, Max: cfg.OutMax}, rate)
	g := core.NewGuard(control.NewPI(cfg), assert)

	// Build up history before cloning.
	for i := 0; i < 25; i++ {
		if _, err := g.Step([]float64{2500, 2000 + 10*float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	clone, ok := g.Clone()
	if !ok {
		t.Fatal("guard with rate assertion should be cloneable")
	}

	// Driven identically, original and clone must stay identical.
	for i := 0; i < 25; i++ {
		in := []float64{2500, 2100 + 7*float64(i)}
		ua, err := g.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		ub, err := clone.Step(append([]float64(nil), in...))
		if err != nil {
			t.Fatal(err)
		}
		if !float64SlicesEqual(ua, ub) {
			t.Fatalf("step %d: clone output %v, original %v", i, ub, ua)
		}
	}
	if !float64SlicesEqual(g.Controller().State(), clone.Controller().State()) {
		t.Fatal("clone state diverged from original under identical inputs")
	}

	// Mutating the clone must not reach the original.
	clone.Controller().SetState([]float64{1e6})
	if g.Controller().State()[0] == 1e6 {
		t.Fatal("clone shares state with the original")
	}
	if g.Stats() != clone.Stats() {
		// Stats were equal at clone time and both saw the same
		// violation-free steps since; only the SetState above may not
		// have leaked. Equal stats are expected here.
		t.Fatalf("stats diverged: original %+v, clone %+v", g.Stats(), clone.Stats())
	}
}
