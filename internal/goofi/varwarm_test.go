package goofi

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
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
			cold.noWarmStart = true

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

// opaqueFactory builds guards over a FuncAssertion, which cannot be
// cloned.
func opaqueFactory() func() control.Stateful {
	return guardedFactory(func() core.Assertion {
		return core.FuncAssertion{
			CheckFunc: func(_ int, v float64) bool { return v > -1e9 },
			Label:     "opaque",
		}
	})
}

// TestVarWarmStartDeclinesUncloneable: a guard built on a FuncAssertion
// cannot promise a faithful clone (the closure may capture state), so
// the campaign must fall back to full replay — and still be correct.
func TestVarWarmStartDeclinesUncloneable(t *testing.T) {
	factory := opaqueFactory()
	warm := VarConfig{Name: "opaque", New: factory, Experiments: 40, Seed: 3, Iterations: 120}
	cold := warm
	cold.noWarmStart = true

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

// varRecordDigest is the SHA-256 of the record file SaveRecords writes
// for res.
func varRecordDigest(t *testing.T, res *Result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records.jsonl")
	if err := SaveRecords(path, res.Records); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// TestVarRecordDigests pins variable-level record files byte for byte
// for every controller shape of varWarmFactories, 200 experiments each.
// The digests were recorded when these campaigns still ran on their own
// worker pool, resuming from per-iteration golden checkpoints, so they
// prove the shared campaign loop and its golden cursors reproduce it.
func TestVarRecordDigests(t *testing.T) {
	want := map[string]string{
		"pi":           "e1164301e2de3f5aef93fd537e79ca0ed56feb705988c1b5d4db4854ce5e025c",
		"protected":    "c3d2cbdcc88176ca4b26adb0694595e38310c1059de08b63860e024da05a9795",
		"guarded":      "0fc4d47a42079b54a22af7b295cd2f8c72832226b08a1da545729d50d3e52e9c",
		"guarded-rate": "2b3187f3e27f46779cd4e6fca545a7887a4561f29f5a909439b2aa371e275cfe",
		"opaque":       "a6d82f9cdac0f200d29a9163590719b3dfa11d1478d0afc188e9afcbe07f5439",
	}
	factories := varWarmFactories()
	factories["opaque"] = opaqueFactory() // uncloneable: every run in full
	for name, factory := range factories {
		res, err := RunVariable(VarConfig{Name: name, New: factory, Experiments: 200, Seed: 2001, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := varRecordDigest(t, res); got != want[name] {
			t.Errorf("%s: record file SHA-256 %s, want %s", name, got, want[name])
		}
	}
}
