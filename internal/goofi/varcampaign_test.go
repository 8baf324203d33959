package goofi

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"ctrlguard/internal/control"
	"ctrlguard/internal/core"
	"ctrlguard/internal/plant"
)

func piFactory() func() control.Stateful {
	return func() control.Stateful {
		return control.NewPI(control.PaperPIConfig(plant.DefaultSampleInterval))
	}
}

func protectedFactory() func() control.Stateful {
	return func() control.Stateful {
		return control.NewProtectedPI(control.PaperPIConfig(plant.DefaultSampleInterval))
	}
}

// guardedFactory builds guarded PI controllers. extra, if non-nil,
// builds an additional assertion per controller: stateful assertions
// must not be shared across the campaign's concurrent runs.
func guardedFactory(extra func() core.Assertion) func() control.Stateful {
	return func() control.Stateful {
		cfg := control.PaperPIConfig(plant.DefaultSampleInterval)
		assert := core.Assertion(core.RangeAssertion{Min: cfg.OutMin, Max: cfg.OutMax})
		if extra != nil {
			assert = core.All(assert, extra())
		}
		g := core.NewGuard(control.NewPI(cfg), assert)
		return core.NewGuardedController(g)
	}
}

func TestRunVariableValidation(t *testing.T) {
	if _, err := RunVariable(VarConfig{Experiments: 10}); err == nil {
		t.Error("expected error without a factory")
	}
	if _, err := RunVariable(VarConfig{New: piFactory()}); err == nil {
		t.Error("expected error without experiments")
	}
}

func TestRunVariableRecordSchema(t *testing.T) {
	res, err := RunVariable(VarConfig{
		Name: "pi", New: piFactory(), Experiments: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 100 {
		t.Fatalf("records = %d", len(res.Records))
	}
	for _, r := range res.Records {
		if r.Region != "variable" || r.Variant != "pi" {
			t.Fatalf("bad record %+v", r)
		}
		if r.Mechanism != "" {
			t.Fatalf("variable-level faults cannot be detected: %+v", r)
		}
	}
}

func TestRunVariableDeterministic(t *testing.T) {
	run := func() []Record {
		res, err := RunVariable(VarConfig{
			Name: "pi", New: piFactory(), Experiments: 50, Seed: 7, Workers: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Records
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records diverge at %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestVariableCampaignProtectionComparison is the library-level analogue
// of the paper's Table 4: Algorithm II and the Guard must both slash the
// severe share relative to the bare PI, because every injected fault
// lands directly in the state variable (the paper's severe channel).
func TestVariableCampaignProtectionComparison(t *testing.T) {
	const n = 600
	severeShare := func(name string, factory func() control.Stateful) float64 {
		res, err := RunVariable(VarConfig{Name: name, New: factory, Experiments: n, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		vf, sev := VarSummary(res.Records)
		if vf.Count == 0 {
			return 0
		}
		return float64(sev.Count) / float64(vf.Count)
	}

	bare := severeShare("pi", piFactory())
	protected := severeShare("protected-pi", protectedFactory())
	guarded := severeShare("guarded-pi", guardedFactory(nil))

	if bare < 0.10 {
		t.Fatalf("bare severe share = %v; direct state faults should often be severe", bare)
	}
	if protected >= bare/2 {
		t.Errorf("Algorithm II share %v not clearly below bare %v", protected, bare)
	}
	if guarded >= bare/2 {
		t.Errorf("Guard share %v not clearly below bare %v", guarded, bare)
	}
}

// TestRunVariableBatchMatchesSolo checks the batched API's contract:
// interleaving campaigns over one shared pool must not change any
// campaign's records relative to running it alone.
func TestRunVariableBatchMatchesSolo(t *testing.T) {
	cfgs := []VarConfig{
		{Name: "pi", New: piFactory(), Experiments: 120, Seed: 5},
		{Name: "guarded", New: guardedFactory(nil), Experiments: 80, Seed: 9},
		{Name: "protected", New: protectedFactory(), Experiments: 60, Seed: 5},
	}
	batch, err := RunVariableBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("batch results = %d, want %d", len(batch), len(cfgs))
	}
	for i, cfg := range cfgs {
		solo, err := RunVariable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i].Records) != len(solo.Records) {
			t.Fatalf("%s: batch records = %d, solo = %d", cfg.Name, len(batch[i].Records), len(solo.Records))
		}
		for j := range solo.Records {
			if batch[i].Records[j] != solo.Records[j] {
				t.Fatalf("%s record %d differs:\nbatch %+v\nsolo  %+v", cfg.Name, j, batch[i].Records[j], solo.Records[j])
			}
		}
	}
}

func TestRunVariableBatchEmpty(t *testing.T) {
	res, err := RunVariableBatch(context.Background(), nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", res, err)
	}
}

func TestRunVariableBatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunVariableBatch(ctx, []VarConfig{
		{Name: "pi", New: piFactory(), Experiments: 500, Seed: 1},
	})
	if err == nil {
		t.Fatal("want context error from a cancelled batch")
	}
	if len(res) != 1 {
		t.Fatalf("cancelled batch still returns per-campaign results, got %d", len(res))
	}
	if n := len(res[0].Records); n >= 500 {
		t.Fatalf("cancelled campaign completed all %d experiments", n)
	}
}

// TestVariableCampaignRateAssertion checks the paper's future-work
// direction: adding a rate-of-change assertion catches in-range state
// jumps (the Figure 10 escape) and reduces the residual severe share
// further than the range assertion alone.
func TestVariableCampaignRateAssertion(t *testing.T) {
	const n = 1500
	severe := func(factory func() control.Stateful) int {
		res, err := RunVariable(VarConfig{Name: "g", New: factory, Experiments: n, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		_, sev := VarSummary(res.Records)
		return sev.Count
	}

	rangeOnly := severe(guardedFactory(nil))
	// Legitimate per-iteration state change is bounded by
	// T·Ki·e ≈ 3.9 degrees; 8 leaves safety margin.
	withRate := severe(guardedFactory(func() core.Assertion { return core.NewRateAssertion(8) }))

	if withRate > rangeOnly {
		t.Errorf("rate assertion increased severe count: %d -> %d", rangeOnly, withRate)
	}
	if rangeOnly > 0 && withRate == rangeOnly {
		t.Logf("note: rate assertion did not reduce severe count (%d); acceptable but unexpected", rangeOnly)
	}
}

// crashingPI is a PI controller that crashes on some faults: a state
// write that flips bit 60 or above of its integrator makes the Update
// of the iteration after the injection panic.
type crashingPI struct {
	*control.PI
	countdown int // Updates left before the panic; 0 = disarmed
}

func (c *crashingPI) SetState(x []float64) {
	if math.Float64bits(x[0])^math.Float64bits(c.X) >= 1<<60 {
		c.countdown = 2
	}
	c.PI.SetState(x)
}

func (c *crashingPI) Update(in []float64) []float64 {
	if c.countdown > 0 {
		if c.countdown--; c.countdown == 0 {
			panic("crashingPI: high-bit fault")
		}
	}
	return c.PI.Update(in)
}

func (c *crashingPI) CloneStateful() any {
	return &crashingPI{PI: c.PI.CloneStateful().(*control.PI), countdown: c.countdown}
}

// TestVarChaosPanickingController: a variable-level campaign whose
// controller panics on some faults returns, records exactly those
// experiments as abandoned after the default retry budget, and leaves
// every other record byte-identical to the same campaign run on a
// controller that never panics.
func TestVarChaosPanickingController(t *testing.T) {
	cfg := VarConfig{Name: "pi", Experiments: 200, Seed: 2001, Workers: 2}
	cfg.New = func() control.Stateful {
		return &crashingPI{PI: control.NewPI(control.PaperPIConfig(plant.DefaultSampleInterval))}
	}
	crash, err := RunVariable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.New = piFactory()
	clean, err := RunVariable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(crash.Records) != len(clean.Records) {
		t.Fatalf("crashing campaign kept %d records, want %d", len(crash.Records), len(clean.Records))
	}
	abandoned := 0
	for i, rec := range crash.Records {
		want := clean.Records[i]
		if rec.Bit >= 60 && rec.At+1 < plant.DefaultIterations { // a last-iteration fault never reaches the panic
			abandoned++
			if rec.Outcome != OutcomeAbandoned || !strings.Contains(rec.Mechanism, "panicked") {
				t.Errorf("record %d (bit %d): outcome %q mechanism %q, want abandoned after a panic", i, rec.Bit, rec.Outcome, rec.Mechanism)
			}
			continue
		}
		var a, b bytes.Buffer
		if err := WriteRecords(&a, []Record{rec}); err != nil {
			t.Fatal(err)
		}
		if err := WriteRecords(&b, []Record{want}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("record %d differs:\ncrashing %s\nclean    %s", i, a.Bytes(), b.Bytes())
		}
	}
	if abandoned == 0 {
		t.Fatal("no fault hit a high bit; the campaign never panicked")
	}
	want := FaultStats{
		Abandoned: abandoned,
		Panicked:  abandoned * (DefaultExperimentRetries + 1),
		Retried:   abandoned * DefaultExperimentRetries,
	}
	if crash.Faults != want {
		t.Errorf("Faults = %+v, want %+v", crash.Faults, want)
	}
	if !clean.Faults.Zero() {
		t.Errorf("clean campaign Faults = %+v, want zero", clean.Faults)
	}
}
