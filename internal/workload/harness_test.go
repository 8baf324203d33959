package workload

import (
	"math"
	"testing"
	"time"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/control"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/plant"
	"ctrlguard/internal/sim"
)

func TestAllVariantsAssemble(t *testing.T) {
	for _, v := range Variants() {
		t.Run(string(v), func(t *testing.T) {
			src, ok := Source(v)
			if !ok || src == "" {
				t.Fatal("missing source")
			}
			p := Program(v)
			if len(p.Code) == 0 || len(p.Data) == 0 {
				t.Error("empty program")
			}
		})
	}
}

func TestProgramUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Program(Variant("nope"))
}

func TestGoldenRunCompletes(t *testing.T) {
	out := Run(Program(AlgorithmI), PaperRunSpec())
	if out.Detected() {
		t.Fatalf("golden run trapped: %v", out.Trap)
	}
	if len(out.Outputs) != plant.DefaultIterations {
		t.Fatalf("outputs = %d, want %d", len(out.Outputs), plant.DefaultIterations)
	}
	if out.FinalState == nil {
		t.Error("missing final state")
	}
}

func TestGoldenRunsAllVariantsComplete(t *testing.T) {
	for _, v := range Variants() {
		t.Run(string(v), func(t *testing.T) {
			out := Run(Program(v), SpecFor(v))
			if out.Detected() {
				t.Fatalf("golden run trapped: %v at iteration %d", out.Trap, out.TrapIteration)
			}
		})
	}
}

func TestGoldenRunDeterministic(t *testing.T) {
	a := Run(Program(AlgorithmI), PaperRunSpec())
	b := Run(Program(AlgorithmI), PaperRunSpec())
	if a.Instructions != b.Instructions {
		t.Errorf("instruction counts differ: %d vs %d", a.Instructions, b.Instructions)
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			t.Fatalf("outputs differ at %d", i)
		}
	}
	if !cpu.StatesEqual(a.FinalState, b.FinalState) {
		t.Error("final states differ")
	}
}

func TestVMMatchesGoControllerClosedLoop(t *testing.T) {
	// The assembly Algorithm I must track the Go implementation of the
	// same controller within float32 rounding across the whole run.
	vmOut := Run(Program(AlgorithmI), PaperRunSpec())
	if vmOut.Detected() {
		t.Fatal(vmOut.Trap)
	}

	eng := plant.NewEngine(plant.DefaultEngineConfig())
	ctrl := control.NewPI(control.PaperPIConfig(plant.DefaultSampleInterval))
	goTrace := sim.Run(ctrl, eng, sim.PaperConfig())

	for k := range vmOut.Outputs {
		if d := math.Abs(vmOut.Outputs[k] - goTrace.U[k]); d > 0.05 {
			t.Fatalf("VM and Go controller diverged at k=%d: %v vs %v (d=%v)",
				k, vmOut.Outputs[k], goTrace.U[k], d)
		}
	}
}

func TestAlgorithmIIGoldenMatchesAlgorithmI(t *testing.T) {
	a := Run(Program(AlgorithmI), PaperRunSpec())
	b := Run(Program(AlgorithmII), PaperRunSpec())
	for k := range a.Outputs {
		if a.Outputs[k] != b.Outputs[k] {
			t.Fatalf("fault-free Algorithm II diverged at k=%d", k)
		}
	}
}

func TestFaultFreeOutputShape(t *testing.T) {
	out := Run(Program(AlgorithmI), PaperRunSpec())
	// Settled at 2000 rpm before the load bump.
	if math.Abs(out.Speeds[150]-2000) > 5 {
		t.Errorf("speed at k=150 = %v, want ≈ 2000", out.Speeds[150])
	}
	// Settled at 3000 rpm at the end.
	if math.Abs(out.Speeds[649]-3000) > 5 {
		t.Errorf("final speed = %v, want ≈ 3000", out.Speeds[649])
	}
	// Throttle saturates during the reference step (Figure 5).
	sat := false
	for k := 325; k < 360; k++ {
		if out.Outputs[k] >= 69.99 {
			sat = true
		}
	}
	if !sat {
		t.Error("throttle did not saturate during the step")
	}
}

func TestInjectedStateCorruptionSevereForAlg1(t *testing.T) {
	prog := Program(AlgorithmI)
	golden := Run(prog, PaperRunSpec())

	spec := PaperRunSpec()
	spec.Injection = &Injection{
		At:  golden.Instructions / 2,
		Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.data0", Bit: 27},
	}
	out := Run(prog, spec)
	if out.Detected() {
		t.Fatalf("unexpected detection: %v", out.Trap)
	}
	v := classify.Run(golden.Outputs, out.Outputs, true, classify.DefaultConfig())
	if !v.Outcome.IsSevere() {
		t.Errorf("outcome = %v, want severe (state exponent flip locks throttle)", v.Outcome)
	}
}

func TestInjectedStateCorruptionRecoveredByAlg2(t *testing.T) {
	prog := Program(AlgorithmII)
	golden := Run(prog, PaperRunSpec())

	spec := PaperRunSpec()
	spec.Injection = &Injection{
		At:  golden.Instructions / 2,
		Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.data0", Bit: 27},
	}
	out := Run(prog, spec)
	if out.Detected() {
		t.Fatalf("unexpected detection: %v", out.Trap)
	}
	v := classify.Run(golden.Outputs, out.Outputs, true, classify.DefaultConfig())
	if v.Outcome.IsSevere() {
		t.Errorf("outcome = %v, want minor (assertion recovers the state)", v.Outcome)
	}
}

func TestInjectionIntoDeadRegisterIsNonEffective(t *testing.T) {
	prog := Program(AlgorithmI)
	golden := Run(prog, PaperRunSpec())

	// r13 only ever holds the constant 1 written fresh before the
	// sync store; flipping it at the very start of an iteration is
	// overwritten before use.
	spec := PaperRunSpec()
	spec.Injection = &Injection{
		At:  golden.Instructions / 2,
		Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r13", Bit: 5},
	}
	out := Run(prog, spec)
	if out.Detected() {
		t.Fatalf("unexpected detection: %v", out.Trap)
	}
	v := classify.Run(golden.Outputs, out.Outputs,
		!cpu.StatesEqual(golden.FinalState, out.FinalState), classify.DefaultConfig())
	if v.Outcome.IsValueFailure() {
		t.Errorf("outcome = %v, want non-effective", v.Outcome)
	}
}

func TestInjectionPCCorruptionDetected(t *testing.T) {
	prog := Program(AlgorithmI)
	golden := Run(prog, PaperRunSpec())

	// Flipping a high PC bit sends the fetch far outside the code
	// segment: JUMP ERROR.
	spec := PaperRunSpec()
	spec.Injection = &Injection{
		At:  golden.Instructions / 2,
		Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "pc", Bit: 14},
	}
	out := Run(prog, spec)
	if !out.Detected() {
		t.Fatal("PC corruption not detected")
	}
	if out.Trap.Mech != cpu.MechJumpError {
		t.Errorf("mechanism = %v, want JUMP ERROR", out.Trap.Mech)
	}
}

func TestWatchdogTerminatesRunawayIteration(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := PaperRunSpec()
	spec.CycleBudget = 10 // far below one healthy iteration
	out := Run(prog, spec)
	if !out.Detected() || out.Trap.Mech != cpu.MechWatchdog {
		t.Fatalf("expected watchdog, got %v", out.Trap)
	}
}

func TestFailStopVariantTrapsOnCorruptState(t *testing.T) {
	prog := Program(AlgorithmIIFailStop)
	golden := Run(prog, PaperRunSpec())

	spec := PaperRunSpec()
	spec.Injection = &Injection{
		At:  golden.Instructions / 2,
		Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.data0", Bit: 27},
	}
	out := Run(prog, spec)
	if !out.Detected() || out.Trap.Mech != cpu.MechConstraint {
		t.Fatalf("expected CONSTRAINT ERROR, got %v", out.Trap)
	}
}

func TestRegStateVariantImmuneToCacheStateFlip(t *testing.T) {
	prog := Program(AlgorithmIRegState)
	golden := Run(prog, PaperRunSpec())

	// With the state in r6, the cached copy of x is read once at
	// start-up; flipping it mid-run cannot reach the controller.
	spec := PaperRunSpec()
	spec.Injection = &Injection{
		At:  golden.Instructions / 2,
		Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.data0", Bit: 27},
	}
	out := Run(prog, spec)
	if out.Detected() {
		t.Fatalf("unexpected detection: %v", out.Trap)
	}
	v := classify.Run(golden.Outputs, out.Outputs, true, classify.DefaultConfig())
	if v.Outcome.IsValueFailure() && v.Outcome != classify.Insignificant {
		t.Errorf("outcome = %v, want non-effective or insignificant", v.Outcome)
	}
}

func TestRegStateVariantVulnerableToRegisterFlip(t *testing.T) {
	prog := Program(AlgorithmIRegState)
	golden := Run(prog, PaperRunSpec())

	spec := PaperRunSpec()
	spec.Injection = &Injection{
		At:  golden.Instructions / 2,
		Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r6", Bit: 27},
	}
	out := Run(prog, spec)
	if out.Detected() {
		t.Skipf("register flip detected by %v; acceptable", out.Trap.Mech)
	}
	v := classify.Run(golden.Outputs, out.Outputs, true, classify.DefaultConfig())
	if !v.Outcome.IsSevere() {
		t.Errorf("outcome = %v, want severe (state lives in r6)", v.Outcome)
	}
}

func TestOutcomeDetectedAccessor(t *testing.T) {
	o := &Outcome{}
	if o.Detected() {
		t.Error("empty outcome should not be detected")
	}
	o.Trap = &cpu.TrapError{Mech: cpu.MechAddressError}
	if !o.Detected() {
		t.Error("outcome with trap should be detected")
	}
}

// TestDeadlineAbortsRun checks the per-run deadline used by the
// campaign engine's worker fault isolation, an Abort over a wall-clock
// deadline: an expired deadline stops the run at an iteration boundary
// with Aborted, while a generous one changes nothing.
func TestDeadlineAbortsRun(t *testing.T) {
	prog := Program(AlgorithmI)
	pastDeadline := func(deadline time.Time) func() bool {
		return func() bool { return time.Now().After(deadline) }
	}

	spec := PaperRunSpec()
	spec.Abort = pastDeadline(time.Now().Add(-time.Second))
	out := Run(prog, spec)
	if !out.Aborted {
		t.Fatalf("expired deadline: Aborted=%v, want true", out.Aborted)
	}
	if len(out.Outputs) != 0 {
		t.Errorf("expired deadline completed %d iterations, want 0", len(out.Outputs))
	}

	spec = PaperRunSpec()
	spec.Abort = pastDeadline(time.Now().Add(time.Hour))
	out = Run(prog, spec)
	if out.Aborted {
		t.Fatalf("generous deadline aborted the run: %+v", out)
	}
	if len(out.Outputs) != spec.Iterations {
		t.Errorf("completed %d iterations, want %d", len(out.Outputs), spec.Iterations)
	}
}
