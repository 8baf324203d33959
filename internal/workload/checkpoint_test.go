package workload

import (
	"math"
	"testing"

	"ctrlguard/internal/cpu"
)

// shortSpec trims the paper's 650 iterations so the many full-replay
// reference runs in these tests stay fast.
func shortSpec() RunSpec {
	spec := PaperRunSpec()
	spec.Iterations = 120
	return spec
}

// outcomesIdentical compares every observable field bit-for-bit —
// float comparisons use the raw bits so NaNs and signed zeros count.
func outcomesIdentical(t *testing.T, label string, got, want *Outcome) {
	t.Helper()
	floatsEq := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if len(got.MultiOutputs) != len(want.MultiOutputs) {
		t.Fatalf("%s: %d output ports, want %d", label, len(got.MultiOutputs), len(want.MultiOutputs))
	}
	for j := range want.MultiOutputs {
		if !floatsEq(got.MultiOutputs[j], want.MultiOutputs[j]) {
			t.Errorf("%s: output port %d trace differs", label, j)
		}
	}
	if !floatsEq(got.Outputs, want.Outputs) {
		t.Errorf("%s: Outputs differ", label)
	}
	if !floatsEq(got.Speeds, want.Speeds) {
		t.Errorf("%s: Speeds differ", label)
	}
	if (got.Trap == nil) != (want.Trap == nil) {
		t.Fatalf("%s: trap %v, want %v", label, got.Trap, want.Trap)
	}
	if got.Trap != nil {
		if got.Trap.Mech != want.Trap.Mech || got.TrapIteration != want.TrapIteration {
			t.Errorf("%s: trap %v at %d, want %v at %d",
				label, got.Trap.Mech, got.TrapIteration, want.Trap.Mech, want.TrapIteration)
		}
	}
	if !cpu.StatesEqual(got.FinalState, want.FinalState) {
		t.Errorf("%s: FinalState differs", label)
	}
	if got.Instructions != want.Instructions {
		t.Errorf("%s: %d instructions, want %d", label, got.Instructions, want.Instructions)
	}
	if len(got.IterationStarts) != len(want.IterationStarts) {
		t.Fatalf("%s: %d iteration starts, want %d",
			label, len(got.IterationStarts), len(want.IterationStarts))
	}
	for i := range want.IterationStarts {
		if got.IterationStarts[i] != want.IterationStarts[i] {
			t.Errorf("%s: IterationStarts[%d] = %d, want %d",
				label, i, got.IterationStarts[i], want.IterationStarts[i])
			break
		}
	}
	if got.Aborted != want.Aborted {
		t.Errorf("%s: Aborted = %v, want %v", label, got.Aborted, want.Aborted)
	}
}

// injections returns a spread of faults at or after instruction lo,
// covering registers, cache metadata and cached data.
func injections(golden *Outcome, k int) []Injection {
	at := golden.IterationStarts[k]
	return []Injection{
		{At: at, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}},
		{At: at + 11, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "pc", Bit: 2}},
		{At: at + 40, Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line2.data1", Bit: 17}},
		{At: at + 95, Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.dirty", Bit: 0}},
		{At: at + 200, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "flagZ", Bit: 0}},
	}
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, v := range []Variant{AlgorithmI, AlgorithmII, MIMOAlgorithmI} {
		t.Run(string(v), func(t *testing.T) {
			prog := Program(v)
			spec := SpecFor(v)
			spec.Iterations = 120
			golden := Run(prog, spec)

			for _, k := range []int{1, 37, 90} {
				ck, err := CaptureCheckpoint(prog, spec, k)
				if err != nil {
					t.Fatalf("capture at %d: %v", k, err)
				}
				if ck.Iteration() != k {
					t.Fatalf("checkpoint iteration %d, want %d", ck.Iteration(), k)
				}
				if ck.Instructions() != golden.IterationStarts[k] {
					t.Fatalf("checkpoint at %d instructions, want %d",
						ck.Instructions(), golden.IterationStarts[k])
				}

				// Fault-free resume reproduces the golden run.
				warm := spec
				warm.From = ck
				outcomesIdentical(t, "fault-free resume", Run(prog, warm), golden)

				// Injected resumes reproduce injected full replays.
				for _, inj := range injections(golden, k) {
					inj := inj
					full := spec
					full.Injection = &inj
					want := Run(prog, full)

					fast := warm
					fast.Injection = &inj
					outcomesIdentical(t, inj.Bit.String(), Run(prog, fast), want)
				}
			}
		})
	}
}

func TestCheckpointInjectionBeforeCheckpointFallsBack(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	ck, err := CaptureCheckpoint(prog, spec, 50)
	if err != nil {
		t.Fatal(err)
	}

	// Injection at instruction 0 (iteration 0) precedes the
	// checkpoint: the run must silently fall back to full replay, not
	// skip the injection or panic.
	inj := Injection{At: 0, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}}
	full := spec
	full.Injection = &inj
	want := Run(prog, full)

	fast := full
	fast.From = ck
	outcomesIdentical(t, "pre-checkpoint injection", Run(prog, fast), want)
}

func TestCaptureFromEarlierCheckpoint(t *testing.T) {
	prog := Program(AlgorithmII)
	spec := shortSpec()

	base, err := CaptureCheckpoint(prog, spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	incSpec := spec
	incSpec.From = base
	incremental, err := CaptureCheckpoint(prog, incSpec, 80)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := CaptureCheckpoint(prog, spec, 80)
	if err != nil {
		t.Fatal(err)
	}
	if incremental.Instructions() != direct.Instructions() {
		t.Fatalf("incremental checkpoint at %d instructions, direct at %d",
			incremental.Instructions(), direct.Instructions())
	}

	golden := Run(prog, spec)
	warm := spec
	warm.From = incremental
	outcomesIdentical(t, "resume from incremental checkpoint", Run(prog, warm), golden)
}

func TestCaptureCheckpointRejectsBadBoundaries(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	if _, err := CaptureCheckpoint(prog, spec, 0); err == nil {
		t.Error("capture at iteration 0 should fail")
	}
	if _, err := CaptureCheckpoint(prog, spec, spec.Iterations); err == nil {
		t.Error("capture at the run length should fail")
	}
}

// allModels lists every fault model the harness applies.
var allModels = []FaultModel{ModelBitFlip, ModelPC, ModelTransient, ModelBurst}

// edgeInjections are two edge cases at iteration k. The first hits r5,
// dead at that point, at the last instruction of iteration k (the sync
// store), so a transient's restore runs right before the iteration
// boundary and the run must re-converge at k+1. The second sets bit 31
// of r7, so a three-bit burst wraps to bits 0 and 1 of the same
// register.
func edgeInjections(golden *Outcome, k int) []Injection {
	return []Injection{
		{At: golden.IterationStarts[k+1] - 1, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}},
		{At: golden.IterationStarts[k] + 23, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r7", Bit: 31}},
	}
}

// withModel stamps model m on every injection, bursts three bits wide.
func withModel(injs []Injection, m FaultModel) []Injection {
	for i := range injs {
		injs[i].Model = m
		if m == ModelBurst {
			injs[i].Width = 3
		}
	}
	return injs
}

// modelInjections returns the injection spread and the edge cases at
// iteration k under model m.
func modelInjections(golden *Outcome, k int, m FaultModel) []Injection {
	return withModel(append(injections(golden, k), edgeInjections(golden, k)...), m)
}

// straddles reports whether inj is modelInjections' transient at the
// last instruction of iteration k.
func straddles(golden *Outcome, k int, inj Injection) bool {
	return inj.Model == ModelTransient && inj.At == golden.IterationStarts[k+1]-1
}

func TestGoldenEarlyExitByteIdentical(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	golden := Run(prog, goldenSpec)
	if len(golden.StateHashes) != spec.Iterations {
		t.Fatalf("%d state hashes, want %d", len(golden.StateHashes), spec.Iterations)
	}

	for _, m := range allModels {
		t.Run(string(m), func(t *testing.T) {
			reconverged := 0
			for _, k := range []int{0, 1, 30, 60, 110} {
				for _, inj := range modelInjections(golden, k, m) {
					inj := inj
					full := spec
					full.Injection = &inj
					want := Run(prog, full)

					fast := full
					fast.Golden = golden
					got := Run(prog, fast)
					outcomesIdentical(t, inj.Bit.String(), got, want)
					if got.ReconvergedAt != 0 {
						reconverged++
						if got.ReconvergedAt <= k {
							t.Errorf("%s: reconverged at %d, before injection iteration %d",
								inj.Bit, got.ReconvergedAt, k)
						}
					} else if straddles(golden, k, inj) {
						t.Errorf("%s at the end of iteration %d: restored transient took no early exit", inj.Bit, k)
					}
				}
			}
			// The sample includes masked faults (dead registers, clean
			// cache metadata), so the early exit must actually fire for
			// some of them.
			if reconverged == 0 {
				t.Error("no run took the early exit; the fast path is dead code")
			}
		})
	}
}

func TestGoldenEarlyExitWithCheckpointResume(t *testing.T) {
	prog := Program(AlgorithmII)
	spec := shortSpec()
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	golden := Run(prog, goldenSpec)

	k := 45
	ck, err := CaptureCheckpoint(prog, spec, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allModels {
		t.Run(string(m), func(t *testing.T) {
			for _, inj := range modelInjections(golden, k, m) {
				inj := inj
				full := spec
				full.Injection = &inj
				want := Run(prog, full)

				fast := full
				fast.From = ck
				fast.Golden = golden
				got := Run(prog, fast)
				outcomesIdentical(t, inj.Bit.String(), got, want)
				if straddles(golden, k, inj) && got.ReconvergedAt <= k {
					t.Errorf("%s at the end of iteration %d: reconverged at %d", inj.Bit, k, got.ReconvergedAt)
				}
			}
		})
	}
}

func TestRecordStateHashesDisablesResume(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	ck, err := CaptureCheckpoint(prog, spec, 40)
	if err != nil {
		t.Fatal(err)
	}
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	want := Run(prog, goldenSpec)

	goldenSpec.From = ck
	got := Run(prog, goldenSpec)
	if len(got.StateHashes) != spec.Iterations {
		t.Fatalf("%d state hashes, want %d (resume must be ignored)",
			len(got.StateHashes), spec.Iterations)
	}
	for i := range want.StateHashes {
		if got.StateHashes[i] != want.StateHashes[i] {
			t.Fatalf("StateHashes[%d] differs", i)
		}
	}
}
