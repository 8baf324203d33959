package workload

import (
	"math"
	"sort"
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

// forkOrFail forks inj off c and fails the test when the cursor
// declines it.
func forkOrFail(t *testing.T, c *Cursor, spec RunSpec, inj Injection) *Outcome {
	t.Helper()
	lane := spec
	lane.Injection = &inj
	out := c.Fork(lane)
	if out == nil {
		t.Fatalf("cursor declined the injection at %d (%s)", inj.At, inj.Bit)
	}
	return out
}

// newCursor starts a cursor for prog under spec and fails the test on
// an error.
func newCursor(t *testing.T, prog *cpu.Program, spec RunSpec) *Cursor {
	t.Helper()
	c, err := NewCursor(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCheckpointResumeByteIdentical pins lanes forked off one cursor at
// iteration boundaries early, mid-run and late, and at the spread of
// injections after each: every lane equals the full run of its
// injection.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, v := range []Variant{AlgorithmI, AlgorithmII, MIMOAlgorithmI} {
		t.Run(string(v), func(t *testing.T) {
			prog := Program(v)
			spec := SpecFor(v)
			spec.Iterations = 120
			golden := Run(prog, spec)

			c := newCursor(t, prog, spec)
			for _, k := range []int{1, 37, 90} {
				for _, inj := range injections(golden, k) {
					full := spec
					full.Injection = &inj
					outcomesIdentical(t, inj.Bit.String(), forkOrFail(t, c, spec, inj), Run(prog, full))
				}
			}
		})
	}
}

// TestCheckpointInjectionBeforeCheckpointFallsBack: an injection behind
// the cursor is declined (the caller runs it from instruction 0), and
// the declined fork leaves the cursor where it was.
func TestCheckpointInjectionBeforeCheckpointFallsBack(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	golden := Run(prog, spec)
	c := newCursor(t, prog, spec)
	at := golden.IterationStarts[50]
	forkOrFail(t, c, spec, Injection{At: at, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}})

	early := spec
	early.Injection = &Injection{At: 0, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}}
	if out := c.Fork(early); out != nil {
		t.Fatal("the cursor forked an injection behind it")
	}

	again := Injection{At: at, Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line2.data1", Bit: 17}}
	full := spec
	full.Injection = &again
	outcomesIdentical(t, "fork after a decline", forkOrFail(t, c, spec, again), Run(prog, full))
}

// TestCaptureFromEarlierCheckpoint: a cursor that stopped at iteration
// 20 on its way forks the same lane at iteration 80 as a fresh cursor.
func TestCaptureFromEarlierCheckpoint(t *testing.T) {
	prog := Program(AlgorithmII)
	spec := shortSpec()
	golden := Run(prog, spec)

	inj := Injection{At: golden.IterationStarts[80] + 9, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r6", Bit: 2}}
	incremental := newCursor(t, prog, spec)
	forkOrFail(t, incremental, spec, Injection{At: golden.IterationStarts[20], Bit: inj.Bit})
	full := spec
	full.Injection = &inj
	want := Run(prog, full)
	outcomesIdentical(t, "incremental cursor", forkOrFail(t, incremental, spec, inj), want)
	outcomesIdentical(t, "direct cursor", forkOrFail(t, newCursor(t, prog, spec), spec, inj), want)
}

// TestCaptureCheckpointRejectsBadBoundaries: the cursor reaches the
// run's last instruction but nothing at or past its end, and once the
// fault-free run has ended it forks nothing more.
func TestCaptureCheckpointRejectsBadBoundaries(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	golden := Run(prog, spec)
	bit := cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}

	last := Injection{At: golden.Instructions - 1, Bit: bit}
	full := spec
	full.Injection = &last
	outcomesIdentical(t, "last instruction", forkOrFail(t, newCursor(t, prog, spec), spec, last), Run(prog, full))

	for _, at := range []uint64{golden.Instructions, golden.Instructions + 1000} {
		c := newCursor(t, prog, spec)
		lane := spec
		lane.Injection = &Injection{At: at, Bit: bit}
		if c.Fork(lane) != nil {
			t.Errorf("forked at instruction %d of a %d-instruction run", at, golden.Instructions)
		}
		lane.Injection = &Injection{At: golden.Instructions + 2000, Bit: bit}
		if c.Fork(lane) != nil {
			t.Errorf("cursor forked after the fault-free run ended")
		}
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

// TestGoldenEarlyExitWithCheckpointResume: lanes forked off a cursor
// splice the golden remainder exactly like solo runs, under every fault
// model; a transient restored at the end of its iteration re-converges
// after it.
func TestGoldenEarlyExitWithCheckpointResume(t *testing.T) {
	prog := Program(AlgorithmII)
	spec := shortSpec()
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	golden := Run(prog, goldenSpec)

	k := 45
	for _, m := range allModels {
		t.Run(string(m), func(t *testing.T) {
			c := newCursor(t, prog, spec)
			injs := modelInjections(golden, k, m)
			sort.SliceStable(injs, func(a, b int) bool { return injs[a].At < injs[b].At })
			for _, inj := range injs {
				full := spec
				full.Injection = &inj
				want := Run(prog, full)

				lane := spec
				lane.Golden = golden
				got := forkOrFail(t, c, lane, inj)
				outcomesIdentical(t, inj.Bit.String(), got, want)
				if straddles(golden, k, inj) && got.ReconvergedAt <= k {
					t.Errorf("%s at the end of iteration %d: reconverged at %d", inj.Bit, k, got.ReconvergedAt)
				}
			}
		})
	}
}

// TestRecordStateHashesDisablesResume: state hashes describe a run from
// instruction 0, so no cursor records them and no lane is forked for a
// spec that asks for them.
func TestRecordStateHashesDisablesResume(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	hashed := spec
	hashed.RecordStateHashes = true
	if _, err := NewCursor(prog, hashed); err == nil {
		t.Error("a cursor accepted a spec recording state hashes")
	}
	c := newCursor(t, prog, spec)
	hashed.Injection = &Injection{At: 500, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}}
	if c.Fork(hashed) != nil {
		t.Error("a lane recording state hashes was forked")
	}
	if got := Run(prog, hashed); len(got.StateHashes) != spec.Iterations {
		t.Fatalf("%d state hashes, want %d", len(got.StateHashes), spec.Iterations)
	}
}

// batchInjections spans every fault model, duplicate injection points,
// instruction 0 and the run's last instruction, in At order — the
// shapes a campaign worker's feed produces.
func batchInjections(golden *Outcome) []Injection {
	at := func(k int) uint64 { return golden.IterationStarts[k] }
	return []Injection{
		{At: 0, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r7", Bit: 30}},
		{At: at(10) + 11, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "pc", Bit: 2}, Model: ModelPC},
		{At: at(25) + 60, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r6", Bit: 5}, Model: ModelBurst, Width: 3},
		{At: at(40) + 7, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}},
		{At: at(40) + 7, Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line2.data1", Bit: 17}},
		{At: at(70) + 3, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r4", Bit: 12}, Model: ModelTransient},
		{At: at(90), Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.dirty", Bit: 0}},
		{At: golden.Instructions - 1, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "flagZ", Bit: 0}},
	}
}

// TestLockstepBatchByteIdentical is the cursor's core invariant: every
// lane forked off one cursor equals the solo Run of the same injection,
// bit for bit, across variants, fault models and golden-splice use.
func TestLockstepBatchByteIdentical(t *testing.T) {
	for _, v := range []Variant{AlgorithmI, AlgorithmII, MIMOAlgorithmI} {
		t.Run(string(v), func(t *testing.T) {
			prog := Program(v)
			spec := SpecFor(v)
			spec.Iterations = 120
			goldenSpec := spec
			goldenSpec.RecordStateHashes = true
			golden := Run(prog, goldenSpec)

			for _, g := range []*Outcome{nil, golden} {
				lane := spec
				lane.Golden = g
				c := newCursor(t, prog, spec)
				for _, inj := range batchInjections(golden) {
					solo := lane
					solo.Injection = &inj
					outcomesIdentical(t, inj.Bit.String(), forkOrFail(t, c, lane, inj), Run(prog, solo))
				}
			}
		})
	}
}

// TestLockstepUnreachableInjection pins the contract for injection
// points past the end of the fault-free run: the lane is declined
// (caller falls back to a solo run) and the lanes forked before are
// unaffected.
func TestLockstepUnreachableInjection(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	golden := Run(prog, spec)

	c := newCursor(t, prog, spec)
	reachable := Injection{At: golden.IterationStarts[5], Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}}
	got := forkOrFail(t, c, spec, reachable)
	lane := spec
	lane.Injection = &Injection{At: golden.Instructions + 1000, Bit: reachable.Bit}
	if c.Fork(lane) != nil {
		t.Error("unreachable injection produced an outcome")
	}
	solo := spec
	solo.Injection = &reachable
	outcomesIdentical(t, "reachable lane", got, Run(prog, solo))
}

// TestLockstepWithCheckpoint pins cursors that have already moved, under
// every fault model: a cursor stopped before every injection forks each
// exactly; one stopped past the earliest declines the injections behind
// it and still forks the later ones exactly. Lanes splice the golden
// remainder, so a transient restored at the end of its iteration must
// re-converge.
func TestLockstepWithCheckpoint(t *testing.T) {
	prog := Program(AlgorithmII)
	spec := shortSpec()
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	golden := Run(prog, goldenSpec)

	for _, tc := range []struct {
		name string
		ks   []int
	}{
		{"checkpoint before all injections", []int{45, 60, 100}},
		{"checkpoint after earliest injection", []int{5, 60, 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range allModels {
				t.Run(string(m), func(t *testing.T) {
					lane := spec
					lane.Golden = golden
					c := newCursor(t, prog, spec)
					forkOrFail(t, c, lane, Injection{At: golden.IterationStarts[30],
						Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r9", Bit: 1}})
					for _, k := range tc.ks {
						mid := Injection{At: golden.IterationStarts[k] + 9,
							Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}}
						injs := withModel(append(edgeInjections(golden, k), mid), m)
						sort.SliceStable(injs, func(a, b int) bool { return injs[a].At < injs[b].At })
						for _, inj := range injs {
							// The reference is the plain full replay: no
							// cursor, no golden splice.
							solo := spec
							solo.Injection = &inj
							want := Run(prog, solo)
							if k < 30 {
								behind := lane
								behind.Injection = &inj
								if c.Fork(behind) != nil {
									t.Fatalf("forked %s at %d behind the cursor", inj.Bit, inj.At)
								}
								continue
							}
							got := forkOrFail(t, c, lane, inj)
							outcomesIdentical(t, tc.name, got, want)
							if straddles(golden, k, inj) && got.ReconvergedAt <= k {
								t.Errorf("%s at the end of iteration %d: lane reconverged at %d", inj.Bit, k, got.ReconvergedAt)
							}
						}
					}
				})
			}
		})
	}
}

// TestLockstepInterpretCrossVal runs the three engines the
// lockstep-crossval CI job exercises — classic interpreter, predecoded
// solo, lanes forked off a cursor (predecoded and interpreted) — and
// requires identical outcomes.
func TestLockstepInterpretCrossVal(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	golden := Run(prog, spec)
	interp := spec
	interp.Interpret = true
	decoded, classic := newCursor(t, prog, spec), newCursor(t, prog, interp)
	for _, inj := range batchInjections(golden) {
		ref := interp
		ref.Injection = &inj
		want := Run(prog, ref)

		solo := spec
		solo.Injection = &inj
		outcomesIdentical(t, "predecoded solo vs interpreted", Run(prog, solo), want)
		outcomesIdentical(t, "predecoded lane vs interpreted", forkOrFail(t, decoded, spec, inj), want)
		outcomesIdentical(t, "interpreted lane vs interpreted", forkOrFail(t, classic, interp, inj), want)
	}
}

// TestLockstepDeclines pins every condition under which a cursor must
// refuse to start or to fork rather than risk a divergent outcome.
func TestLockstepDeclines(t *testing.T) {
	prog := Program(AlgorithmI)
	base := shortSpec()
	inj := &Injection{At: 100, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}}

	refuse := func(name string, spec RunSpec) {
		if _, err := NewCursor(prog, spec); err == nil {
			t.Errorf("%s: NewCursor accepted", name)
		}
	}
	withInjection := base
	withInjection.Injection = inj
	refuse("spec-level injection", withInjection)
	withObserver := base
	withObserver.Observer = func(int, uint64, *cpu.CPU) {}
	refuse("observer", withObserver)
	withHashes := base
	withHashes.RecordStateHashes = true
	refuse("state hashes", withHashes)
	withMonitor := base
	withMonitor.Monitor = nopMonitor{}
	refuse("monitor without state", withMonitor)
	uncloneable := base
	uncloneable.NewEnv = func(s RunSpec) Environment { return struct{ Environment }{newEngineEnv(s)} }
	refuse("environment without CloneEnv", uncloneable)

	decline := func(name string, lane RunSpec) {
		if newCursor(t, prog, base).Fork(lane) != nil {
			t.Errorf("%s: Fork accepted", name)
		}
	}
	decline("no injection", base)
	withObserver.Injection = inj
	decline("observer", withObserver)
	withMonitor.Injection = inj
	decline("monitored lane off an unmonitored cursor", withMonitor)
}

type nopMonitor struct{}

func (nopMonitor) OnInstr(int, uint64, *cpu.CPU) *cpu.TrapError { return nil }
func (nopMonitor) OnIteration(int, *cpu.CPU) *cpu.TrapError     { return nil }
