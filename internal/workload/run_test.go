package workload

import (
	"fmt"
	"testing"

	"ctrlguard/internal/cpu"
)

// Runs that nothing watches per instruction execute straight-line
// stretches through cpu.CPU.Run, whose limit stops them at the next
// injection, lane fork or watchdog overrun. These tests pin each of
// those boundaries against the stepped reference: a run with a no-op
// Observer steps every instruction and never fast-forwards.

// stepped returns spec with a no-op Observer.
func stepped(spec RunSpec) RunSpec {
	spec.Observer = func(int, uint64, *cpu.CPU) {}
	return spec
}

// runSpan is how many consecutive instructions the tests place events
// at, one per instruction: from the last trip of an iteration's wait
// loop through the whole control computation that follows it.
const runSpan = 80

// computeStart returns the instruction index of the SIG of the last
// trip of the wait loop that ends iteration k of spec's fault-free run.
func computeStart(t *testing.T, prog *cpu.Program, spec RunSpec, k int) uint64 {
	t.Helper()
	return idleSlots(t, prog, spec, k, 0)[4] - 4
}

var runBits = []cpu.StateBit{
	regBit("r3", 7),
	regBit("r9", 31),
	regBit("pc", 3),
	regBit("flagLT", 0),
	{Region: cpu.RegionCache, Element: "line1.data2", Bit: 30},
}

// TestRunInjectionAtLimit injects at every instruction of an
// iteration's computation, so each injection lands inside a stretch Run
// would otherwise execute in one call, and requires the stepped outcome.
func TestRunInjectionAtLimit(t *testing.T) {
	for _, v := range Variants() {
		prog := Program(v)
		spec := SpecFor(v)
		spec.Iterations = 5
		start := computeStart(t, prog, spec, 3)
		for off := uint64(0); off < runSpan; off++ {
			for i, b := range runBits {
				run := spec
				run.Injection = &Injection{At: start + off, Bit: b, Model: []FaultModel{ModelBitFlip, ModelBurst}[i%2]}
				requireSameOutcome(t, fmt.Sprintf("%s at +%d %s", v, off, b), Run(prog, run), Run(prog, stepped(run)))
			}
		}
	}
}

// TestRunLaneForksAtLimit forks a lockstep lane at every instruction of
// an iteration's computation, so the leader's Run calls stop at each
// fork, and requires every lane to equal the stepped solo run.
func TestRunLaneForksAtLimit(t *testing.T) {
	for _, v := range Variants() {
		prog := Program(v)
		spec := SpecFor(v)
		spec.Iterations = 5
		start := computeStart(t, prog, spec, 3)
		var injs []*Injection
		for off := uint64(0); off < runSpan; off++ {
			injs = append(injs, &Injection{At: start + off, Bit: runBits[off%uint64(len(runBits))]})
		}
		outs, ok := RunBatch(prog, spec, injs)
		if !ok {
			t.Fatalf("%s: RunBatch declined a batchable spec", v)
		}
		for i, inj := range injs {
			if outs[i] == nil {
				t.Fatalf("%s: lane At=%d not forked", v, inj.At)
			}
			solo := spec
			solo.Injection = inj
			requireSameOutcome(t, fmt.Sprintf("%s lane at %d", v, inj.At), outs[i], Run(prog, stepped(solo)))
		}
	}
}

// TestRunWatchdogSameInstruction runs iterations that never reach their
// sync store within the cycle budget — the first iteration under every
// budget shorter than it, and a poll redirected to a word that reads 0
// for good — and requires the watchdog to fire on the instruction that
// overruns the budget, as it does when stepping.
func TestRunWatchdogSameInstruction(t *testing.T) {
	for _, v := range Variants() {
		prog := Program(v)
		spec := SpecFor(v)
		spec.Iterations = 12
		first := Run(prog, spec).IterationStarts[1]
		for budget := 1; uint64(budget) < first; budget++ {
			run := spec
			run.CycleBudget = budget
			got := Run(prog, run)
			if got.Trap == nil || got.Trap.Mech != cpu.MechWatchdog || got.TrapIteration != 0 ||
				got.Instructions != uint64(budget+1) {
				t.Fatalf("%s budget %d: trap %v in iteration %d after %d instructions, want the watchdog in iteration 0 after %d",
					v, budget, got.Trap, got.TrapIteration, got.Instructions, budget+1)
			}
			requireSameOutcome(t, fmt.Sprintf("%s budget %d", v, budget), got, Run(prog, stepped(run)))
		}
		for budget := 1000; budget < 1008; budget++ {
			run := spec
			run.CycleBudget = budget
			ld := idleSlots(t, prog, run, 4, 2)[1]
			run.Injection = &Injection{At: ld, Bit: regBit("r1", 3)}
			got := Run(prog, run)
			if got.Trap == nil || got.Trap.Mech != cpu.MechWatchdog ||
				got.Instructions != got.IterationStarts[4]+uint64(budget+1) {
				t.Fatalf("%s budget %d: redirected poll ended with trap %v after %d instructions, want the watchdog after %d",
					v, budget, got.Trap, got.Instructions, got.IterationStarts[4]+uint64(budget+1))
			}
			requireSameOutcome(t, fmt.Sprintf("%s redirected poll budget %d", v, budget), got, Run(prog, stepped(run)))
		}
	}
}

// TestRunTransientRestoreAfterOneInstruction places transient faults at
// every instruction of an iteration's computation: the run must step
// exactly the one faulted instruction, restore the bit, and go on
// exactly as the stepped run does.
func TestRunTransientRestoreAfterOneInstruction(t *testing.T) {
	for _, v := range Variants() {
		prog := Program(v)
		spec := SpecFor(v)
		spec.Iterations = 5
		start := computeStart(t, prog, spec, 3)
		for off := uint64(0); off < runSpan; off++ {
			for _, b := range runBits {
				run := spec
				run.Injection = &Injection{At: start + off, Bit: b, Model: ModelTransient}
				requireSameOutcome(t, fmt.Sprintf("%s transient at +%d %s", v, off, b), Run(prog, run), Run(prog, stepped(run)))
			}
		}
	}
}
