package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ctrlguard/internal/cpu"
)

// The predecoded engine runs the idle poll loop in O(1) trips
// (cpu.CPU.FastForward); RunSpec.Interpret never does. These tests use
// the interpreter as the reference for outcomes whose faults land in,
// leave or redirect the loop.

// requireSameOutcome fails unless got and want are deep-equal, with
// float traces compared by their bits so NaNs count as equal.
func requireSameOutcome(t *testing.T, label string, got, want *Outcome) {
	t.Helper()
	split := func(o *Outcome) (Outcome, [][]uint64) {
		cp := *o
		var traces [][]uint64
		for _, tr := range append(append([][]float64(nil), o.MultiOutputs...), o.Speeds) {
			b := make([]uint64, len(tr))
			for i, v := range tr {
				b[i] = math.Float64bits(v)
			}
			traces = append(traces, b)
		}
		cp.Outputs, cp.MultiOutputs, cp.Speeds = nil, nil, nil
		return cp, traces
	}
	g, gTraces := split(got)
	w, wTraces := split(want)
	if !reflect.DeepEqual(gTraces, wTraces) {
		t.Fatalf("%s: output or speed traces differ", label)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: outcomes differ:\n got  trap=%v it=%d instr=%d reconv=%d\n want trap=%v it=%d instr=%d reconv=%d",
			label, g.Trap, g.TrapIteration, g.Instructions, g.ReconvergedAt,
			w.Trap, w.TrapIteration, w.Instructions, w.ReconvergedAt)
	}
}

// idleSlots returns the instruction indices, within iteration k of the
// fault-free run of spec, of the wait loop's SIG, LD, CMP and BEQ on
// trip `trip` (0-based) and of the JMP that leaves the loop.
func idleSlots(t *testing.T, prog *cpu.Program, spec RunSpec, k, trip int) []uint64 {
	t.Helper()
	wait, ok := prog.CodeLabels["wait"]
	if !ok {
		t.Fatal("program has no wait label")
	}
	slots := make([]uint64, 5)
	seen := make([]int, 5)
	spec.Observer = func(it int, instr uint64, vm *cpu.CPU) {
		if it != k || vm.PC < wait || vm.PC > wait+16 {
			return
		}
		s := (vm.PC - wait) / 4
		if s == 4 || seen[s] == trip {
			slots[s] = instr
		}
		seen[s]++
	}
	Run(prog, spec)
	if in, _ := cpu.Decode(prog.Code[(wait+16)/4]); in.Op != cpu.OpJmp {
		t.Fatalf("the wait loop is followed by %v, not JMP", in.Op)
	}
	for s, at := range slots {
		if at == 0 {
			t.Fatalf("slot %d of the wait loop not reached in iteration %d", s, k)
		}
	}
	return slots
}

// IdleSlots lets the external test package place faults in the loop.
var IdleSlots = idleSlots

// RequireSameOutcome lets the external test package compare outcomes
// field for field.
var RequireSameOutcome = requireSameOutcome

func regBit(elem string, bit uint) cpu.StateBit {
	return cpu.StateBit{Region: cpu.RegionRegisters, Element: elem, Bit: bit}
}

// TestIdleFastForwardMatchesInterpreter injects, for every variant and
// fault model, faults at each of the wait loop's five slots — into the
// polled register, the base pointer (which sends the poll elsewhere),
// the branch flag, the PC and cached data — and requires the predecoded
// run to equal the interpreted run, with and without the golden splice.
func TestIdleFastForwardMatchesInterpreter(t *testing.T) {
	bits := []cpu.StateBit{
		regBit("r15", 0),
		regBit("r1", 3),
		regBit("flagZ", 0),
		regBit("pc", 2),
		{Region: cpu.RegionCache, Element: "line0.data0", Bit: 28},
	}
	models := []FaultModel{ModelBitFlip, ModelPC, ModelTransient, ModelBurst}
	for _, v := range Variants() {
		t.Run(string(v), func(t *testing.T) {
			prog := Program(v)
			spec := SpecFor(v)
			spec.Iterations = 24
			goldenSpec := spec
			goldenSpec.RecordStateHashes = true
			golden := Run(prog, goldenSpec)
			slots := append(idleSlots(t, prog, spec, 5, 0), idleSlots(t, prog, spec, 9, 37)...)
			for _, m := range models {
				for _, at := range slots {
					for _, b := range bits {
						inj := &Injection{At: at, Bit: b, Model: m, Width: 3}
						for _, g := range []*Outcome{nil, golden} {
							fast := spec
							fast.Injection = inj
							fast.Golden = g
							ref := fast
							ref.Interpret = true
							label := fmt.Sprintf("%s at %d %s golden=%v", m, at, b, g != nil)
							requireSameOutcome(t, label, Run(prog, fast), Run(prog, ref))
						}
					}
				}
			}
		})
	}
}

// TestIdleRedirectedPollRunsToWatchdog flips the wait loop's base
// pointer so the poll reads a word that is 0 for good: the loop spins
// until the cycle-budget watchdog fires, on exactly the instruction
// the interpreter reaches.
func TestIdleRedirectedPollRunsToWatchdog(t *testing.T) {
	for _, v := range Variants() {
		prog := Program(v)
		spec := SpecFor(v)
		spec.Iterations = 12
		for _, budget := range []int{0, 1001, 1002, 1003} {
			spec.CycleBudget = budget
			ld := idleSlots(t, prog, spec, 4, 2)[1]
			fast := spec
			fast.Injection = &Injection{At: ld, Bit: regBit("r1", 3)}
			ref := fast
			ref.Interpret = true
			got := Run(prog, fast)
			if got.Trap == nil || got.Trap.Mech != cpu.MechWatchdog || got.TrapIteration != 4 {
				t.Fatalf("%s budget %d: outcome trap %v at %d, want the watchdog in iteration 4",
					v, budget, got.Trap, got.TrapIteration)
			}
			requireSameOutcome(t, fmt.Sprintf("%s budget %d", v, budget), got, Run(prog, ref))
		}
	}
}

// TestIdleLockstepLanesForkInsideLoop forks lanes off a cursor at
// points spread through the wait loop — first and last trips, the loop
// exit and the JMP — so the cursor fast-forwards between forks and
// every lane resumes mid-loop. Each lane must equal the interpreted solo
// run.
func TestIdleLockstepLanesForkInsideLoop(t *testing.T) {
	for _, v := range Variants() {
		t.Run(string(v), func(t *testing.T) {
			prog := Program(v)
			spec := SpecFor(v)
			spec.Iterations = 30
			goldenSpec := spec
			goldenSpec.RecordStateHashes = true
			golden := Run(prog, goldenSpec)
			start := golden.IterationStarts[6]
			var injs []Injection
			for i, off := range []uint64{0, 1, 2, 3, 37, 38, 200, 398, 399, 400, 401, 402, 403, 404} {
				b := []cpu.StateBit{regBit("r15", 1), regBit("r1", 2), regBit("flagZ", 0), regBit("r6", 30)}[i%4]
				injs = append(injs, Injection{At: start + off, Bit: b, Model: []FaultModel{ModelBitFlip, ModelTransient}[i%2]})
				if off == 37 {
					// Two lanes on one instruction.
					injs = append(injs, Injection{At: start + 37, Bit: regBit("r5", 4)})
				}
			}
			// And one in a later iteration.
			injs = append(injs, Injection{At: golden.IterationStarts[20] + 150, Bit: regBit("r1", 3)})
			for _, g := range []*Outcome{nil, golden} {
				lane := spec
				lane.Golden = g
				c, err := NewCursor(prog, spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, inj := range injs {
					ref := lane
					ref.Injection = &inj
					lane.Injection = &inj
					got := c.Fork(lane)
					if got == nil {
						t.Fatalf("lane At=%d not forked", inj.At)
					}
					ref.Interpret = true
					requireSameOutcome(t, fmt.Sprintf("lane At=%d %s golden=%v", inj.At, inj.Bit, g != nil),
						got, Run(prog, ref))
				}
			}
		})
	}
}
