package inject

import (
	"reflect"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// Edge-case regressions for the injection machinery: faults landing on
// the very last instruction of a run, bit indices at word boundaries
// (burst wrap-around), and plans containing duplicate
// (element, bit, time) tuples.

// TestFinalInstructionInjection pins that every fault model can be
// injected at the last instruction of the run without panicking or
// wedging the harness — the transient model's restore hook in
// particular must cope with the run ending immediately after the flip.
func TestFinalInstructionInjection(t *testing.T) {
	prog := workload.Program(workload.AlgorithmI)
	spec := workload.SpecFor(workload.AlgorithmI)
	golden := workload.Run(prog, spec)
	if golden.Detected() {
		t.Fatalf("golden run trapped: %v", golden.Trap)
	}
	bit := cpu.StateBit{Region: cpu.RegionRegisters, Element: "r6", Bit: 3}
	for _, m := range []FaultModel{ModelBitFlip, ModelPC, ModelTransient, ModelBurst} {
		inj := workload.Injection{At: golden.Instructions - 1, Bit: bit}
		if c := m.Canonical(); c != ModelBitFlip {
			inj.Model = c
			if c == ModelBurst {
				inj.Width = DefaultBurstWidth
			}
		}
		if m == ModelPC {
			inj.Bit = cpu.StateBit{Region: cpu.RegionRegisters, Element: "pc", Bit: 2}
		}
		run := spec
		run.Injection = &inj
		out := workload.Run(prog, run)
		if out.Aborted {
			t.Errorf("model %s: final-instruction injection aborted the run", m)
		}
		// A fault on the last instruction can at most perturb the final
		// state or trap — the completed iterations must all be there.
		if got := len(out.Outputs); !out.Detected() && got != len(golden.Outputs) {
			t.Errorf("model %s: %d outputs, want %d", m, got, len(golden.Outputs))
		}
	}
}

// TestBurstWrapsAtWordBoundary pins the burst model's bit arithmetic at
// the top of a 32-bit element: a width-2 burst at bit 31 must flip bits
// 31 and 0 of the same element, not spill into a neighbour.
func TestBurstWrapsAtWordBoundary(t *testing.T) {
	prog := workload.Program(workload.AlgorithmI)
	vm := cpu.New(prog, nopIO{})
	bit := cpu.StateBit{Region: cpu.RegionRegisters, Element: "r6", Bit: 31}
	if err := vm.FlipBurst(bit, 2); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		b       uint
		flipped bool
	}{{31, true}, {0, true}, {1, false}, {30, false}} {
		got, err := vm.StateBitValue(cpu.StateBit{Region: bit.Region, Element: bit.Element, Bit: want.b})
		if err != nil {
			t.Fatal(err)
		}
		if got != want.flipped {
			t.Errorf("after width-2 burst at bit 31: bit %d = %v, want %v", want.b, got, want.flipped)
		}
	}
}

// TestBurstClampsToElementWidth pins the clamp for sub-word elements: a
// wide burst on a 1-bit flag flips exactly that flag once.
func TestBurstClampsToElementWidth(t *testing.T) {
	prog := workload.Program(workload.AlgorithmI)
	vm := cpu.New(prog, nopIO{})
	flag := cpu.StateBit{Region: cpu.RegionRegisters, Element: "flagZ", Bit: 0}
	before, err := vm.StateBitValue(flag)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.FlipBurst(flag, 8); err != nil {
		t.Fatal(err)
	}
	after, err := vm.StateBitValue(flag)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Error("width-8 burst on flagZ cancelled itself; want a single effective flip")
	}
}

// TestDuplicateInjectionsDeterministic pins that a plan containing the
// same (element, bit, time) tuple twice yields identical runs for each
// occurrence — the property the campaign engine's equivalence-class
// pruning and record comparison rest on.
func TestDuplicateInjectionsDeterministic(t *testing.T) {
	prog := workload.Program(workload.AlgorithmI)
	spec := workload.SpecFor(workload.AlgorithmI)
	for _, m := range []FaultModel{ModelBitFlip, ModelTransient, ModelBurst} {
		inj := workload.Injection{
			At:  5000,
			Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r8", Bit: 17},
		}
		if c := m.Canonical(); c != ModelBitFlip {
			inj.Model = c
			if c == ModelBurst {
				inj.Width = 3
			}
		}
		run := spec
		run.Injection = &inj
		a := workload.Run(prog, run)
		dup := inj // same tuple, fresh pointer: a duplicate plan entry
		run.Injection = &dup
		b := workload.Run(prog, run)
		if !reflect.DeepEqual(a.Outputs, b.Outputs) || a.Instructions != b.Instructions ||
			(a.Trap == nil) != (b.Trap == nil) {
			t.Errorf("model %s: duplicate injections diverged (%d vs %d instructions)",
				m, a.Instructions, b.Instructions)
		}
	}
}

// TestModelSamplerMatchesDefaultDrawSequence pins the byte-identity
// cornerstone: for the location/time models that share the default
// sampling distribution, NewModelSampler draws exactly the sequence
// NewSampler does — only the stamped Model/Width fields differ.
func TestModelSamplerMatchesDefaultDrawSequence(t *testing.T) {
	for _, m := range []FaultModel{ModelBitFlip, ModelTransient, ModelBurst} {
		got, err := NewModelSampler(99, 123456, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		refCopy := NewSampler(99, 123456)
		for i := 0; i < 500; i++ {
			a, b := refCopy.Next(), got.Next()
			if a.At != b.At || a.Bit != b.Bit {
				t.Fatalf("model %s: draw %d diverged: %v vs %v", m, i, a, b)
			}
			if m.Canonical() == ModelBitFlip && (b.Model != "" || b.Width != 0) {
				t.Fatalf("default model stamped %q/%d; historical records would change shape", b.Model, b.Width)
			}
		}
	}
}

// TestPCModelSamplesControlFlowBitsOnly pins the pc model's location
// restriction.
func TestPCModelSamplesControlFlowBitsOnly(t *testing.T) {
	s, err := NewModelSampler(7, 10000, ModelPC, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		inj := s.Next()
		switch inj.Bit.Element {
		case "pc", "flagZ", "flagLT":
		default:
			t.Fatalf("pc model drew element %q; want control-flow state only", inj.Bit.Element)
		}
	}
}

// nopIO satisfies the CPU's I/O bus for direct-VM tests.
type nopIO struct{}

func (nopIO) ReadIO(off uint32) uint32     { return 0 }
func (nopIO) WriteIO(off uint32, v uint32) {}
