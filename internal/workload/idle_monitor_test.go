package workload_test

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/workload"
)

// Monitored runs fast-forward the idle poll loop when every monitor
// accounts for the skipped trips (workload.IdleMonitor). These tests
// use the interpreter, which never fast-forwards and so calls OnInstr
// on every instruction, as the reference for outcomes, final monitor
// states and signature-monitor block entries.

// spyStack is a detector stack that counts what the harness hands it.
type spyStack struct {
	detect.Stack
	instrs   uint64 // OnInstr calls
	trips    uint64 // poll-loop trips accounted by SkipPoll
	declined int    // CanSkipPoll refusals
}

func (s *spyStack) OnInstr(k int, n uint64, vm *cpu.CPU) *cpu.TrapError {
	s.instrs++
	return s.Stack.OnInstr(k, n, vm)
}

func (s *spyStack) CanSkipPoll(pc uint32) bool {
	ok := s.Stack.CanSkipPoll(pc)
	if !ok {
		s.declined++
	}
	return ok
}

func (s *spyStack) SkipPoll(trips uint64) {
	s.trips += trips
	s.Stack.SkipPoll(trips)
}

// entries is the stack's signature-monitor block-entry count, 0 without
// one.
func (s *spyStack) entries() uint64 {
	for _, m := range s.Stack {
		if cf, ok := m.(*detect.CFMonitor); ok {
			return cf.Entries
		}
	}
	return 0
}

// detectorFamily builds fresh monitor stacks of one detector selection.
type detectorFamily struct {
	name string
	new  func() *spyStack
}

// detectorFamilies returns cfe, automaton and cfe+automaton over prog,
// the automaton mined from the fault-free run of spec.
func detectorFamilies(prog *cpu.Program, spec workload.RunSpec) []detectorFamily {
	coll := detect.NewCollector(prog)
	mined := spec
	mined.Monitor = coll
	workload.Run(prog, mined)
	automaton := detect.MineSeries(coll.Series, detect.MineOptions{})
	graph := detect.NewBlockGraph(prog)
	return []detectorFamily{
		{"cfe", func() *spyStack { return &spyStack{Stack: detect.Stack{detect.NewCFMonitor(graph)}} }},
		{"automaton", func() *spyStack {
			return &spyStack{Stack: detect.Stack{detect.NewAutomatonMonitor(prog, automaton)}}
		}},
		{"cfe+automaton", func() *spyStack {
			return &spyStack{Stack: detect.Stack{detect.NewCFMonitor(graph), detect.NewAutomatonMonitor(prog, automaton)}}
		}},
	}
}

// requireMonitoredEqual fails unless the predecoded run under fast and
// the interpreted run under ref agree on the outcome (re-convergence
// point included), the final monitor state and the block entries.
func requireMonitoredEqual(t *testing.T, label string, got *workload.Outcome, fast *spyStack, want *workload.Outcome, ref *spyStack) {
	t.Helper()
	if got.ReconvergedAt != want.ReconvergedAt {
		t.Fatalf("%s: re-converged at %d, interpreter at %d", label, got.ReconvergedAt, want.ReconvergedAt)
	}
	w := *want
	w.ReconvergedAt = 0
	sameOutcome(t, label, got, &w)
	gs, _ := fast.MonitorState()
	ws, _ := ref.MonitorState()
	if gs != ws {
		t.Fatalf("%s: final monitor state %x, interpreter %x", label, gs, ws)
	}
	if g, w := fast.entries(), ref.entries(); g != w {
		t.Fatalf("%s: %d block entries, interpreter %d", label, g, w)
	}
}

func pcBit(bit uint) cpu.StateBit {
	return cpu.StateBit{Region: cpu.RegionRegisters, Element: "pc", Bit: bit}
}

// TestIdleMonitorMatchesInterpreter injects, for every variant, detector
// selection and fault model, faults at each of the wait loop's five
// slots on two trips — into the polled register, the base pointer, the
// branch flag and the PC — and requires the predecoded monitored run,
// which fast-forwards the loop, to equal the interpreted one. Every
// other fault runs with the golden splice, so each model and slot is
// checked with and without it. The monitored golden runs must agree
// too.
func TestIdleMonitorMatchesInterpreter(t *testing.T) {
	stateBits := []cpu.StateBit{
		{Region: cpu.RegionRegisters, Element: "r15", Bit: 0},
		{Region: cpu.RegionRegisters, Element: "r1", Bit: 3},
		{Region: cpu.RegionRegisters, Element: "flagZ", Bit: 0},
		pcBit(2),
		pcBit(4),
	}
	models := []inject.FaultModel{workload.ModelBitFlip, workload.ModelPC, workload.ModelTransient, workload.ModelBurst}
	for _, v := range workload.Variants() {
		t.Run(string(v), func(t *testing.T) {
			prog := workload.Program(v)
			spec := workload.SpecFor(v)
			spec.Iterations = 12
			slots := append(workload.IdleSlots(t, prog, spec, 5, 0), workload.IdleSlots(t, prog, spec, 9, 37)...)
			for _, fam := range detectorFamilies(prog, spec) {
				goldenSpec := spec
				goldenSpec.RecordStateHashes = true
				fastMon, refMon := fam.new(), fam.new()
				goldenSpec.Monitor = fastMon
				golden := workload.Run(prog, goldenSpec)
				refSpec := goldenSpec
				refSpec.Monitor = refMon
				refSpec.Interpret = true
				refGolden := workload.Run(prog, refSpec)
				requireMonitoredEqual(t, fam.name+" golden", golden, fastMon, refGolden, refMon)
				if golden.Detected() {
					t.Fatalf("%s: golden run trapped: %v", fam.name, golden.Trap)
				}
				skipped := fastMon.trips
				for mi, m := range models {
					for si, at := range slots {
						for bi, b := range stateBits {
							inj := &workload.Injection{At: at, Bit: b, Model: m, Width: 3}
							fast, ref := spec, spec
							fast.Injection, ref.Injection = inj, inj
							ref.Interpret = true
							g := (mi+si+bi)%2 == 1
							if g {
								fast.Golden, ref.Golden = golden, refGolden
							}
							fastMon, refMon := fam.new(), fam.new()
							fast.Monitor, ref.Monitor = fastMon, refMon
							label := fmt.Sprintf("%s %s at %d %s golden=%v", fam.name, m, at, b, g)
							requireMonitoredEqual(t, label, workload.Run(prog, fast), fastMon, workload.Run(prog, ref), refMon)
							skipped += fastMon.trips
						}
					}
				}
				if skipped == 0 {
					t.Errorf("%s: no run fast-forwarded the poll loop", fam.name)
				}
			}
		})
	}
}

// plainMonitor sees instructions but lacks the IdleMonitor capability.
type plainMonitor struct{ instrs uint64 }

func (m *plainMonitor) OnInstr(int, uint64, *cpu.CPU) *cpu.TrapError {
	m.instrs++
	return nil
}

func (m *plainMonitor) OnIteration(int, *cpu.CPU) *cpu.TrapError { return nil }

// alg1With returns Algorithm I with the wait loop's label line replaced
// by repl.
func alg1With(t *testing.T, repl string) *cpu.Program {
	t.Helper()
	src, _ := workload.Source(workload.AlgorithmI)
	const head = "wait:   SIG"
	if strings.Count(src, head) != 1 {
		t.Fatalf("Algorithm I source has %d %q lines", strings.Count(src, head), head)
	}
	return cpu.MustAssemble(strings.Replace(src, head, repl, 1))
}

// TestIdleMonitorDeclines pins when a monitored run steps the poll loop
// instead of fast-forwarding it: always the runs the interpreter would
// produce.
func TestIdleMonitorDeclines(t *testing.T) {
	spec := workload.SpecFor(workload.AlgorithmI)
	spec.Iterations = 20

	t.Run("loop entered from another block", func(t *testing.T) {
		// A JMP from the block that signals the iteration brings control
		// to the loop head by a taken jump, through an edge the monitor
		// must follow itself; the back edges after it can be skipped.
		// Every iteration but the first starts with that jump.
		prog := alg1With(t, "        JMP  wait\nwait:   SIG")
		fam := detectorFamilies(prog, spec)[0]
		fast, ref := spec, spec
		ref.Interpret = true
		fastMon, refMon := fam.new(), fam.new()
		fast.Monitor, ref.Monitor = fastMon, refMon
		requireMonitoredEqual(t, "entered by JMP", workload.Run(prog, fast), fastMon, workload.Run(prog, ref), refMon)
		if fastMon.declined != spec.Iterations-1 || fastMon.trips == 0 {
			t.Errorf("declined %d loop entries and skipped %d trips, want %d entries declined and the rest skipped",
				fastMon.declined, fastMon.trips, spec.Iterations-1)
		}
	})

	t.Run("PC fault landing on the head", func(t *testing.T) {
		// Pad the program so the wait loop starts at a power-of-two
		// address: flipping that PC bit right after the JMP back to the
		// loop top (address 0) lands on the head, after a taken jump,
		// from a block with no edge to it.
		plain := alg1With(t, "wait:   SIG")
		wait := plain.CodeLabels["wait"]
		addr := uint32(1) << bits.Len32(wait)
		pad := strings.Repeat("        NOP\n", int(addr-wait)/4)
		prog := alg1With(t, pad+"wait:   SIG")
		if prog.CodeLabels["wait"] != addr {
			t.Fatalf("wait loop at %#x, want %#x", prog.CodeLabels["wait"], addr)
		}
		var top uint64
		find := spec
		find.Observer = func(it int, instr uint64, vm *cpu.CPU) {
			if it == 5 && vm.PC == 0 && top == 0 {
				top = instr
			}
		}
		workload.Run(prog, find)
		inj := &workload.Injection{At: top, Bit: pcBit(uint(bits.TrailingZeros32(addr))), Model: workload.ModelPC}
		for _, fam := range detectorFamilies(prog, spec) {
			fast, ref := spec, spec
			fast.Injection, ref.Injection = inj, inj
			ref.Interpret = true
			fastMon, refMon := fam.new(), fam.new()
			fast.Monitor, ref.Monitor = fastMon, refMon
			got := workload.Run(prog, fast)
			requireMonitoredEqual(t, fam.name, got, fastMon, workload.Run(prog, ref), refMon)
			if fam.name == "automaton" {
				continue
			}
			if got.Trap == nil || got.Trap.Mech != cpu.MechSignature || got.Instructions != top || fastMon.declined != 1 {
				t.Errorf("%s: trap %v after %d instructions with %d declines, want the signature monitor at %d after 1",
					fam.name, got.Trap, got.Instructions, fastMon.declined, top)
			}
		}
	})

	t.Run("member without the capability", func(t *testing.T) {
		prog := workload.Program(workload.AlgorithmI)
		graph := detect.NewBlockGraph(prog)
		for _, mk := range []func(*plainMonitor) workload.Monitor{
			func(p *plainMonitor) workload.Monitor { return p },
			func(p *plainMonitor) workload.Monitor { return detect.Stack{detect.NewCFMonitor(graph), p} },
		} {
			var fastP, refP plainMonitor
			fast, ref := spec, spec
			ref.Interpret = true
			fast.Monitor, ref.Monitor = mk(&fastP), mk(&refP)
			got := workload.Run(prog, fast)
			sameOutcome(t, "plain member", got, workload.Run(prog, ref))
			if fastP.instrs != got.Instructions || refP.instrs != got.Instructions {
				t.Errorf("%T: monitor saw %d and %d of %d instructions", fast.Monitor, fastP.instrs, refP.instrs, got.Instructions)
			}
		}
	})

	t.Run("observer", func(t *testing.T) {
		prog := workload.Program(workload.AlgorithmI)
		mon := detectorFamilies(prog, spec)[2].new()
		var observed uint64
		run := spec
		run.Monitor = mon
		run.Observer = func(int, uint64, *cpu.CPU) { observed++ }
		got := workload.Run(prog, run)
		if observed != got.Instructions || mon.instrs != got.Instructions || mon.trips != 0 {
			t.Errorf("observer saw %d, monitor %d of %d instructions, %d trips skipped",
				observed, mon.instrs, got.Instructions, mon.trips)
		}
	})
}

// TestIdleMonitorCFDeclineRules pins the signature monitor's acceptance
// rule state by state: only a monitor that has just taken the loop's
// back edge, with the block's signature, may skip trips of it.
func TestIdleMonitorCFDeclineRules(t *testing.T) {
	prog := workload.Program(workload.AlgorithmI)
	wait := prog.CodeLabels["wait"]
	idx := int(wait / 4)
	var sig uint32
	for _, w := range prog.Code[idx : idx+cpu.PollTrip] {
		sig ^= w
	}
	graph := detect.NewBlockGraph(prog)
	state := func(prev int, runSig uint32) string {
		b := binary.LittleEndian.AppendUint32(nil, uint32(int32(prev)))
		return string(binary.LittleEndian.AppendUint32(b, runSig))
	}
	cases := []struct {
		name   string
		pc     uint32
		prev   int
		runSig uint32
		want   bool
	}{
		{"back edge taken", wait, idx + 3, sig, true},
		{"previous instruction is the loop's SIG", wait, idx, sig, false},
		{"previous instruction is the loop's LD", wait, idx + 1, sig, false},
		{"previous instruction is the loop's CMP", wait, idx + 2, sig, false},
		{"previous instruction is the JMP after the loop", wait, idx + 4, sig, false},
		{"previous instruction is the block before the loop", wait, idx - 1, sig, false},
		{"run start", wait, -1, sig, false},
		{"signature mismatch", wait, idx + 3, sig ^ 1, false},
		{"not the head", wait + 4, idx + 3, sig, false},
		{"misaligned", wait + 2, idx + 3, sig, false},
		{"data segment", 0x1000, idx + 3, sig, false},
	}
	for _, c := range cases {
		cf := detect.NewCFMonitor(graph)
		cf.RestoreMonitorState(state(c.prev, c.runSig))
		if got := cf.CanSkipPoll(c.pc); got != c.want {
			t.Errorf("%s: CanSkipPoll = %v, want %v", c.name, got, c.want)
		}
		if got := (detect.Stack{cf, detect.NewCollector(prog)}).CanSkipPoll(c.pc); got != c.want {
			t.Errorf("%s: stack CanSkipPoll = %v, want %v", c.name, got, c.want)
		}
	}
	cf := detect.NewCFMonitor(graph)
	cf.RestoreMonitorState(state(idx+3, sig))
	before, _ := cf.MonitorState()
	cf.SkipPoll(7)
	if after, _ := cf.MonitorState(); after != before || cf.Entries != 7 {
		t.Errorf("SkipPoll(7) left state %x (was %x) and %d entries", after, before, cf.Entries)
	}
}
