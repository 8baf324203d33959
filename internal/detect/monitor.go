package detect

import (
	"encoding/binary"
	"math"

	"ctrlguard/internal/cpu"
)

// The per-iteration state vector the automaton family observes on the
// simulated CPU: the workload's controller state doubles (the same
// data labels internal/trace tracks — x for the SISO variants, x1/x2
// for MIMO), read non-perturbingly at each iteration boundary.
var stateLabelCandidates = []string{"x", "x1", "x2"}

// StateAddrs locates the observable state doubles of a program, in
// label order. Programs without any known label yield an empty slice —
// the automaton then has nothing to watch and accepts every run.
func StateAddrs(prog *cpu.Program) []uint32 {
	var addrs []uint32
	for _, l := range stateLabelCandidates {
		if a, ok := prog.DataAddr(l); ok {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// peekVector reads the state doubles at addrs into dst without
// perturbing the machine, growing dst as needed.
func peekVector(dst []float64, vm *cpu.CPU, addrs []uint32) []float64 {
	dst = dst[:0]
	for _, a := range addrs {
		dst = append(dst, math.Float64frombits(vm.PeekDoubleBits(a)))
	}
	return dst
}

// Collector is a passive workload.Monitor that gathers the golden
// per-iteration state series the automaton miner consumes. It never
// traps.
type Collector struct {
	addrs  []uint32
	Series [][]float64
}

// NewCollector creates a collector over the program's state doubles.
func NewCollector(prog *cpu.Program) *Collector {
	return &Collector{addrs: StateAddrs(prog)}
}

// OnInstr implements workload.Monitor.
func (c *Collector) OnInstr(int, uint64, *cpu.CPU) *cpu.TrapError {
	return nil
}

// OnIteration implements workload.Monitor.
func (c *Collector) OnIteration(_ int, vm *cpu.CPU) *cpu.TrapError {
	c.Series = append(c.Series, peekVector(nil, vm, c.addrs))
	return nil
}

// CanSkipPoll implements workload.IdleMonitor: a collector ignores
// instructions.
func (c *Collector) CanSkipPoll(uint32) bool { return true }

// SkipPoll implements workload.IdleMonitor.
func (c *Collector) SkipPoll(uint64) {}

// AutomatonMonitor evaluates a mined automaton in-loop: at every
// iteration boundary it reads the state doubles and validates the
// vector against the automaton; a violation traps with
// cpu.MechAutomaton. One monitor serves one run; the shared Automaton
// is read-only.
type AutomatonMonitor struct {
	addrs   []uint32
	checker *Checker
	vec     []float64 // peek buffer; Checker.Check copies what it keeps
}

// NewAutomatonMonitor creates a monitor evaluating a over the
// program's state doubles.
func NewAutomatonMonitor(prog *cpu.Program, a *Automaton) *AutomatonMonitor {
	return &AutomatonMonitor{addrs: StateAddrs(prog), checker: a.NewChecker()}
}

// OnInstr implements workload.Monitor.
func (m *AutomatonMonitor) OnInstr(int, uint64, *cpu.CPU) *cpu.TrapError {
	return nil
}

// OnIteration implements workload.Monitor.
func (m *AutomatonMonitor) OnIteration(_ int, vm *cpu.CPU) *cpu.TrapError {
	if len(m.addrs) == 0 {
		return nil
	}
	m.vec = peekVector(m.vec, vm, m.addrs)
	if info := m.checker.Check(m.vec); info != "" {
		return &cpu.TrapError{Mech: cpu.MechAutomaton, PC: vm.PC, Info: info}
	}
	return nil
}

// CanSkipPoll implements workload.IdleMonitor: the automaton checks
// only iteration boundaries.
func (m *AutomatonMonitor) CanSkipPoll(uint32) bool { return true }

// SkipPoll implements workload.IdleMonitor.
func (m *AutomatonMonitor) SkipPoll(uint64) {}

// MonitorState implements workload.StatefulMonitor: whether the
// checker is seeded, then the bits of its previous accepted vector.
func (m *AutomatonMonitor) MonitorState() (string, bool) {
	c := m.checker
	b := make([]byte, 1, 1+8*len(c.prev))
	if c.seeded {
		b[0] = 1
	}
	for _, v := range c.prev {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b), true
}

// RestoreMonitorState implements workload.StatefulMonitor.
func (m *AutomatonMonitor) RestoreMonitorState(s string) {
	c := m.checker
	c.seeded = s[0] == 1
	c.prev = c.prev[:0]
	for s = s[1:]; len(s) >= 8; s = s[8:] {
		c.prev = append(c.prev, math.Float64frombits(binary.LittleEndian.Uint64([]byte(s[:8]))))
	}
}

// Stack combines monitors: the first non-nil trap wins, in order.
type Stack []interface {
	OnInstr(iteration int, instr uint64, vm *cpu.CPU) *cpu.TrapError
	OnIteration(iteration int, vm *cpu.CPU) *cpu.TrapError
}

// stateful is workload.StatefulMonitor's state half, which CFMonitor,
// AutomatonMonitor and Stack implement.
type stateful interface {
	MonitorState() (string, bool)
	RestoreMonitorState(string)
}

// OnInstr implements workload.Monitor.
func (s Stack) OnInstr(iteration int, instr uint64, vm *cpu.CPU) *cpu.TrapError {
	for _, m := range s {
		if t := m.OnInstr(iteration, instr, vm); t != nil {
			return t
		}
	}
	return nil
}

// OnIteration implements workload.Monitor.
func (s Stack) OnIteration(iteration int, vm *cpu.CPU) *cpu.TrapError {
	for _, m := range s {
		if t := m.OnIteration(iteration, vm); t != nil {
			return t
		}
	}
	return nil
}

// idler is workload.IdleMonitor's own half, which every monitor of
// this package implements.
type idler interface {
	CanSkipPoll(pc uint32) bool
	SkipPoll(trips uint64)
}

// CanSkipPoll implements workload.IdleMonitor: every member must have
// the capability and accept.
func (s Stack) CanSkipPoll(pc uint32) bool {
	for _, m := range s {
		im, ok := m.(idler)
		if !ok || !im.CanSkipPoll(pc) {
			return false
		}
	}
	return true
}

// SkipPoll implements workload.IdleMonitor.
func (s Stack) SkipPoll(trips uint64) {
	for _, m := range s {
		m.(idler).SkipPoll(trips)
	}
}

// MonitorState implements workload.StatefulMonitor: each member's
// state in order, behind its two-byte length. It reports false when a
// member cannot report its state (a Collector).
func (s Stack) MonitorState() (string, bool) {
	var b []byte
	for _, m := range s {
		sm, ok := m.(stateful)
		if !ok {
			return "", false
		}
		st, ok := sm.MonitorState()
		if !ok || len(st) > math.MaxUint16 {
			return "", false
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(st)))
		b = append(b, st...)
	}
	return string(b), true
}

// RestoreMonitorState implements workload.StatefulMonitor.
func (s Stack) RestoreMonitorState(st string) {
	for _, m := range s {
		n := int(binary.LittleEndian.Uint16([]byte(st[:2])))
		m.(stateful).RestoreMonitorState(st[2 : 2+n])
		st = st[2+n:]
	}
}
