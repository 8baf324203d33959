package detect

import (
	"encoding/binary"
	"fmt"

	"ctrlguard/internal/cpu"
)

// CFMonitor is the runtime half of signature monitoring: it watches
// every fetched instruction, verifies that execution flows sequentially
// inside basic blocks and only crosses blocks along the static graph's
// edges, and checks each completed block's accumulated instruction
// signature against the expected one. Violations trap with
// cpu.MechSignature. One monitor serves one run; the shared BlockGraph
// is read-only.
type CFMonitor struct {
	g      *BlockGraph
	prev   int // code index of the previously fetched instruction, -1 at start
	runSig uint32

	// Entries counts the basic-block entries this monitor observed, the
	// unit of the overhead model (CFEOverhead). It is not part of the
	// monitor's state: a restored monitor counts from zero.
	Entries uint64
}

// NewCFMonitor creates a monitor over g.
func NewCFMonitor(g *BlockGraph) *CFMonitor {
	return &CFMonitor{g: g, prev: -1}
}

// OnInstr implements workload.Monitor.
func (m *CFMonitor) OnInstr(_ int, _ uint64, vm *cpu.CPU) *cpu.TrapError {
	pc := vm.PC
	if pc%4 != 0 || cpu.SegmentOf(pc) != cpu.SegCode {
		// The CPU's own fetch check traps this before executing.
		return nil
	}
	idx := int((pc - cpu.CodeBase) / 4)
	if idx >= m.g.Instructions() {
		return m.trap(pc, "fetch beyond the program's last instruction")
	}

	b := m.g.blockOf[idx]
	switch {
	case m.prev < 0:
		// First instruction of the run: must be the entry point.
		if idx != 0 {
			return m.trap(pc, "execution did not start at the entry block")
		}
		m.enter(vm, idx)
	case m.prev+1 == idx && m.g.blockOf[m.prev] == b:
		// Sequential flow inside the current block.
		m.runSig ^= vm.Mem.ReadWord(pc)
	case idx == m.g.blocks[b].Start:
		// Crossing into a block: legal only from the end of a block
		// along a static edge.
		pb := m.g.blockOf[m.prev]
		if m.prev != m.g.blocks[pb].End-1 {
			return m.trap(pc, fmt.Sprintf("control left block %d before its last instruction", pb))
		}
		if !m.g.isEdge(pb, b) {
			return m.trap(pc, fmt.Sprintf("illegal transition block %d -> block %d", pb, b))
		}
		m.enter(vm, idx)
	default:
		return m.trap(pc, fmt.Sprintf("jump into the middle of block %d", b))
	}

	// Completed the block's last instruction: the accumulated
	// signature must match the static one.
	if idx == m.g.blocks[b].End-1 && m.runSig != m.g.sig[b] {
		return m.trap(pc, fmt.Sprintf("signature mismatch in block %d", b))
	}
	m.prev = idx
	return nil
}

// OnIteration implements workload.Monitor; signature monitoring is
// purely per-instruction.
func (m *CFMonitor) OnIteration(int, *cpu.CPU) *cpu.TrapError {
	return nil
}

// CanSkipPoll implements workload.IdleMonitor. It accepts only when the
// monitor has just followed the back edge of the one-block poll loop
// headed at pc: the previous instruction is the loop's BEQ, the block
// is exactly the loop's four instructions, its self-edge is legal and
// the running signature is the block's. Code is immutable, so every
// further trip enters the block once, matches its signature and
// leaves this state as it found it.
func (m *CFMonitor) CanSkipPoll(pc uint32) bool {
	if pc%4 != 0 || cpu.SegmentOf(pc) != cpu.SegCode {
		return false
	}
	// prev only ever holds an index OnInstr checked, so idx is one too.
	idx := int((pc - cpu.CodeBase) / 4)
	if m.prev != idx+cpu.PollTrip-1 {
		return false
	}
	b := m.g.blockOf[idx]
	return m.g.blocks[b] == Block{Start: idx, End: idx + cpu.PollTrip} &&
		m.g.isEdge(b, b) && m.runSig == m.g.sig[b]
}

// SkipPoll implements workload.IdleMonitor: each trip is one block
// entry.
func (m *CFMonitor) SkipPoll(trips uint64) {
	m.Entries += trips
}

// MonitorState implements workload.StatefulMonitor: the previously
// fetched code index and the running block signature.
func (m *CFMonitor) MonitorState() (string, bool) {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, 8), uint32(int32(m.prev)))
	return string(binary.LittleEndian.AppendUint32(b, m.runSig)), true
}

// RestoreMonitorState implements workload.StatefulMonitor.
func (m *CFMonitor) RestoreMonitorState(s string) {
	b := []byte(s)
	m.prev = int(int32(binary.LittleEndian.Uint32(b)))
	m.runSig = binary.LittleEndian.Uint32(b[4:])
}

func (m *CFMonitor) enter(vm *cpu.CPU, idx int) {
	m.Entries++
	m.runSig = vm.Mem.ReadWord(cpu.CodeBase + uint32(idx*4))
}

func (m *CFMonitor) trap(pc uint32, info string) *cpu.TrapError {
	return &cpu.TrapError{Mech: cpu.MechSignature, PC: pc, Info: info}
}
