package cpu

import (
	"errors"
	"fmt"
	"math"
)

// IOBus is the host side of the memory-mapped I/O window. The workload
// harness implements it to exchange sensor and actuator values with the
// environment simulator, like the paper's data exchange between target
// system and host.
type IOBus interface {
	// ReadIO returns the word at byte offset off within the I/O
	// window.
	ReadIO(off uint32) uint32

	// WriteIO stores the word at byte offset off within the I/O
	// window.
	WriteIO(off uint32, v uint32)
}

// ErrHalted is returned by Step and Run after the CPU executed HALT.
var ErrHalted = errors.New("cpu: halted")

// SPReg is the register conventionally holding the stack pointer; data
// accesses into the stack segment below it raise STORAGE ERROR.
const SPReg = 14

// CPU is the simulated processor.
type CPU struct {
	// Architectural state — the fault-injection targets.
	Regs   [16]uint32 // r0 reads as zero; r1..r15 injectable
	PC     uint32
	FlagZ  bool // last compare: equal
	FlagLT bool // last compare: less than

	Mem   *Memory
	Cache *Cache
	IO    IOBus

	instrCount uint64
	lastJump   bool // previous instruction transferred control
	halted     bool
	ioStore    bool // an instruction stored to the I/O window since Run began

	// dec, when non-nil, is the predecoded instruction stream Step
	// dispatches from instead of decoding the fetched word — see
	// AttachDecoded. Behaviour is identical either way.
	dec *Decoded
}

// New creates a CPU with the given program image loaded: code at
// CodeBase, data at DataBase, PC at CodeBase, SP at the stack top.
func New(p *Program, io IOBus) *CPU {
	c := &CPU{
		Mem:   NewMemory(),
		Cache: NewCache(),
		IO:    io,
	}
	for i, w := range p.Code {
		c.Mem.WriteWord(CodeBase+uint32(i*4), w)
	}
	for i, w := range p.Data {
		c.Mem.WriteWord(DataBase+uint32(i*4), w)
	}
	c.PC = CodeBase
	c.Regs[SPReg] = StackBase + StackSize
	return c
}

// InstrCount returns the number of instructions executed so far; the
// campaign uses it as the fault-injection time base, mirroring the
// paper's sampling over the points in time instructions begin
// execution.
func (c *CPU) InstrCount() uint64 {
	return c.instrCount
}

// Halted reports whether HALT has been executed.
func (c *CPU) Halted() bool {
	return c.halted
}

// reg reads a register; r0 is hardwired to zero.
func (c *CPU) reg(i int) uint32 {
	if i == 0 {
		return 0
	}
	return c.Regs[i]
}

// setReg writes a register; writes to r0 are discarded.
func (c *CPU) setReg(i int, v uint32) {
	if i != 0 {
		c.Regs[i] = v
	}
}

// Step executes one instruction. It returns nil on success, ErrHalted
// when the CPU has halted, or a *TrapError when an error-detection
// mechanism fires. After a trap the CPU must not be stepped again.
// Step is the entry point of runs whose caller must see every
// instruction (observers, monitors, the transient fault window); Run
// executes straight-line stretches through the same step.
func (c *CPU) Step() error {
	return c.step()
}

// Run executes up to limit instructions, exactly as that many Step
// calls would, and reports how many completed. It returns early, with
// a nil error, right after an instruction that stored to the I/O
// window (the host may have to answer it), after HALT, and after a
// taken jump onto a poll-loop head (see JumpedToPollHead), so the
// caller can fast-forward the idle loop. A trap or ErrHalted ends it
// too: the error is what the failing Step would have returned, and the
// count excludes that instruction.
func (c *CPU) Run(limit uint64) (uint64, error) {
	c.ioStore = false
	for n := uint64(0); n < limit; {
		if err := c.step(); err != nil {
			return n, err
		}
		n++
		if c.ioStore || c.halted || c.JumpedToPollHead() {
			return n, nil
		}
	}
	return limit, nil
}

// step fetches and executes one instruction: the one body behind Step
// and Run, with the interpreted and the predecoded front ends feeding
// the same back half.
func (c *CPU) step() error {
	if c.halted {
		return ErrHalted
	}

	// Instruction fetch. A PC outside the code segment (for example
	// after a bit-flip in the PC itself) is a jump error.
	if c.PC%4 != 0 || SegmentOf(c.PC) != SegCode {
		return &TrapError{Mech: MechJumpError, PC: c.PC, Info: "instruction fetch outside code segment"}
	}
	var in *dop
	if d := c.dec; d != nil {
		// Predecoded dispatch: the code segment is immutable after
		// load (verified by AttachDecoded), so the slot at PC is
		// exactly what fetching and decoding the word would yield —
		// including the INSTRUCTION ERROR for undecodable words.
		in = &d.ops[(c.PC-CodeBase)>>2]
		if in.err != nil {
			return &TrapError{Mech: MechInstrError, PC: c.PC, Info: in.err.Error()}
		}
	} else {
		ins, err := Decode(c.Mem.ReadWord(c.PC))
		if err != nil {
			return &TrapError{Mech: MechInstrError, PC: c.PC, Info: err.Error()}
		}
		slot := compile(ins)
		in = &slot
	}

	// Control-flow checking: every control transfer must land on a
	// SIG landing pad.
	if c.lastJump && in.op != OpSig {
		c.lastJump = false
		return &TrapError{Mech: MechControlFlow, PC: c.PC, Info: "control transfer to non-SIG instruction"}
	}
	c.lastJump = false

	c.instrCount++
	nextPC := c.PC + 4

	switch in.op {
	case OpNop, OpSig:
		// no effect

	case OpHalt:
		c.halted = true

	case OpFail:
		return &TrapError{Mech: MechConstraint, PC: c.PC, Info: "software run-time assertion"}

	case OpMovi:
		c.setReg(in.rd, in.simm)

	case OpMovu:
		c.setReg(in.rd, uint32(in.imm)<<16)

	case OpAdd, OpSub, OpAddi:
		a := int64(int32(c.reg(in.rs1)))
		var b int64
		if in.op == OpAddi {
			b = int64(int32(in.simm))
		} else {
			b = int64(int32(c.reg(in.rs2)))
		}
		if in.op == OpSub {
			b = -b
		}
		sum := a + b
		if sum > math.MaxInt32 || sum < math.MinInt32 {
			return &TrapError{Mech: MechOverflow, PC: c.PC, Info: "signed integer overflow"}
		}
		c.setReg(in.rd, uint32(int32(sum)))

	case OpOri:
		c.setReg(in.rd, c.reg(in.rs1)|uint32(in.imm))

	case OpAnd:
		c.setReg(in.rd, c.reg(in.rs1)&c.reg(in.rs2))
	case OpOr:
		c.setReg(in.rd, c.reg(in.rs1)|c.reg(in.rs2))
	case OpXor:
		c.setReg(in.rd, c.reg(in.rs1)^c.reg(in.rs2))

	case OpCmp:
		a, b := int32(c.reg(in.rs1)), int32(c.reg(in.rs2))
		c.FlagZ = a == b
		c.FlagLT = a < b

	case OpLd:
		addr := c.reg(in.rs1) + in.simm
		v, trap := c.load(addr)
		if trap != nil {
			trap.PC = c.PC
			return trap
		}
		c.setReg(in.rd, v)

	case OpSt:
		addr := c.reg(in.rs1) + in.simm
		if trap := c.store(addr, c.reg(in.rd)); trap != nil {
			trap.PC = c.PC
			return trap
		}

	case OpFadd, OpFsub, OpFmul, OpFdiv:
		v, trap := c.floatOp(in.op, c.reg(in.rs1), c.reg(in.rs2))
		if trap != nil {
			trap.PC = c.PC
			return trap
		}
		c.setReg(in.rd, v)

	case OpFcmp:
		a := math.Float32frombits(c.reg(in.rs1))
		b := math.Float32frombits(c.reg(in.rs2))
		if isNaN32(a) || isNaN32(b) {
			return &TrapError{Mech: MechIllegalOp, PC: c.PC, Info: "unordered float compare"}
		}
		c.FlagZ = a == b
		c.FlagLT = a < b

	case OpFaddd, OpFsubd, OpFmuld, OpFdivd:
		if err := checkPair(in.rd, in.rs1, in.rs2); err != nil {
			return &TrapError{Mech: MechInstrError, PC: c.PC, Info: err.Error()}
		}
		v, trap := c.floatOp64(in.op, c.regPair(in.rs1), c.regPair(in.rs2))
		if trap != nil {
			trap.PC = c.PC
			return trap
		}
		c.setRegPair(in.rd, v)

	case OpFcmpd:
		if err := checkPair(in.rs1, in.rs2); err != nil {
			return &TrapError{Mech: MechInstrError, PC: c.PC, Info: err.Error()}
		}
		a := math.Float64frombits(c.regPair(in.rs1))
		b := math.Float64frombits(c.regPair(in.rs2))
		if math.IsNaN(a) || math.IsNaN(b) {
			return &TrapError{Mech: MechIllegalOp, PC: c.PC, Info: "unordered double compare"}
		}
		c.FlagZ = a == b
		c.FlagLT = a < b

	case OpBeq, OpBne, OpBlt, OpBge, OpBgt, OpBle:
		if c.branchTaken(in.op) {
			if !in.jumpOK {
				return c.checkJumpTarget(uint32(in.imm))
			}
			nextPC = uint32(in.imm)
			c.lastJump = true
		}

	case OpJmp:
		if !in.jumpOK {
			return c.checkJumpTarget(uint32(in.imm))
		}
		nextPC = uint32(in.imm)
		c.lastJump = true

	case OpCall:
		if !in.jumpOK {
			return c.checkJumpTarget(uint32(in.imm))
		}
		c.setReg(15, c.PC+4)
		nextPC = uint32(in.imm)
		c.lastJump = true

	case OpRet:
		target := c.reg(15)
		if trap := c.checkJumpTarget(target); trap != nil {
			return trap
		}
		nextPC = target
		c.lastJump = true
	}

	c.PC = nextPC
	return nil
}

func (c *CPU) branchTaken(op Opcode) bool {
	switch op {
	case OpBeq:
		return c.FlagZ
	case OpBne:
		return !c.FlagZ
	case OpBlt:
		return c.FlagLT
	case OpBge:
		return !c.FlagLT
	case OpBgt:
		return !c.FlagLT && !c.FlagZ
	case OpBle:
		return c.FlagLT || c.FlagZ
	default:
		return false
	}
}

func (c *CPU) checkJumpTarget(target uint32) *TrapError {
	if target%4 != 0 || SegmentOf(target) != SegCode {
		return &TrapError{Mech: MechJumpError, PC: c.PC, Addr: target,
			Info: "jump, call or return target outside code segment"}
	}
	return nil
}

// load performs a data load with the full EDM checks.
func (c *CPU) load(addr uint32) (uint32, *TrapError) {
	if trap := c.checkDataAddr(addr, false); trap != nil {
		return 0, trap
	}
	switch SegmentOf(addr) {
	case SegIO:
		return c.IO.ReadIO(addr - IOBase), nil
	case SegStack:
		return c.Mem.ReadWord(addr), nil
	default: // SegData
		return c.Cache.ReadWord(addr, c.Mem)
	}
}

// store performs a data store with the full EDM checks.
func (c *CPU) store(addr uint32, v uint32) *TrapError {
	if trap := c.checkDataAddr(addr, true); trap != nil {
		return trap
	}
	switch SegmentOf(addr) {
	case SegIO:
		c.IO.WriteIO(addr-IOBase, v)
		c.ioStore = true
		return nil
	case SegStack:
		c.Mem.WriteWord(addr, v)
		return nil
	default: // SegData
		return c.Cache.WriteWord(addr, v, c.Mem)
	}
}

// checkDataAddr applies ACCESS CHECK, alignment, segment protection and
// the storage (stack-bounds) check.
func (c *CPU) checkDataAddr(addr uint32, _ bool) *TrapError {
	if addr < NullGuard {
		return &TrapError{Mech: MechAccessCheck, Addr: addr, Info: "null pointer dereference"}
	}
	if addr%4 != 0 {
		return &TrapError{Mech: MechAddressError, Addr: addr, Info: "misaligned access"}
	}
	switch SegmentOf(addr) {
	case SegCode:
		return &TrapError{Mech: MechAddressError, Addr: addr, Info: "data access to protected code segment"}
	case SegNone:
		return &TrapError{Mech: MechAddressError, Addr: addr, Info: "access to non-existing memory"}
	case SegStack:
		if addr < c.reg(SPReg) {
			return &TrapError{Mech: MechStorageError, Addr: addr, Info: "access outside the task's stack"}
		}
	}
	return nil
}

// floatOp executes single-precision arithmetic with Thor's float EDMs:
// illegal operation for NaN/infinite operands, overflow and underflow
// checks on the result, and the division check.
func (c *CPU) floatOp(op Opcode, ra, rb uint32) (uint32, *TrapError) {
	a := math.Float32frombits(ra)
	b := math.Float32frombits(rb)
	if isNaN32(a) || isNaN32(b) || isInf32(a) || isInf32(b) {
		return 0, &TrapError{Mech: MechIllegalOp, Info: "float operand is NaN or infinite"}
	}
	var r float32
	switch op {
	case OpFadd:
		r = a + b
	case OpFsub:
		r = a - b
	case OpFmul:
		r = a * b
	case OpFdiv:
		if b == 0 {
			return 0, &TrapError{Mech: MechDivision, Info: "float division by zero"}
		}
		r = a / b
	}
	if isInf32(r) {
		return 0, &TrapError{Mech: MechOverflow, Info: "float overflow"}
	}
	if isDenormal32(r) || (op == OpFmul && r == 0 && a != 0 && b != 0) {
		return 0, &TrapError{Mech: MechUnderflow, Info: "float underflow or denormalized result"}
	}
	return math.Float32bits(r), nil
}

// regPair reads the double-precision value held in the even/odd
// register pair starting at even register i: high word in r[i], low
// word in r[i+1].
func (c *CPU) regPair(i int) uint64 {
	return uint64(c.reg(i))<<32 | uint64(c.reg(i+1))
}

// setRegPair writes a double-precision value to the pair starting at i.
func (c *CPU) setRegPair(i int, v uint64) {
	c.setReg(i, uint32(v>>32))
	c.setReg(i+1, uint32(v))
}

// checkPair validates double-operand register numbers: each must be
// even so that (k, k+1) forms a pair.
func checkPair(regs ...int) error {
	for _, r := range regs {
		if r%2 != 0 {
			return fmt.Errorf("cpu: double operand register r%d is not even", r)
		}
	}
	return nil
}

// floatOp64 executes double-precision arithmetic with the same EDM
// rules as floatOp: illegal operation for NaN/infinite operands,
// overflow and underflow checks on the result, and the division check.
func (c *CPU) floatOp64(op Opcode, ra, rb uint64) (uint64, *TrapError) {
	a := math.Float64frombits(ra)
	b := math.Float64frombits(rb)
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return 0, &TrapError{Mech: MechIllegalOp, Info: "double operand is NaN or infinite"}
	}
	var r float64
	switch op {
	case OpFaddd:
		r = a + b
	case OpFsubd:
		r = a - b
	case OpFmuld:
		r = a * b
	case OpFdivd:
		if b == 0 {
			return 0, &TrapError{Mech: MechDivision, Info: "double division by zero"}
		}
		r = a / b
	}
	if math.IsInf(r, 0) {
		return 0, &TrapError{Mech: MechOverflow, Info: "double overflow"}
	}
	if isDenormal64(r) || (op == OpFmuld && r == 0 && a != 0 && b != 0) {
		return 0, &TrapError{Mech: MechUnderflow, Info: "double underflow or denormalized result"}
	}
	return math.Float64bits(r), nil
}

func isDenormal64(f float64) bool {
	if f == 0 {
		return false
	}
	exp := math.Float64bits(f) >> 52 & 0x7FF
	return exp == 0
}

func isNaN32(f float32) bool {
	return f != f
}

func isInf32(f float32) bool {
	return math.IsInf(float64(f), 0)
}

func isDenormal32(f float32) bool {
	if f == 0 {
		return false
	}
	exp := math.Float32bits(f) >> 23 & 0xFF
	return exp == 0
}
