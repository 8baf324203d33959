package cpu

// Idle fast-forward. Every workload ends each control iteration in a
// ready-flag poll loop,
//
//	wait:  SIG
//	       LD   rd, imm(rb)
//	       CMP  rd, r0
//	       BEQ  wait
//
// which spins until the host signals the next sample period. The loop
// is most of every run's instructions, and while the polled word reads
// 0 each trip has the same net effect. FastForward applies whole trips
// at once, so a run spends time on the control computation rather than
// on the idling between data exchanges.

// PollBus is the optional IOBus capability behind FastForward.
type PollBus interface {
	IOBus

	// ReadZeros performs up to limit reads of the word at byte offset
	// off within the I/O window, stopping before the first read that
	// would return anything but 0, and reports how many it performed.
	// The bus must be left exactly as that many ReadIO calls would
	// leave it.
	ReadZeros(off uint32, limit uint64) uint64
}

// pollTrip is the number of instructions in one trip of a poll loop.
const pollTrip = 4

// markPollHeads flags every slot that heads a poll loop: the slots from
// it on are exactly SIG; LD rd, imm(rb); CMP rd, r0; BEQ <the SIG>, with
// rd neither r0 (the compare would ignore the load) nor rb (the load
// would move its own address).
func markPollHeads(ops *[CodeSize / 4]dop) {
	for i := 0; i+pollTrip <= len(ops); i++ {
		sig, ld, cmp, beq := &ops[i], &ops[i+1], &ops[i+2], &ops[i+3]
		ops[i].pollHead = sig.err == nil && sig.op == OpSig &&
			ld.err == nil && ld.op == OpLd && ld.rd != 0 && ld.rd != ld.rs1 &&
			cmp.err == nil && cmp.op == OpCmp && cmp.rs1 == ld.rd && cmp.rs2 == 0 &&
			beq.err == nil && beq.op == OpBeq && beq.jumpOK && uint32(beq.imm) == CodeBase+uint32(i)*4
	}
}

// JumpedToPollHead reports whether the last instruction was a taken
// jump that may have landed on the head of a poll loop FastForward can
// run. It is the cheap filter for a caller's step loop, one load for
// every instruction that did not jump: a poll loop is re-entered
// through its back edge on every trip, so a loop entered by falling
// through costs one stepped trip. FastForward itself re-checks
// everything, PC included.
func (c *CPU) JumpedToPollHead() bool {
	return c.lastJump && c.dec != nil && c.dec.ops[(c.PC-CodeBase)>>2%(CodeSize/4)].pollHead
}

// FastForward runs whole trips of the poll loop headed at PC while the
// polled word reads 0, at most limit instructions in all, and returns
// how many instructions it executed: a multiple of 4, 0 when it
// declines. The machine is left exactly as stepping those instructions
// one at a time would leave it (I/O is uncached, so the cache is
// untouched), and the bus as that many reads of the polled word would.
//
// It declines without a predecoded stream, away from a poll-loop head,
// when the polled address is not a legal load from the I/O window, when
// the bus lacks the PollBus capability, and when fewer than 4
// instructions are allowed.
func (c *CPU) FastForward(limit uint64) uint64 {
	d := c.dec
	if d == nil || c.halted || c.PC%4 != 0 || SegmentOf(c.PC) != SegCode {
		return 0
	}
	i := (c.PC - CodeBase) >> 2
	if !d.ops[i].pollHead {
		return 0
	}
	ld := &d.ops[i+1]
	addr := c.reg(ld.rs1) + ld.simm
	if c.checkDataAddr(addr, false) != nil || SegmentOf(addr) != SegIO {
		return 0
	}
	bus, ok := c.IO.(PollBus)
	if !ok {
		return 0
	}
	trips := bus.ReadZeros(addr-IOBase, limit/pollTrip)
	if trips == 0 {
		return 0
	}
	// The net effect of a trip that loads 0: the compare sets Z and
	// clears LT, and the taken BEQ lands back on the SIG.
	c.instrCount += pollTrip * trips
	c.setReg(ld.rd, 0)
	c.FlagZ = true
	c.FlagLT = false
	c.lastJump = true
	return pollTrip * trips
}
