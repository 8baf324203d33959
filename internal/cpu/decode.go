package cpu

// Predecoded instruction streams. The code segment is execute-only and
// immutable after load — data stores into SegCode trap ADDRESS ERROR
// and cache write-backs outside SegData trap too — so every word of a
// program can be decoded exactly once and the per-instruction
// fetch/decode work hoisted out of the campaign hot loop. A Decoded
// stream covers the whole code segment (not just the program's words):
// a PC fault can land execution on any aligned code address, and the
// predecoded slot there must behave exactly like Decode on the raw
// word, illegal-opcode trap included.

// dop is one predecoded slot: the Instr fields plus everything Step
// would otherwise recompute per execution — the sign-extended
// immediate, the static jump-target validity, and the decode error for
// words that do not decode.
type dop struct {
	op       Opcode
	rd       int
	rs1, rs2 int
	imm      uint16
	simm     uint32 // sign-extended immediate
	jumpOK   bool   // static branch/jump/call target is a legal code address
	pollHead bool   // heads a poll loop FastForward can run (see markPollHeads)
	err      error  // non-nil: executing this word raises INSTRUCTION ERROR
}

// compile lowers a decoded instruction into its executable slot.
func compile(in Instr) dop {
	s := dop{op: in.Op, rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2, imm: in.Imm, simm: signExt(in.Imm)}
	switch in.Op {
	case OpBeq, OpBne, OpBlt, OpBge, OpBgt, OpBle, OpJmp, OpCall:
		t := uint32(in.Imm)
		s.jumpOK = t%4 == 0 && SegmentOf(t) == SegCode
	}
	return s
}

// Decoded is a program compiled into a directly dispatchable slot per
// aligned code address. It is immutable after Predecode and safe to
// share across any number of CPUs and goroutines.
type Decoded struct {
	code []uint32          // the program's code words, for attach validation
	ops  [CodeSize / 4]dop // one slot per aligned code-segment address
}

// Predecode compiles prog's code segment into a decoded stream. Words
// beyond the program (the zero-filled remainder of the segment) decode
// to the same illegal-opcode slots executing them would produce.
func Predecode(prog *Program) *Decoded {
	d := &Decoded{code: append([]uint32(nil), prog.Code...)}
	for i := range d.ops {
		var w uint32
		if i < len(d.code) {
			w = d.code[i]
		}
		d.ops[i] = decodeSlot(w)
	}
	markPollHeads(&d.ops)
	return d
}

// decodeSlot compiles one code word, or records why it does not decode.
func decodeSlot(w uint32) dop {
	in, err := Decode(w)
	if err != nil {
		return dop{err: err}
	}
	return compile(in)
}

// patch returns a copy of d with code word i replaced by w: the stream
// Predecode builds for the patched image. A SWIFI code-image flip
// (CPU.flipWord) is the one write to a loaded code segment.
func (d *Decoded) patch(i int, w uint32) *Decoded {
	p := &Decoded{code: append([]uint32(nil), d.code...), ops: d.ops}
	for len(p.code) <= i {
		p.code = append(p.code, 0)
	}
	p.code[i] = w
	p.ops[i] = decodeSlot(w)
	markPollHeads(&p.ops)
	return p
}

// PredecodeCached returns prog's decoded stream, predecoding it on
// first use. The stream hangs off prog, so it is built once per program
// however many runs share it, and freed with the program.
func PredecodeCached(prog *Program) *Decoded {
	prog.decOnce.Do(func() { prog.dec = Predecode(prog) })
	return prog.dec
}

// Instr returns the decoded instruction at code index idx (the word at
// CodeBase + 4*idx), or the decode error Decode would return for it.
// Consumers like the pruner's def-use capture and the detector's
// block-graph derivation use this instead of re-decoding words.
func (d *Decoded) Instr(idx int) (Instr, error) {
	s := &d.ops[idx]
	if s.err != nil {
		return Instr{}, s.err
	}
	in := Instr{Op: s.op, Rd: s.rd, Rs1: s.rs1}
	switch s.op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpCmp, OpFadd, OpFsub, OpFmul, OpFdiv, OpFcmp,
		OpFaddd, OpFsubd, OpFmuld, OpFdivd, OpFcmpd:
		in.Rs2 = s.rs2
	default:
		in.Imm = s.imm
	}
	return in, nil
}

// Len returns the number of code words the source program has (the
// stream itself covers the whole code segment).
func (d *Decoded) Len() int {
	return len(d.code)
}

// AttachDecoded points the CPU's dispatch loop at the predecoded
// stream. It verifies the stream matches the machine's loaded code
// image word for word and reports whether it attached; on mismatch the
// CPU keeps interpreting, which is always behaviour-preserving. The
// check is what makes predecoding sound to apply from snapshots: a
// snapshot of a machine running prog necessarily carries prog's code
// segment (it is immutable), and anything else is rejected here.
func (c *CPU) AttachDecoded(d *Decoded) bool {
	if d == nil {
		c.dec = nil
		return false
	}
	for i, w := range d.code {
		if c.Mem.words[i] != w {
			return false
		}
	}
	for i := len(d.code); i < int(CodeSize/4); i++ {
		if c.Mem.words[i] != 0 {
			return false
		}
	}
	c.dec = d
	return true
}

// Interpreting reports whether the CPU decodes words on every Step
// (no predecoded stream attached). The interpreted path exists for
// cross-validation against the predecoded engine.
func (c *CPU) Interpreting() bool {
	return c.dec == nil
}

// CurrentInstr returns the instruction the CPU would execute next
// (the word at PC), without touching Decode when a predecoded stream
// is attached. The PC must be a legal aligned code address — which it
// always is when called from a run observer on a non-trapped machine.
func (c *CPU) CurrentInstr() (Instr, error) {
	if c.dec != nil && c.PC%4 == 0 && SegmentOf(c.PC) == SegCode {
		return c.dec.Instr(int((c.PC - CodeBase) / 4))
	}
	return Decode(c.Mem.ReadWord(c.PC))
}

// Clone returns an independent copy of the machine bound to io,
// carrying the attached decoded stream (the copy runs the same
// program). The copy's Snapshot equals the original's, cache hit/miss
// counters included — a workload.Cursor forks a lane per injection
// this way.
func (c *CPU) Clone(io IOBus) *CPU {
	cp := &CPU{
		Regs:       c.Regs,
		PC:         c.PC,
		FlagZ:      c.FlagZ,
		FlagLT:     c.FlagLT,
		Mem:        NewMemory(),
		Cache:      NewCache(),
		IO:         io,
		instrCount: c.instrCount,
		lastJump:   c.lastJump,
		halted:     c.halted,
		dec:        c.dec,
	}
	copy(cp.Mem.words[:], c.Mem.words[:])
	*cp.Cache = *c.Cache
	return cp
}
