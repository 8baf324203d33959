package cpu

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Program is an assembled program image: code and the initial data
// segment, plus the symbol tables for diagnostics and for locating
// variables in experiments. A Program carries its predecode memo, so
// share it by pointer and never copy it by value.
type Program struct {
	Code       []uint32
	Data       []uint32
	CodeLabels map[string]uint32 // label -> absolute code address
	DataLabels map[string]uint32 // label -> absolute data address

	decOnce sync.Once
	dec     *Decoded // PredecodeCached's memo
}

// DataAddr returns the absolute address of a data label.
func (p *Program) DataAddr(label string) (uint32, bool) {
	a, ok := p.DataLabels[label]
	return a, ok
}

// Assemble translates assembly source to a Program.
//
// Syntax:
//
//	; or # start a comment
//	.code / .data          switch section
//	label:                 define a label (own line or before stmt)
//	.word N  /  .float F   emit initialised data (data section)
//	MOVI r1, 123           immediates: decimal, 0x-hex, =label
//	LD r1, 8(r2)           memory operand: offset(reg)
//	LD r1, @x(r10)         @x = offset of data label x from DataBase
//	BEQ target             branch/jump targets are code labels
//
// Every branch, jump and call target must be a SIG instruction (the
// control-flow-checking landing pad); Assemble rejects programs that
// violate this.
func Assemble(src string) (*Program, error) {
	a := &assembler{
		codeLabels: make(map[string]uint32),
		dataLabels: make(map[string]uint32),
	}
	if err := a.firstPass(src); err != nil {
		return nil, err
	}
	if err := a.secondPass(src); err != nil {
		return nil, err
	}
	if err := a.checkLandingPads(); err != nil {
		return nil, err
	}
	return &Program{
		Code:       a.code,
		Data:       a.data,
		CodeLabels: a.codeLabels,
		DataLabels: a.dataLabels,
	}, nil
}

// MustAssemble is Assemble for known-good embedded sources; it panics
// on error, which can only happen from a programming mistake in this
// repository.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

type assembler struct {
	code       []uint32
	data       []uint32
	codeLabels map[string]uint32
	dataLabels map[string]uint32

	// jumpTargets records (source line, target address) of every
	// control transfer for the landing-pad validation.
	jumpTargets []jumpRef
}

type jumpRef struct {
	line int
	addr uint32
}

type stmt struct {
	line    int
	label   string
	mnem    string
	args    []string
	section string // "code" or "data" at time of statement
}

func parseLines(src string) ([]stmt, error) {
	var out []stmt
	section := "code"
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		if idx := strings.IndexAny(line, ";#"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}

		var label string
		if idx := strings.Index(line, ":"); idx >= 0 && !strings.ContainsAny(line[:idx], " \t") {
			label = line[:idx]
			line = strings.TrimSpace(line[idx+1:])
		}

		switch strings.ToLower(line) {
		case ".code":
			section = "code"
			if label != "" {
				return nil, fmt.Errorf("asm line %d: label on section directive", i+1)
			}
			continue
		case ".data":
			section = "data"
			if label != "" {
				return nil, fmt.Errorf("asm line %d: label on section directive", i+1)
			}
			continue
		}

		s := stmt{line: i + 1, label: label, section: section}
		if line != "" {
			fields := strings.SplitN(line, " ", 2)
			s.mnem = strings.ToUpper(strings.TrimSpace(fields[0]))
			if len(fields) > 1 {
				for _, arg := range strings.Split(fields[1], ",") {
					s.args = append(s.args, strings.TrimSpace(arg))
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func (a *assembler) firstPass(src string) error {
	stmts, err := parseLines(src)
	if err != nil {
		return err
	}
	var codePos, dataPos uint32
	for _, s := range stmts {
		if s.label != "" {
			if s.section == "code" {
				if _, dup := a.codeLabels[s.label]; dup {
					return fmt.Errorf("asm line %d: duplicate label %q", s.line, s.label)
				}
				a.codeLabels[s.label] = CodeBase + codePos
			} else {
				if _, dup := a.dataLabels[s.label]; dup {
					return fmt.Errorf("asm line %d: duplicate label %q", s.line, s.label)
				}
				a.dataLabels[s.label] = DataBase + dataPos
			}
		}
		if s.mnem == "" {
			continue
		}
		if s.section == "code" {
			switch s.mnem {
			case "FMOV":
				codePos += 8 // pseudo-instruction: MOVU + ORI
			case "FMOVD":
				codePos += 16 // pseudo-instruction: two MOVU + ORI pairs
			default:
				codePos += 4
			}
		} else if s.mnem == ".DOUBLE" {
			dataPos += 8
		} else {
			dataPos += 4
		}
	}
	if codePos > CodeSize {
		return fmt.Errorf("asm: code segment overflow (%d bytes)", codePos)
	}
	if dataPos > DataSize {
		return fmt.Errorf("asm: data segment overflow (%d bytes)", dataPos)
	}
	return nil
}

func (a *assembler) secondPass(src string) error {
	stmts, _ := parseLines(src)
	for _, s := range stmts {
		if s.mnem == "" {
			continue
		}
		if s.section == "data" {
			words, err := a.dataWords(s)
			if err != nil {
				return err
			}
			a.data = append(a.data, words...)
			continue
		}
		if s.mnem == "FMOV" || s.mnem == "FMOVD" {
			words, err := a.fmov(s)
			if err != nil {
				return err
			}
			a.code = append(a.code, words...)
			continue
		}
		in, err := a.instruction(s)
		if err != nil {
			return err
		}
		a.code = append(a.code, in.Encode())
	}
	return nil
}

func (a *assembler) dataWords(s stmt) ([]uint32, error) {
	if len(s.args) != 1 {
		return nil, fmt.Errorf("asm line %d: %s needs one operand", s.line, s.mnem)
	}
	switch s.mnem {
	case ".WORD":
		v, err := strconv.ParseInt(s.args[0], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("asm line %d: bad integer %q", s.line, s.args[0])
		}
		return []uint32{uint32(int32(v))}, nil
	case ".FLOAT":
		f, err := strconv.ParseFloat(s.args[0], 32)
		if err != nil {
			return nil, fmt.Errorf("asm line %d: bad float %q", s.line, s.args[0])
		}
		return []uint32{math.Float32bits(float32(f))}, nil
	case ".DOUBLE":
		f, err := strconv.ParseFloat(s.args[0], 64)
		if err != nil {
			return nil, fmt.Errorf("asm line %d: bad double %q", s.line, s.args[0])
		}
		bits := math.Float64bits(f)
		return []uint32{uint32(bits >> 32), uint32(bits)}, nil
	default:
		return nil, fmt.Errorf("asm line %d: unknown data directive %q", s.line, s.mnem)
	}
}

var mnemonics = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

func (a *assembler) instruction(s stmt) (Instr, error) {
	op, ok := mnemonics[s.mnem]
	if !ok {
		return Instr{}, fmt.Errorf("asm line %d: unknown mnemonic %q", s.line, s.mnem)
	}
	in := Instr{Op: op}
	need := func(n int) error {
		if len(s.args) != n {
			return fmt.Errorf("asm line %d: %s needs %d operands, got %d", s.line, s.mnem, n, len(s.args))
		}
		return nil
	}
	var err error
	switch op {
	case OpNop, OpHalt, OpRet, OpSig, OpFail:
		err = need(0)

	case OpMovi, OpMovu:
		if err = need(2); err == nil {
			if in.Rd, err = parseReg(s, s.args[0]); err == nil {
				in.Imm, err = a.parseImm(s, s.args[1])
			}
		}

	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpFadd, OpFsub, OpFmul, OpFdiv,
		OpFaddd, OpFsubd, OpFmuld, OpFdivd:
		if err = need(3); err == nil {
			if in.Rd, err = parseReg(s, s.args[0]); err == nil {
				if in.Rs1, err = parseReg(s, s.args[1]); err == nil {
					in.Rs2, err = parseReg(s, s.args[2])
				}
			}
		}

	case OpAddi, OpOri:
		if err = need(3); err == nil {
			if in.Rd, err = parseReg(s, s.args[0]); err == nil {
				if in.Rs1, err = parseReg(s, s.args[1]); err == nil {
					in.Imm, err = a.parseImm(s, s.args[2])
				}
			}
		}

	case OpCmp, OpFcmp, OpFcmpd:
		if err = need(2); err == nil {
			if in.Rs1, err = parseReg(s, s.args[0]); err == nil {
				in.Rs2, err = parseReg(s, s.args[1])
			}
		}

	case OpLd, OpSt:
		if err = need(2); err == nil {
			if in.Rd, err = parseReg(s, s.args[0]); err == nil {
				in.Imm, in.Rs1, err = a.parseMem(s, s.args[1])
			}
		}

	case OpBeq, OpBne, OpBlt, OpBge, OpBgt, OpBle, OpJmp, OpCall:
		if err = need(1); err == nil {
			addr, ok := a.codeLabels[s.args[0]]
			if !ok {
				err = fmt.Errorf("asm line %d: undefined code label %q", s.line, s.args[0])
				break
			}
			in.Imm = uint16(addr)
			a.jumpTargets = append(a.jumpTargets, jumpRef{line: s.line, addr: addr})
		}

	default:
		err = fmt.Errorf("asm line %d: no operand rule for %s", s.line, s.mnem)
	}
	return in, err
}

// fmov expands the FMOV rd, <float32-literal> pseudo-instruction into
// MOVU rd, hi16 followed by ORI rd, rd, lo16, and FMOVD rd,
// <float64-literal> into two such pairs filling the even/odd register
// pair (rd, rd+1). They let programs build float constants in protected
// code instead of injectable data memory, mirroring compiled-in Ada
// literals.
func (a *assembler) fmov(s stmt) ([]uint32, error) {
	if len(s.args) != 2 {
		return nil, fmt.Errorf("asm line %d: %s needs rd, floatLiteral", s.line, s.mnem)
	}
	rd, err := parseReg(s, s.args[0])
	if err != nil {
		return nil, err
	}
	if s.mnem == "FMOV" {
		f, err := strconv.ParseFloat(s.args[1], 32)
		if err != nil {
			return nil, fmt.Errorf("asm line %d: bad float literal %q", s.line, s.args[1])
		}
		bits := math.Float32bits(float32(f))
		return []uint32{
			Instr{Op: OpMovu, Rd: rd, Imm: uint16(bits >> 16)}.Encode(),
			Instr{Op: OpOri, Rd: rd, Rs1: rd, Imm: uint16(bits)}.Encode(),
		}, nil
	}
	if rd%2 != 0 || rd > 14 {
		return nil, fmt.Errorf("asm line %d: FMOVD needs an even register pair, got r%d", s.line, rd)
	}
	f, err := strconv.ParseFloat(s.args[1], 64)
	if err != nil {
		return nil, fmt.Errorf("asm line %d: bad double literal %q", s.line, s.args[1])
	}
	bits := math.Float64bits(f)
	hi, lo := uint32(bits>>32), uint32(bits)
	return []uint32{
		Instr{Op: OpMovu, Rd: rd, Imm: uint16(hi >> 16)}.Encode(),
		Instr{Op: OpOri, Rd: rd, Rs1: rd, Imm: uint16(hi)}.Encode(),
		Instr{Op: OpMovu, Rd: rd + 1, Imm: uint16(lo >> 16)}.Encode(),
		Instr{Op: OpOri, Rd: rd + 1, Rs1: rd + 1, Imm: uint16(lo)}.Encode(),
	}, nil
}

func parseReg(s stmt, tok string) (int, error) {
	tok = strings.ToLower(tok)
	if !strings.HasPrefix(tok, "r") {
		return 0, fmt.Errorf("asm line %d: expected register, got %q", s.line, tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n > 15 {
		return 0, fmt.Errorf("asm line %d: bad register %q", s.line, tok)
	}
	return n, nil
}

// parseImm handles decimal/hex literals, =label (absolute address of a
// code or data label) and @label or @label+N (offset of a data label
// from DataBase, plus an optional byte displacement for the low word of
// a double).
func (a *assembler) parseImm(s stmt, tok string) (uint16, error) {
	switch {
	case strings.HasPrefix(tok, "="):
		name := tok[1:]
		if addr, ok := a.dataLabels[name]; ok {
			return uint16(addr), nil
		}
		if addr, ok := a.codeLabels[name]; ok {
			return uint16(addr), nil
		}
		return 0, fmt.Errorf("asm line %d: undefined label %q", s.line, name)
	case strings.HasPrefix(tok, "@"):
		name := tok[1:]
		disp := uint32(0)
		if plus := strings.Index(name, "+"); plus >= 0 {
			d, err := strconv.ParseUint(name[plus+1:], 0, 16)
			if err != nil {
				return 0, fmt.Errorf("asm line %d: bad displacement in %q", s.line, tok)
			}
			disp = uint32(d)
			name = name[:plus]
		}
		addr, ok := a.dataLabels[name]
		if !ok {
			return 0, fmt.Errorf("asm line %d: undefined data label %q", s.line, name)
		}
		return uint16(addr - DataBase + disp), nil
	default:
		v, err := strconv.ParseInt(tok, 0, 64)
		if err != nil {
			return 0, fmt.Errorf("asm line %d: bad immediate %q", s.line, tok)
		}
		if v < math.MinInt16 || v > math.MaxUint16 {
			return 0, fmt.Errorf("asm line %d: immediate %d out of 16-bit range", s.line, v)
		}
		return uint16(v), nil
	}
}

// parseMem parses offset(reg) memory operands.
func (a *assembler) parseMem(s stmt, tok string) (uint16, int, error) {
	open := strings.Index(tok, "(")
	if open < 0 || !strings.HasSuffix(tok, ")") {
		return 0, 0, fmt.Errorf("asm line %d: expected offset(reg), got %q", s.line, tok)
	}
	imm, err := a.parseImm(s, tok[:open])
	if err != nil {
		return 0, 0, err
	}
	reg, err := parseReg(s, tok[open+1:len(tok)-1])
	if err != nil {
		return 0, 0, err
	}
	return imm, reg, nil
}

// checkLandingPads verifies that every control transfer lands on SIG.
func (a *assembler) checkLandingPads() error {
	for _, ref := range a.jumpTargets {
		idx := (ref.addr - CodeBase) / 4
		if int(idx) >= len(a.code) {
			return fmt.Errorf("asm line %d: jump target %#x beyond code", ref.line, ref.addr)
		}
		if Opcode(a.code[idx]>>24) != OpSig {
			return fmt.Errorf("asm line %d: jump target %#x is not a SIG landing pad", ref.line, ref.addr)
		}
	}
	return nil
}
