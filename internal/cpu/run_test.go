package cpu_test

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// ioCall is one access the CPU made to the I/O window.
type ioCall struct {
	write  bool
	off, v uint32
}

// recBus is an IOBus that records every access. Its reads are a
// deterministic function of the offset and of how many reads came
// before, so two machines that make the same accesses see the same
// values. Words at offsets 8k read as high words of moderate doubles,
// keeping the workload programs' inputs in range; words at 8k+4 read 0
// or 1, low words of those doubles and ready flags that keep a poll
// loop spinning half the time.
type recBus struct {
	seed  uint64
	calls []ioCall
	reads uint64
}

// moderateHi holds the high words of 1024, 1000, -10 and 1.5.
var moderateHi = []uint32{0x40900000, 0x408F4000, 0xC0240000, 0x3FF80000}

func (b *recBus) ReadIO(off uint32) uint32 {
	b.reads++
	x := (b.seed + b.reads) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	v := uint32(x>>40) & 1
	if off%8 == 0 {
		v = moderateHi[x%uint64(len(moderateHi))]
	}
	b.calls = append(b.calls, ioCall{off: off, v: v})
	return v
}

func (b *recBus) WriteIO(off, v uint32) {
	b.calls = append(b.calls, ioCall{write: true, off: off, v: v})
}

// wroteSince reports whether any access from call index mark on was a
// store.
func (b *recBus) wroteSince(mark int) bool {
	for _, c := range b.calls[mark:] {
		if c.write {
			return true
		}
	}
	return false
}

// pair is the same program loaded twice: run advances through
// cpu.CPU.Run, step through single Steps.
type pair struct {
	run, step       *cpu.CPU
	runBus, stepBus *recBus
}

func newPair(prog *cpu.Program, decoded bool, seed uint64, regs [16]uint32) *pair {
	p := &pair{runBus: &recBus{seed: seed}, stepBus: &recBus{seed: seed}}
	p.run = cpu.New(prog, p.runBus)
	p.step = cpu.New(prog, p.stepBus)
	for _, c := range []*cpu.CPU{p.run, p.step} {
		for i := 1; i < 16; i++ {
			if i != cpu.SPReg && regs[i] != 0 {
				c.Regs[i] = regs[i]
			}
		}
		if decoded && !c.AttachDecoded(cpu.Predecode(prog)) {
			panic("AttachDecoded rejected the machine's own program")
		}
	}
	return p
}

// Why Run stopped.
const (
	stopLimit = iota
	stopIOStore
	stopHalt
	stopPollHead
	stopError
	numStops
)

// advance calls Run(limit) on one machine and steps the other to where
// Run must have stopped: after limit instructions, after an instruction
// that stored to the I/O window, after HALT or a taken jump onto a poll
// head, or at an error. It fails the test unless both machines then
// agree on the count, the error and every bit of state, and reports why
// Run stopped.
func (p *pair) advance(t *testing.T, limit uint64) int {
	t.Helper()
	before := len(p.runBus.calls)
	n, runErr := p.run.Run(limit)
	var want uint64
	var stepErr error
	why := stopLimit
	for want < limit {
		mark := len(p.stepBus.calls)
		if stepErr = p.step.Step(); stepErr != nil {
			why = stopError
			break
		}
		want++
		if p.stepBus.wroteSince(mark) {
			why = stopIOStore
		} else if p.step.Halted() {
			why = stopHalt
		} else if p.step.JumpedToPollHead() {
			why = stopPollHead
		}
		if why != stopLimit {
			break
		}
	}
	if n != want {
		t.Fatalf("Run(%d) stopped after %d instructions, stepping stops after %d", limit, n, want)
	}
	if !sameErr(runErr, stepErr) {
		t.Fatalf("Run(%d) error %v, Step error %v", limit, runErr, stepErr)
	}
	if p.run.InstrCount() != p.step.InstrCount() {
		t.Fatalf("InstrCount %d after Run, %d after stepping", p.run.InstrCount(), p.step.InstrCount())
	}
	a, b := p.run.Snapshot(), p.step.Snapshot()
	if !slices.Equal(a.Mem, b.Mem) {
		t.Fatalf("Run(%d) left different memory than stepping", limit)
	}
	a.Mem, b.Mem = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Run(%d) left a different machine state than stepping", limit)
	}
	if !slices.Equal(p.runBus.calls[before:], p.stepBus.calls[before:]) {
		t.Fatalf("Run(%d) made a different I/O call sequence than stepping", limit)
	}
	return why
}

func sameErr(a, b error) bool {
	if a == nil || b == nil || errors.Is(a, cpu.ErrHalted) {
		return a == b
	}
	var ta, tb *cpu.TrapError
	return errors.As(a, &ta) && errors.As(b, &tb) && *ta == *tb
}

// checkRunMatchesStep drives prog through pairs of machines, both
// interpreted and predecoded, with limits drawn from rng, until the
// program stops with an error or total instructions have run. It counts
// why each Run call stopped into stops.
func checkRunMatchesStep(t *testing.T, prog *cpu.Program, rng *rand.Rand, total uint64, regs [16]uint32, stops *[numStops]int) {
	t.Helper()
	seed := rng.Uint64()
	limits := make([]uint64, 64)
	for i := range limits {
		switch rng.Intn(4) {
		case 0:
			limits[i] = 1
		case 1:
			limits[i] = uint64(1 + rng.Intn(8))
		default:
			limits[i] = uint64(1 + rng.Intn(400))
		}
	}
	for _, decoded := range []bool{false, true} {
		p := newPair(prog, decoded, seed, regs)
		for i := 0; p.run.InstrCount() < total; i++ {
			why := p.advance(t, limits[i%len(limits)])
			stops[why]++
			if why == stopError {
				break
			}
		}
	}
}

// randomProgram builds a program from data, four bytes per instruction
// (opcode, registers, immediate). It starts with a ready-flag poll loop
// at the I/O window base r1 points to, keeps loads and stores near the
// data and I/O bases r1..r3 point to, sends every control transfer to
// one of its SIG instructions or leaves its target as drawn (mostly a
// trap), and keeps some words undecodable.
func randomProgram(data []byte) (*cpu.Program, [16]uint32) {
	code := []uint32{
		cpu.Instr{Op: cpu.OpSig}.Encode(),
		cpu.Instr{Op: cpu.OpLd, Rd: 5, Rs1: 1, Imm: 12}.Encode(),
		cpu.Instr{Op: cpu.OpCmp, Rs1: 5}.Encode(),
		cpu.Instr{Op: cpu.OpBeq, Imm: 0}.Encode(),
	}
	var sigs []uint16
	for i := 0; i+4 <= len(data) && len(code) < 200; i += 4 {
		op := cpu.Opcode(1 + data[i]%uint8(cpu.OpFail+2)) // OpFail+1 never decodes
		if op == cpu.OpSig {
			sigs = append(sigs, uint16(4*len(code)))
		}
		code = append(code, cpu.Instr{
			Op: op, Rd: int(data[i+1] >> 4), Rs1: int(data[i+1] & 15), Rs2: int(data[i+2] >> 4),
			Imm: uint16(data[i+2])<<8 | uint16(data[i+3]),
		}.Encode())
	}
	for i, w := range code[4:] {
		in, err := cpu.Decode(w)
		switch {
		case err != nil:
			continue
		case in.Op == cpu.OpLd || in.Op == cpu.OpSt:
			in.Imm &= 0xFC // near the data or I/O base in r1..r3
		case in.Op.IsBranch() || in.Op == cpu.OpJmp || in.Op == cpu.OpCall:
			switch {
			case in.Imm%3 == 0:
				in.Imm = 0 // the poll loop's head
			case in.Imm%3 == 1 && len(sigs) > 0:
				in.Imm = sigs[int(in.Imm)%len(sigs)]
			}
		}
		code[4+i] = in.Encode()
	}
	var regs [16]uint32
	regs[1] = cpu.IOBase
	for i := 2; i < 16; i++ {
		regs[i] = uint32(i) * 0x01010101
	}
	if len(data) >= 4 {
		regs[2] = cpu.DataBase + uint32(data[0])&^3
		regs[3] = cpu.IOBase + uint32(data[1]&0x3C)
	}
	return &cpu.Program{Code: code}, regs
}

// TestRunMatchesStep pins cpu.CPU.Run against its reference: Run(limit)
// must stop exactly where stepping stops at the same events, with the
// same error and bit-identical machine state and I/O, interpreted and
// predecoded, on random programs and on every workload program.
func TestRunMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var stops [numStops]int
	for i := 0; i < 200; i++ {
		data := make([]byte, 4*(1+rng.Intn(60)))
		rng.Read(data)
		prog, regs := randomProgram(data)
		checkRunMatchesStep(t, prog, rng, 2000, regs, &stops)
	}
	for _, v := range workload.Variants() {
		t.Run(string(v), func(t *testing.T) {
			checkRunMatchesStep(t, workload.Program(v), rng, 20000, [16]uint32{}, &stops)
		})
	}
	// Every way Run can stop must have been exercised.
	for why, n := range stops {
		if n == 0 {
			t.Errorf("no Run call stopped for reason %d (limit, I/O store, HALT, poll head, error)", why)
		}
	}
}

// FuzzRunMatchesStep fuzzes the same property over random programs and
// a workload program with random limits; CI runs a short -fuzz smoke on
// top of the seeds.
func FuzzRunMatchesStep(f *testing.F) {
	// randomProgram reads opcode byte b as opcode b+1.
	f.Add([]byte{}, int64(1))
	f.Add([]byte{byte(cpu.OpSt - 1), 0x53, 0, 8, byte(cpu.OpHalt - 1), 0, 0, 0}, int64(2))
	f.Add([]byte{byte(cpu.OpSig - 1), 0, 0, 0, byte(cpu.OpAddi - 1), 0x44, 0, 1, byte(cpu.OpJmp - 1), 0, 0, 1}, int64(3))
	variants := workload.Variants()
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		prog, regs := randomProgram(data)
		var stops [numStops]int
		checkRunMatchesStep(t, prog, rng, 2000, regs, &stops)
		checkRunMatchesStep(t, workload.Program(variants[rng.Intn(len(variants))]), rng, 2000, [16]uint32{}, &stops)
	})
}
