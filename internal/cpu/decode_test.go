package cpu

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// twinMachines builds an interpreted and a predecoded CPU over the same
// program with identically randomised architectural state.
func twinMachines(t *testing.T, prog *Program, rng *rand.Rand) (interp, dec *CPU) {
	t.Helper()
	interp = New(prog, newStubIO())
	dec = New(prog, newStubIO())
	if !dec.AttachDecoded(PredecodeCached(prog)) {
		t.Fatal("AttachDecoded rejected the machine's own program")
	}
	for r := 1; r < 16; r++ {
		v := rng.Uint32()
		interp.Regs[r] = v
		dec.Regs[r] = v
	}
	// Keep SP sane often enough that loads and stores sometimes land.
	if rng.Intn(2) == 0 {
		interp.Regs[SPReg] = StackBase
		dec.Regs[SPReg] = StackBase
	}
	return interp, dec
}

// stepTwins steps both machines to completion and requires identical
// behaviour at every step: same error (or none), same state digest.
func stepTwins(t *testing.T, interp, dec *CPU, maxSteps int) {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		errI := interp.Step()
		errD := dec.Step()
		if (errI == nil) != (errD == nil) {
			t.Fatalf("step %d: interpreted err=%v, predecoded err=%v", i, errI, errD)
		}
		if errI != nil {
			if errI.Error() != errD.Error() {
				t.Fatalf("step %d: trap text differs:\n  interpreted: %v\n  predecoded:  %v", i, errI, errD)
			}
			return
		}
		if interp.StateDigest() != dec.StateDigest() {
			t.Fatalf("step %d: state digests diverge (PC=%#x vs %#x)", i, interp.PC, dec.PC)
		}
		if interp.Halted() {
			return
		}
	}
}

// randProgram emits a random mix of mostly-valid instructions; raw
// random words are thrown in so illegal opcodes are exercised too.
func randProgram(rng *rand.Rand, n int) *Program {
	code := make([]uint32, n)
	for i := range code {
		if rng.Intn(8) == 0 {
			code[i] = rng.Uint32()
			continue
		}
		op := Opcode(rng.Intn(int(opMax)-1) + 1)
		in := Instr{
			Op:  op,
			Rd:  rng.Intn(16),
			Rs1: rng.Intn(16),
			Rs2: rng.Intn(16),
			Imm: uint16(rng.Uint32()),
		}
		if op == OpJmp || op == OpCall || op.isBranch() {
			// Bias control transfers toward legal code addresses so
			// runs survive long enough to exercise the landing-pad
			// check; leave some wild.
			if rng.Intn(4) != 0 {
				in.Imm = uint16(rng.Intn(n) * 4)
			}
		}
		code[i] = in.Encode()
	}
	data := make([]uint32, 16)
	for i := range data {
		data[i] = rng.Uint32()
	}
	return &Program{Code: code, Data: data}
}

// TestPredecodeEquivalenceRandomPrograms is the core soundness property
// of the predecoded engine: over random programs and random register
// state, the interpreted and predecoded paths are step-for-step
// indistinguishable — same traps (text included), same state digests.
func TestPredecodeEquivalenceRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 200; trial++ {
		prog := randProgram(rng, 8+rng.Intn(120))
		interp, dec := twinMachines(t, prog, rng)
		stepTwins(t, interp, dec, 2000)
	}
}

// TestPredecodeCoversWholeSegment pins that a PC fault landing anywhere
// in the code segment — including the zero-filled tail past the
// program — behaves identically on both paths.
func TestPredecodeCoversWholeSegment(t *testing.T) {
	prog := MustAssemble(`
.code
loop:   SIG
        JMP loop
`)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		interp, dec := twinMachines(t, prog, rng)
		pc := rng.Uint32() % (CodeSize + 64) // sometimes past the segment
		interp.PC = pc
		dec.PC = pc
		stepTwins(t, interp, dec, 50)
	}
}

// TestPredecodeIllegalWordTrapText pins the exact INSTRUCTION ERROR
// text: the predecoded path must preserve Decode's error verbatim, so
// record files stay byte-identical.
func TestPredecodeIllegalWordTrapText(t *testing.T) {
	prog := &Program{Code: []uint32{0xFF000000}}
	c := New(prog, newStubIO())
	if !c.AttachDecoded(Predecode(prog)) {
		t.Fatal("attach failed")
	}
	err := c.Step()
	var trap *TrapError
	if !errors.As(err, &trap) {
		t.Fatalf("want trap, got %v", err)
	}
	if trap.Mech != MechInstrError || trap.Info != "cpu: illegal opcode 0xff" {
		t.Fatalf("trap = %v / %q", trap.Mech, trap.Info)
	}
}

// TestAttachDecodedRejectsMismatch pins the attach-time validation: a
// stream for a different program must be refused, leaving the CPU
// interpreting.
func TestAttachDecodedRejectsMismatch(t *testing.T) {
	a := MustAssemble(".code\n MOVI r1, 1\n HALT\n")
	b := MustAssemble(".code\n MOVI r1, 2\n HALT\n")
	c := New(a, newStubIO())
	if c.AttachDecoded(Predecode(b)) {
		t.Fatal("attached a stream for a different program")
	}
	if !c.Interpreting() {
		t.Fatal("CPU not interpreting after a rejected attach")
	}
	if c.AttachDecoded(nil) {
		t.Fatal("attached nil")
	}
}

// TestCurrentInstrMatchesDecode pins that the observer-facing accessor
// returns exactly what decoding the fetched word would, on both paths.
func TestCurrentInstrMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	prog := randProgram(rng, 64)
	interp, dec := twinMachines(t, prog, rng)
	for i := 0; i < 200; i++ {
		wantIn, wantErr := Decode(interp.Mem.ReadWord(interp.PC))
		gotIn, gotErr := dec.CurrentInstr()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("step %d: err %v vs %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("step %d: err text %q vs %q", i, wantErr, gotErr)
			}
			return
		}
		if wantIn != gotIn {
			t.Fatalf("step %d: instr %+v vs %+v", i, wantIn, gotIn)
		}
		if interp.Step() != nil || dec.Step() != nil || interp.Halted() {
			return
		}
	}
}

// TestCloneIsIndependent pins the lockstep fork primitive: a clone
// matches the original's digest, then evolves independently.
func TestCloneIsIndependent(t *testing.T) {
	prog := MustAssemble(`
.code
        MOVI r1, 0
loop:   SIG
        ADDI r1, r1, 1
        JMP pad
pad:    SIG
        ADDI r2, r2, 1
        JMP loop
`)
	c := New(prog, newStubIO())
	c.AttachDecoded(Predecode(prog))
	for i := 0; i < 17; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp := c.Clone(newStubIO())
	if cp.StateDigest() != c.StateDigest() {
		t.Fatal("clone digest differs")
	}
	if cp.Interpreting() {
		t.Fatal("clone lost the decoded stream")
	}
	if err := cp.Step(); err != nil {
		t.Fatal(err)
	}
	if cp.StateDigest() == c.StateDigest() {
		t.Fatal("stepping the clone changed nothing")
	}
	before := c.StateDigest()
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.StateDigest() == before {
		t.Fatal("original did not evolve")
	}
}

// TestDecodeCallsCounts sanity-checks the regression counter itself.
func TestDecodeCallsCounts(t *testing.T) {
	before := DecodeCalls()
	if _, err := Decode(Instr{Op: OpNop}.Encode()); err != nil {
		t.Fatal(err)
	}
	if DecodeCalls() != before+1 {
		t.Fatalf("DecodeCalls delta = %d, want 1", DecodeCalls()-before)
	}
}

// TestPredecodeCachedPerProgram: a program's stream is built once and
// returned for every later call, and it does not outlive the program.
func TestPredecodeCachedPerProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randProgram(rng, 64), randProgram(rng, 64)
	if PredecodeCached(a) != PredecodeCached(a) {
		t.Error("PredecodeCached rebuilt the stream of the same program")
	}
	if PredecodeCached(a) == PredecodeCached(b) {
		t.Error("two programs share one stream")
	}

	freed := make(chan struct{})
	func() {
		prog := randProgram(rng, 64)
		runtime.SetFinalizer(PredecodeCached(prog), func(*Decoded) { close(freed) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the stream of an unreachable program was retained")
}
