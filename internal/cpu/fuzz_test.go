package cpu

import "testing"

// FuzzPredecodeEquivalence fuzzes the core predecode soundness claim
// over single instruction words: executing any word — decodable or not
// — through the interpreted and the predecoded paths must be
// indistinguishable, trap text included, and neither may write the
// memory StateDigest leaves out (see unwritableWords). The checked-in
// corpus under testdata/fuzz seeds one word per opcode plus illegal
// encodings; CI runs a short -fuzz smoke on top.
func FuzzPredecodeEquivalence(f *testing.F) {
	for op := OpNop; op < opMax; op++ {
		f.Add(Instr{Op: op, Rd: 4, Rs1: 1, Rs2: 2, Imm: 0x1008}.Encode(), uint32(0x1008), uint32(0x3FF0))
	}
	f.Add(uint32(0x00000000), uint32(0), uint32(0))
	f.Add(uint32(0xFFFFFFFF), ^uint32(0), ^uint32(0))

	f.Fuzz(func(t *testing.T, word, a, b uint32) {
		prog := &Program{Code: []uint32{word, Instr{Op: OpHalt}.Encode()}}
		interp := New(prog, newStubIO())
		dec := New(prog, newStubIO())
		if !dec.AttachDecoded(Predecode(prog)) {
			t.Fatal("AttachDecoded rejected the machine's own program")
		}
		for _, c := range []*CPU{interp, dec} {
			c.Regs[1], c.Regs[2] = a, b
			c.Regs[4] = a ^ b
			c.Regs[15] = a % (CodeSize * 2)
		}
		fixed := unwritableWords(interp)
		for i := 0; i < 4; i++ {
			errI := interp.Step()
			errD := dec.Step()
			if (errI == nil) != (errD == nil) {
				t.Fatalf("step %d: interpreted err=%v, predecoded err=%v", i, errI, errD)
			}
			for _, c := range []*CPU{interp, dec} {
				if !StatesEqual(unwritableWords(c), fixed) {
					t.Fatalf("step %d: %#x wrote memory outside the data and stack segments", i, word)
				}
			}
			if errI != nil {
				if errI.Error() != errD.Error() {
					t.Fatalf("step %d: trap text differs: %v vs %v", i, errI, errD)
				}
				return
			}
			if interp.StateDigest() != dec.StateDigest() {
				t.Fatalf("step %d: state digests diverge after %#x", i, word)
			}
			if interp.Halted() {
				return
			}
		}
	})
}
