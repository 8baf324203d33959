package cpu

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestPropertyStepNeverPanicsOnRandomCode executes random instruction
// words: whatever garbage the PC lands on, Step must either execute it
// or trap — never panic. This is the robustness the fault-injection
// campaigns rely on (corrupted PCs execute arbitrary code bytes).
func TestPropertyStepNeverPanicsOnRandomCode(t *testing.T) {
	f := func(words []uint32) bool {
		if len(words) == 0 {
			return true
		}
		if len(words) > 256 {
			words = words[:256]
		}
		p := &Program{Code: words}
		c := New(p, nil)
		for i := 0; i < 2000; i++ {
			if err := c.Step(); err != nil {
				return true // trapped or halted: fine
			}
		}
		return true // still running: fine too
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFlipNeverBreaksExecution flips arbitrary enumerated state
// bits at arbitrary points of a small loop: execution must continue or
// trap cleanly.
func TestPropertyFlipNeverBreaksExecution(t *testing.T) {
	prog := MustAssemble(`
.code
loop:   SIG
        MOVI r1, 0x1000
        LD   r2, @v(r1)
        ADDI r2, r2, 1
        ST   r2, @v(r1)
        JMP  loop
.data
v:      .word 0
`)
	bits := StateBits()
	f := func(bitIdx uint16, when uint8) bool {
		c := New(prog, nil)
		target := int(when % 100)
		sb := bits[int(bitIdx)%len(bits)]
		for i := 0; i < 200; i++ {
			if i == target {
				if err := c.FlipBit(sb); err != nil {
					return false
				}
			}
			if err := c.Step(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEncodeDecodeTotal: every decodable word re-encodes to a
// word that decodes identically (the operand fields the instruction
// uses round-trip).
func TestPropertyEncodeDecodeTotal(t *testing.T) {
	f := func(w uint32) bool {
		in, err := Decode(w)
		if err != nil {
			return true
		}
		in2, err := Decode(in.Encode())
		if err != nil {
			return false
		}
		return in == in2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// unwritableWords copies the backing-store words StateDigest leaves
// out: the code segment, and the I/O window's backing words with the
// unmapped gap after it up to the stack segment.
func unwritableWords(c *CPU) []uint32 {
	out := append([]uint32(nil), c.Mem.words[CodeBase/4:(CodeBase+CodeSize)/4]...)
	return append(out, c.Mem.words[IOBase/4:StackBase/4]...)
}

// TestPropertyDigestExcludedMemoryImmutable pins the premise of the
// narrowed StateDigest: whatever a program does — loads and stores
// through registers aimed at every segment, with cache tags and PCs
// corrupted mid-run so dirty lines are written back to wrong addresses
// — the memory outside the data and stack segments never changes, on
// the interpreted and the predecoded path alike.
func TestPropertyDigestExcludedMemoryImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(2106))
	bits := StateBits()
	var tags []StateBit
	for _, b := range bits {
		if strings.HasSuffix(b.Element, ".tag") {
			tags = append(tags, b)
		}
	}
	// Base registers r1..r13 point into the data segment, the I/O window
	// and the stack, so lines get dirty and evict each other; loads land
	// in r15 and pointer bumps are a random walk, so a run keeps going
	// until a fault derails it. Some trials also aim registers at the
	// code segment and the unmapped gap.
	bases := []uint32{DataBase, DataBase, DataBase + 0x80, DataBase + 0x800, IOBase, StackBase}
	wild := []uint32{CodeBase + 0x100, IOBase + IOSize}
	ops := []Opcode{OpSt, OpSt, OpSt, OpLd, OpLd, OpAddi}
	for trial := 0; trial < 300; trial++ {
		// A loop: SIG, random loads, stores and pointer bumps, JMP back.
		n := 16 + rng.Intn(64)
		code := make([]uint32, n)
		code[0] = Instr{Op: OpSig}.Encode()
		for i := 1; i < n-1; i++ {
			in := Instr{Op: ops[rng.Intn(len(ops))], Rd: rng.Intn(16), Rs1: 1 + rng.Intn(13), Imm: uint16(4 * rng.Intn(16))}
			switch in.Op {
			case OpLd:
				in.Rd = 15
			case OpAddi:
				in.Rd = in.Rs1
				in.Imm = uint16(int16(4 * (rng.Intn(3) - 1)))
			}
			code[i] = in.Encode()
		}
		code[n-1] = Instr{Op: OpJmp, Imm: 0}.Encode()
		regs := make([]uint32, 14)
		for r := 1; r < 14; r++ {
			regs[r] = bases[rng.Intn(len(bases))] + uint32(4*rng.Intn(32))
			if trial%10 == 0 && rng.Intn(13) == 0 {
				regs[r] = wild[rng.Intn(len(wild))]
			}
		}
		prog := &Program{Code: code, Data: []uint32{1, 2, 3, 4}}
		for _, decoded := range []bool{false, true} {
			c := New(prog, newStubIO())
			if decoded {
				c.AttachDecoded(Predecode(prog))
			}
			copy(c.Regs[:], regs)
			c.Regs[SPReg] = StackBase
			fixed := unwritableWords(c)
			for i := 0; i < 2000; i++ {
				if rng.Intn(25) == 0 {
					// Half the faults retarget a cache line.
					b := bits[rng.Intn(len(bits))]
					if rng.Intn(2) == 0 {
						b = tags[rng.Intn(len(tags))]
					}
					if err := c.FlipBit(b); err != nil {
						t.Fatal(err)
					}
				}
				err := c.Step()
				if !StatesEqual(unwritableWords(c), fixed) {
					t.Fatalf("trial %d (decoded=%v): step %d wrote memory outside the data and stack segments",
						trial, decoded, i)
				}
				if err != nil {
					break
				}
			}
			// The end-of-run write-back path too.
			c.Cache.FlushTo(c.Mem)
			if !StatesEqual(unwritableWords(c), fixed) {
				t.Fatalf("trial %d (decoded=%v): cache flush wrote outside the data segment", trial, decoded)
			}
		}
	}
}
