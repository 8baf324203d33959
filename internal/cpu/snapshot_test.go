package cpu

import (
	"reflect"
	"testing"
)

// snapSrc exercises registers, flags, cached data memory and the stack,
// looping so the machine has non-trivial state at any prefix length.
const snapSrc = `
.data
v:      .word 0
w:      .word 7
.code
start:  SIG
        MOVI r2, =v
        MOVI r3, 0
        MOVI r4, 100
        ADDI r14, r14, -16
loop:   SIG
        LD r5, 0(r2)
        ADD r5, r5, r3
        ST r5, 0(r2)
        ADDI r3, r3, 1
        ST r3, 0(r14)
        CMP r3, r4
        BLT loop
        HALT
`

func assembleSnap(t *testing.T) *Program {
	t.Helper()
	p, err := Assemble(snapSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// stepN steps the CPU n times, failing on any trap.
func stepN(t *testing.T, c *CPU, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if c.Halted() {
			return
		}
		if err := c.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestSnapshotRestoreResumesIdentically: a machine cloned at any prefix
// is the original in every bit of state, hit/miss counters included,
// and runs on to the straight run's final state.
func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	p := assembleSnap(t)

	// Reference: run straight through to halt.
	ref := New(p, newStubIO())
	for !ref.Halted() {
		if err := ref.Step(); err != nil {
			t.Fatalf("reference run trapped: %v", err)
		}
	}

	for _, prefix := range []int{0, 1, 17, 100, 333} {
		c := New(p, newStubIO())
		stepN(t, c, prefix)

		resumed := c.Clone(newStubIO())
		if !reflect.DeepEqual(resumed.Snapshot(), c.Snapshot()) {
			t.Fatalf("prefix %d: clone's state differs from the original's", prefix)
		}
		if resumed.Cache.Hits != c.Cache.Hits || resumed.Cache.Misses != c.Cache.Misses {
			t.Fatalf("prefix %d: clone did not carry the cache hit/miss counters", prefix)
		}
		for !resumed.Halted() {
			if err := resumed.Step(); err != nil {
				t.Fatalf("prefix %d: resumed run trapped: %v", prefix, err)
			}
		}
		if got, want := resumed.StateDigest(), ref.StateDigest(); got != want {
			t.Errorf("prefix %d: final digest differs from straight run", prefix)
		}
		if !StatesEqual(resumed.FinalState(), ref.FinalState()) {
			t.Errorf("prefix %d: FinalState differs from straight run", prefix)
		}
		if resumed.InstrCount() != ref.InstrCount() {
			t.Errorf("prefix %d: instruction count %d, want %d", prefix, resumed.InstrCount(), ref.InstrCount())
		}
	}
}

// TestSnapshotIsDeepCopy: neither a snapshot nor a clone shares storage
// with the machine it was taken from.
func TestSnapshotIsDeepCopy(t *testing.T) {
	p := assembleSnap(t)
	c := New(p, newStubIO())
	stepN(t, c, 50)
	snap := c.Snapshot()
	clone := c.Clone(newStubIO())

	// Mutating the original machine must reach neither copy.
	stepN(t, c, 50)
	c.Regs[5] ^= 0xFFFF
	c.Mem.WriteWord(DataBase, 0xDEADBEEF)
	if err := c.FlipBit(StateBit{RegionCache, "line0.data0", 3}); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(clone.Snapshot(), snap) {
		t.Error("snapshot or clone changed when the source machine was mutated")
	}
}

func TestStateDigestSensitivity(t *testing.T) {
	p := assembleSnap(t)
	c := New(p, newStubIO())
	stepN(t, c, 120)
	base := c.StateDigest()

	// Every class of state must influence the digest.
	mutations := []struct {
		name string
		mut  func(*CPU)
	}{
		{"register", func(m *CPU) { m.Regs[7] ^= 1 }},
		{"pc", func(m *CPU) { m.PC ^= 4 }},
		{"flag", func(m *CPU) { m.FlagZ = !m.FlagZ }},
		{"instr count", func(m *CPU) { m.instrCount++ }},
		{"last jump", func(m *CPU) { m.lastJump = !m.lastJump }},
		{"halted", func(m *CPU) { m.halted = !m.halted }},
		{"memory", func(m *CPU) { m.Mem.WriteWord(StackBase, m.Mem.ReadWord(StackBase)^1) }},
		{"data segment first word", func(m *CPU) { m.Mem.WriteWord(DataBase, m.Mem.ReadWord(DataBase)^1<<31) }},
		{"data segment last word", func(m *CPU) {
			a := DataBase + DataSize - 4
			m.Mem.WriteWord(a, m.Mem.ReadWord(a)^1)
		}},
		{"stack top word", func(m *CPU) {
			a := StackBase + StackSize - 4
			m.Mem.WriteWord(a, m.Mem.ReadWord(a)^1<<16)
		}},
		{"two data words", func(m *CPU) {
			m.Mem.WriteWord(DataBase+8, m.Mem.ReadWord(DataBase+8)^1)
			m.Mem.WriteWord(DataBase+12, m.Mem.ReadWord(DataBase+12)^1)
		}},
		{"cache tag", func(m *CPU) { m.Cache.lines[0].tag ^= 1 }},
		{"cache data", func(m *CPU) { m.Cache.lines[0].data[1] ^= 1 }},
		{"cache dirty", func(m *CPU) { m.Cache.lines[0].dirty = !m.Cache.lines[0].dirty }},
	}
	for _, mt := range mutations {
		m := c.Clone(newStubIO())
		mt.mut(m)
		if m.StateDigest() == base {
			t.Errorf("%s mutation did not change the digest", mt.name)
		}
	}

	// Hit/miss counters are diagnostics, not behaviour.
	m := c.Clone(newStubIO())
	m.Cache.Hits += 5
	if m.StateDigest() != base {
		t.Error("hit counter changed the behavioural digest")
	}

	// Memory a run cannot write is left out (see
	// TestPropertyDigestExcludedMemoryImmutable for why that is sound).
	for _, a := range []uint32{CodeBase + 8, IOBase, StackBase - 4} {
		m := c.Clone(newStubIO())
		m.Mem.WriteWord(a, m.Mem.ReadWord(a)^1)
		if m.StateDigest() != base {
			t.Errorf("word %#x outside the writable segments changed the digest", a)
		}
	}
}

// BenchmarkStateDigest times one digest of a machine mid-run: the
// per-boundary cost of recording and checking golden re-convergence.
func BenchmarkStateDigest(b *testing.B) {
	c := New(MustAssemble(snapSrc), newStubIO())
	for i := 0; i < 120; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = c.StateDigest()
	}
}

var digestSink Digest
