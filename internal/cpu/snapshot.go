package cpu

import "math/bits"

// Whole-machine state. A Snapshot captures every bit of state that
// influences future execution — registers, PC, flags, the
// control-flow-checking latch, the halt latch, the instruction counter,
// the complete data cache (tags, status bits, data, hit/miss counters)
// and the memory backing store — as plain values, so tests can compare
// two machines whole. The campaign engine forks its experiments with
// CPU.Clone, which copies the same state into a runnable machine
// (FERRARI-style pre-injection snapshotting).

// LineSnapshot is the saved state of one cache line.
type LineSnapshot struct {
	Tag   uint16
	Valid bool
	Dirty bool
	Data  [cacheWords]uint32
}

// CacheSnapshot is the saved state of the data cache, including the
// diagnostic hit/miss counters.
type CacheSnapshot struct {
	Lines  [CacheLines]LineSnapshot
	Hits   uint64
	Misses uint64
}

// Snapshot is a complete, self-contained copy of the machine state.
// It shares no storage with the CPU it was taken from.
type Snapshot struct {
	Regs   [16]uint32
	PC     uint32
	FlagZ  bool
	FlagLT bool

	// InstrCount is the dynamic instruction count at the snapshot
	// point, the campaign's fault-injection time base.
	InstrCount uint64

	// LastJump and Halted preserve the control-flow-checking latch and
	// the halt latch (the trap-relevant machine state outside the
	// architectural registers).
	LastJump bool
	Halted   bool

	Mem   []uint32 // MemSize/4 words
	Cache CacheSnapshot
}

// Snapshot captures the full machine state.
func (c *CPU) Snapshot() *Snapshot {
	s := &Snapshot{
		Regs:       c.Regs,
		PC:         c.PC,
		FlagZ:      c.FlagZ,
		FlagLT:     c.FlagLT,
		InstrCount: c.instrCount,
		LastJump:   c.lastJump,
		Halted:     c.halted,
		Mem:        c.Mem.Snapshot(),
	}
	s.Cache.Hits = c.Cache.Hits
	s.Cache.Misses = c.Cache.Misses
	for i := range c.Cache.lines {
		line := &c.Cache.lines[i]
		s.Cache.Lines[i] = LineSnapshot{
			Tag:   line.tag,
			Valid: line.valid,
			Dirty: line.dirty,
			Data:  line.data,
		}
	}
	return s
}

// Digest is a 128-bit signature of the behavioural machine state
// (everything a Snapshot captures except the diagnostic hit/miss
// counters and the memory a run cannot write, see StateDigest). Two
// machines running the same program with equal digests at an iteration
// boundary evolve identically from there given identical inputs; the
// campaign engine uses this to cut a faulty run short once its state
// re-converges with the golden run's. 128 bits keep the collision
// probability negligible even across billions of comparisons. Digests
// are compared within one process and never persisted, so the mixing
// function is free to change.
type Digest [2]uint64

const (
	digestOffset2 = 0x9E3779B97F4A7C15
	digestPrime1  = 0x9FB21C651E98DF25
	digestPrime2  = 0xFF51AFD7ED558CCD
)

// StateDigest hashes the behavioural state: registers, PC, flags, the
// control-flow and halt latches, the instruction counter, the cache
// (tags, status bits, data) and the writable memory, the data and stack
// segments. The rest of the backing store cannot change while a program
// runs: data stores into the code segment and cache write-backs outside
// the data segment trap, I/O-window accesses go to the bus, and the gap
// between the I/O window and the stack is unmapped. So two machines
// loaded with the same program differ there only if they differ in
// code, which the digest leaves to the caller.
//
// Each of the two 64-bit lanes folds in every input through an
// xor-multiply step, which is a bijection of the lane for a fixed input
// and of the input for a fixed lane, so two states that differ in one
// input word always get different digests. Memory is folded in two
// words per step, with the data and stack segments on independent
// chains that are joined at the end.
func (c *CPU) StateDigest() Digest {
	h1 := uint64(fnvOffset)
	h2 := uint64(digestOffset2)
	mix := func(v uint32) {
		h1 = bits.RotateLeft64((h1^uint64(v))*digestPrime1, 29)
		h2 = (h2 ^ uint64(v)) * digestPrime2
	}
	for r := 1; r < 16; r++ {
		mix(c.Regs[r])
	}
	mix(c.PC)
	mix(boolWord(c.FlagZ)<<3 | boolWord(c.FlagLT)<<2 | boolWord(c.lastJump)<<1 | boolWord(c.halted))
	mix(uint32(c.instrCount))
	mix(uint32(c.instrCount >> 32))
	for i := range c.Cache.lines {
		line := &c.Cache.lines[i]
		mix(uint32(line.tag)<<2 | boolWord(line.valid)<<1 | boolWord(line.dirty))
		for _, w := range line.data {
			mix(w)
		}
	}
	// The loop walks both segments in step, which needs them equal in
	// size; the constant expressions below overflow otherwise.
	const _, _ = DataSize - StackSize, StackSize - DataSize
	data := (*[DataSize / 4]uint32)(c.Mem.words[DataBase/4 : (DataBase+DataSize)/4])
	stack := (*[StackSize / 4]uint32)(c.Mem.words[StackBase/4 : (StackBase+StackSize)/4])
	d1, d2 := h1, h2
	s1, s2 := uint64(fnvOffset), uint64(digestOffset2)
	for i := 0; i < len(data); i += 2 {
		dv := uint64(data[i]) | uint64(data[i+1])<<32
		sv := uint64(stack[i]) | uint64(stack[i+1])<<32
		d1 = bits.RotateLeft64((d1^dv)*digestPrime1, 29)
		d2 = (d2 ^ dv) * digestPrime2
		s1 = bits.RotateLeft64((s1^sv)*digestPrime1, 29)
		s2 = (s2 ^ sv) * digestPrime2
	}
	// One more step with the stack chain as the input: a bijection of
	// either chain for the other fixed.
	h1 = bits.RotateLeft64((d1^s1)*digestPrime1, 29)
	h2 = (d2 ^ s2) * digestPrime2
	return Digest{h1, h2}
}
