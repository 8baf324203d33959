// Package prune implements static fault-space pruning for SCIFI bit-flip
// campaigns: a def-use/liveness analysis over the golden run's dynamic
// instruction stream that classifies every candidate injection
// (location, bit, time) BEFORE it is simulated.
//
// The analysis is sound ONLY for the permanent single bit-flip model
// (see SupportsModel): a transient fault may vanish before the first
// use the classifier keys on, a burst perturbs several bits whose
// first uses can differ, and the equivalence-class argument assumes
// one corrupted location. Campaigns using any other fault model must
// decline pruning entirely rather than risk silently wrong verdicts.
//
// The analysis exploits a structural property of single-bit transient
// faults: a faulty run executes exactly the golden instruction sequence
// until the first dynamic READ of the faulted location. From one
// instrumented golden replay the analyzer therefore knows, for every
// injection point, which of three fates applies:
//
//   - Dead: the location is overwritten at full width before its next
//     read (and is invisible to the end-of-run state comparison). The
//     flip provably cannot influence the run; its verdict equals the
//     golden-vs-golden classification without any simulation.
//
//   - Class: the location's first read happens at dynamic instruction T
//     with a machine and environment state identical to the golden
//     run's everywhere except the flipped bit. All injections sharing
//     (location-at-T, bit, T) reach T in the same state and therefore
//     produce bit-identical outcomes: one representative simulation
//     stands for the whole class.
//
//   - For faults in dirty cache data, a write-back migrates the flipped
//     bit into its memory word before anything reads it; the analysis
//     follows that single hop and continues the scan on the memory
//     word's event list.
//
// Soundness notes, each load-bearing and pinned by the cross-validation
// property test:
//
//   - All defs in this ISA are full-width (32-bit register and word
//     writes, whole-tag refills, boolean assignments), so a def really
//     erases any single-bit flip.
//   - Cache metadata (tag/valid/dirty) reads follow Cache.ensure's
//     short-circuit evaluation exactly: a tag is only "read" when the
//     hit check or eviction actually depends on it; otherwise the
//     refill overwrites it and the flip is dead.
//   - The end of the run reads every register, the PC, both flags and
//     the effective memory image (memory overlaid with valid+dirty
//     lines) through cpu.FinalState, so locations that survive to the
//     end unread are still "used" by the final state comparison —
//     except cache data words whose line is not written back, which
//     are invisible and therefore dead.
//
// The capture must account for every instruction of the golden run.
// Attached as the run's Monitor it is a workload.IdleMonitor that never
// traps, so the run keeps the idle fast-forward: the trips of the
// ready-flag poll loop the machine runs at once are stored as periods,
// one per location the loop touches, whose events Index.Fate resolves
// arithmetically.
package prune

import (
	"math/bits"
	"sort"

	"ctrlguard/internal/cpu"
)

// SupportsModel reports whether the pruner's classification is sound
// for the named fault model ("" is the default permanent single
// bit-flip). Campaign engines call this on the decline path: any model
// the analysis cannot reason about runs fully simulated.
func SupportsModel(model string) bool {
	return model == "" || model == "bitflip"
}

// Location numbering: a dense index over every trackable fault carrier.
// Registers r1..r15 map to 0..14; then the PC and the two flags; then
// per cache line tag, valid, dirty and the data words; then one slot
// per data-segment memory word (memory is not an injection target, but
// write-backs migrate cache faults into it).
const (
	locPC        = 15
	locFlagZ     = 16
	locFlagLT    = 17
	locCacheBase = 18
	locPerLine   = 3 + cpu.CacheWordsPerLine
	locMemBase   = locCacheBase + cpu.CacheLines*locPerLine
	numMemWords  = int(cpu.DataSize / 4)
	numLocs      = locMemBase + numMemWords
)

// locReg returns the location of register r (1..15).
func locReg(r int) uint32 { return uint32(r - 1) }

// memLoc returns the location of the data-segment memory word at addr.
func memLoc(addr uint32) (uint32, bool) {
	if cpu.SegmentOf(addr) != cpu.SegData {
		return 0, false
	}
	return uint32(locMemBase) + (addr-cpu.DataBase)/4, true
}

// locOf maps an injectable state bit onto its location index.
func locOf(b cpu.StateBit) (uint32, bool) {
	e, err := cpu.ParseElement(b.Region, b.Element)
	if err != nil {
		return 0, false
	}
	line := uint32(locCacheBase + e.N*locPerLine)
	switch e.Kind {
	case cpu.ElemReg:
		return locReg(e.N), true
	case cpu.ElemPC:
		return locPC, true
	case cpu.ElemFlagZ:
		return locFlagZ, true
	case cpu.ElemFlagLT:
		return locFlagLT, true
	case cpu.ElemTag:
		return line, true
	case cpu.ElemValid:
		return line + 1, true
	case cpu.ElemDirty:
		return line + 2, true
	case cpu.ElemWord: // the program image is outside the def-use index
		return 0, false
	default: // cpu.ElemData
		return line + 3 + uint32(e.Word), true
	}
}

// Event kinds, in intra-instruction execution order semantics: the
// FIRST event a location receives within one instruction decides the
// fate of a fault present when the instruction begins.
const (
	evUse uint32 = iota // the pre-instruction value influences behaviour
	evDef               // overwritten at full width
	evWB                // cache data word written back to a memory word
)

// maxInstr bounds the dynamic instruction index an event can pack.
const maxInstr = 1 << 30

// event is one def/use touch of a location by one dynamic instruction,
// packed as idx<<2 | kind: golden runs produce hundreds of thousands of
// events, and an index may stay live for the whole process.
type event uint32

func packEvent(idx, kind uint32) event { return event(idx<<2 | kind) }

func (e event) idx() uint32  { return uint32(e) >> 2 }
func (e event) kind() uint32 { return uint32(e) & 3 }

// wbKey names the write-back event of location loc at instruction idx;
// the memory byte address receiving it lives in a side map, since
// write-backs are rare next to plain defs and uses.
type wbKey struct{ loc, idx uint32 }

// pattern is one location's events over a trip of a poll loop: bit o
// of use (def) marks a use (def) by the trip's instruction at offset o.
type pattern struct{ use, def uint8 }

// period is a run of poll-loop trips the capture did not step, stored
// once per location the loop touches: trip j covers the instructions
// from start+j*cpu.PollTrip on. Only registers and flags take periods,
// since a poll loop's one memory access reads the uncached I/O window.
type period struct {
	start, trips uint32
	pattern
}

// end returns the instruction index just past the period.
func (p period) end() uint64 { return uint64(p.start) + uint64(p.trips)*cpu.PollTrip }

// next returns the period's first event at or after instruction at.
func (p period) next(at uint64) (event, bool) {
	rel := uint64(0)
	if at > uint64(p.start) {
		rel = at - uint64(p.start)
	}
	for trip, off := rel/cpu.PollTrip, rel%cpu.PollTrip; trip < uint64(p.trips); trip, off = trip+1, 0 {
		for ; off < cpu.PollTrip; off++ {
			idx := uint32(uint64(p.start) + trip*cpu.PollTrip + off)
			switch {
			case p.use>>off&1 != 0:
				return packEvent(idx, evUse), true
			case p.def>>off&1 != 0:
				return packEvent(idx, evDef), true
			}
		}
	}
	return 0, false
}

// Capture observes a golden run and builds the per-location event
// index. Attach it to the golden RunSpec as its Monitor, then call
// Finish. It is read-only (it never perturbs the machine) and must
// account for every instruction of exactly one fault-free run.
type Capture struct {
	bad       bool
	vm        *cpu.CPU
	count     uint64
	events    [numLocs][]event
	periods   [locCacheBase][]period
	wb        map[wbKey]uint32
	lastTouch [numLocs]uint32       // idx+1 of the last event, for intra-instruction dedup
	trip      [locCacheBase]pattern // the poll loop CanSkipPoll last accepted
}

// NewCapture returns an empty capture.
func NewCapture() *Capture {
	return &Capture{}
}

// Observer returns OnInstr as a workload.RunSpec observer, kept for the
// benchmark module (bench/probe.go), which times a stepping capture.
func (c *Capture) Observer() func(iteration int, instr uint64, vm *cpu.CPU) {
	return func(k int, instr uint64, vm *cpu.CPU) { c.OnInstr(k, instr, vm) }
}

// OnIteration implements workload.Monitor.
func (c *Capture) OnIteration(int, *cpu.CPU) *cpu.TrapError {
	return nil
}

// CanSkipPoll implements workload.IdleMonitor. It accepts while the
// capture is healthy and the loop headed at pc touches only registers
// and flags, and it records the loop's per-trip def/use pattern for
// SkipPoll, built from each instruction's DefUse row the way OnInstr
// would emit it. The machine is at the loop head, so the load's base
// register holds the value the load itself reads: nothing before the
// load in the loop writes a register.
func (c *Capture) CanSkipPoll(pc uint32) bool {
	c.trip = [locCacheBase]pattern{}
	if c.bad || c.vm == nil {
		return false
	}
	for off := uint32(0); off < cpu.PollTrip; off++ {
		in, err := cpu.Decode(c.vm.Mem.ReadWord(pc + off*4))
		if err != nil {
			return false
		}
		du := in.DefUse()
		if du.Mem != cpu.MemNone &&
			cpu.SegmentOf(regVal(c.vm, in.Rs1)+uint32(int32(int16(in.Imm)))) != cpu.SegIO {
			return false
		}
		c.tripEvents(du.UseRegs, du.UseFlags, off, evUse)
		c.tripEvents(du.DefRegs, du.DefFlags, off, evDef)
	}
	return true
}

// tripEvents adds the register and flag events of the loop's
// instruction at offset off to the trip pattern.
func (c *Capture) tripEvents(regs uint16, flags uint8, off, kind uint32) {
	for m := regs; m != 0; m &= m - 1 {
		c.tripEvent(locReg(bits.TrailingZeros16(m)), off, kind)
	}
	if flags&cpu.FlagMaskZ != 0 {
		c.tripEvent(locFlagZ, off, kind)
	}
	if flags&cpu.FlagMaskLT != 0 {
		c.tripEvent(locFlagLT, off, kind)
	}
}

// tripEvent adds one event to the trip pattern; like add, the first
// event a location receives within an instruction wins.
func (c *Capture) tripEvent(loc, off, kind uint32) {
	t := &c.trip[loc]
	if (t.use|t.def)>>off&1 != 0 {
		return
	}
	if kind == evUse {
		t.use |= 1 << off
	} else {
		t.def |= 1 << off
	}
}

// SkipPoll implements workload.IdleMonitor: the trips start at the
// instruction the capture expects next and follow the pattern
// CanSkipPoll recorded, so each touched location takes one period.
func (c *Capture) SkipPoll(trips uint64) {
	end := c.count + trips*cpu.PollTrip
	if c.bad || end >= maxInstr {
		c.bad = true
		return
	}
	for loc, t := range c.trip {
		if t != (pattern{}) {
			c.periods[loc] = append(c.periods[loc], period{uint32(c.count), uint32(trips), t})
		}
	}
	c.count = end
}

func (c *Capture) add(loc uint32, idx uint32, kind uint32, aux uint32) {
	if c.lastTouch[loc] == idx+1 {
		return // a same-instruction event landed first and wins
	}
	c.lastTouch[loc] = idx + 1
	c.events[loc] = append(c.events[loc], packEvent(idx, kind))
	if kind == evWB {
		if c.wb == nil {
			c.wb = make(map[wbKey]uint32)
		}
		c.wb[wbKey{loc, idx}] = aux
	}
}

func regVal(vm *cpu.CPU, r int) uint32 {
	if r == 0 {
		return 0
	}
	return vm.Regs[r]
}

// OnInstr implements workload.Monitor: it records the def/use events of
// the instruction about to execute and never traps. Emission order
// mirrors CPU.Step's micro-operation order — operand reads, the storage
// check, the cache access (hit check, eviction, refill, then the word
// access), then result writes — so the first-event-wins dedup resolves
// same-instruction conflicts the way the hardware would.
func (c *Capture) OnInstr(_ int, instr uint64, vm *cpu.CPU) *cpu.TrapError {
	if c.bad {
		return nil
	}
	if instr != c.count || instr >= maxInstr {
		c.bad = true
		return nil
	}
	c.count++
	c.vm = vm

	// CurrentInstr reads the predecoded slot when the machine runs the
	// predecoded engine, keeping Decode off the observed golden run too.
	in, err := vm.CurrentInstr()
	if err != nil {
		c.bad = true // a golden run never fetches an illegal instruction
		return nil
	}
	idx := uint32(instr)
	du := in.DefUse()

	// 1. Operand reads.
	c.regEvents(du.UseRegs, du.UseFlags, idx, evUse)

	// 2. The data-memory access, if any.
	if du.Mem != cpu.MemNone {
		addr := regVal(vm, in.Rs1) + uint32(int32(int16(in.Imm)))
		switch cpu.SegmentOf(addr) {
		case cpu.SegIO:
			// Uncached, host-mapped: no tracked state involved.
		case cpu.SegStack:
			// The storage check reads the stack pointer.
			c.add(locReg(cpu.SPReg), idx, evUse, 0)
		case cpu.SegData:
			if !c.cacheEvents(vm, addr, du.Mem == cpu.MemStore, idx) {
				c.bad = true
				return nil
			}
		default:
			c.bad = true // would trap; cannot happen on a golden run
			return nil
		}
	}

	// 3. Result writes.
	c.regEvents(du.DefRegs, du.DefFlags, idx, evDef)
	return nil
}

// regEvents records one event of the given kind for each register in
// regs, in ascending order, and then for each flag in flags.
func (c *Capture) regEvents(regs uint16, flags uint8, idx, kind uint32) {
	for m := regs; m != 0; m &= m - 1 {
		c.add(locReg(bits.TrailingZeros16(m)), idx, kind, 0)
	}
	if flags&cpu.FlagMaskZ != 0 {
		c.add(locFlagZ, idx, kind, 0)
	}
	if flags&cpu.FlagMaskLT != 0 {
		c.add(locFlagLT, idx, kind, 0)
	}
}

// cacheEvents replays Cache.ensure's decision tree against the current
// (pre-access) cache state, recording exactly the reads whose value the
// access depends on and the writes that overwrite state.
func (c *Capture) cacheEvents(vm *cpu.CPU, addr uint32, isStore bool, idx uint32) bool {
	acc := vm.Cache.Probe(addr)
	base := uint32(locCacheBase + acc.Line*locPerLine)
	tagLoc, validLoc, dirtyLoc := base, base+1, base+2
	wordLoc := func(w int) uint32 { return base + 3 + uint32(w) }

	if acc.Hit {
		// The hit check read valid and tag and both mattered.
		c.add(validLoc, idx, evUse, 0)
		c.add(tagLoc, idx, evUse, 0)
		if isStore {
			c.add(wordLoc(acc.Word), idx, evDef, 0)
			c.add(dirtyLoc, idx, evDef, 0)
		} else {
			c.add(wordLoc(acc.Word), idx, evUse, 0)
		}
		return true
	}

	// Miss. The hit check always reads valid; it short-circuits past
	// the tag when the line is invalid (a flipped tag in an invalid
	// line changes nothing and is then overwritten by the refill).
	c.add(validLoc, idx, evUse, 0)
	if acc.VictimValid {
		c.add(tagLoc, idx, evUse, 0)
		c.add(dirtyLoc, idx, evUse, 0) // eviction reads dirty for valid lines
		if acc.VictimDirty {
			// Write-back: each data word's flipped bits migrate into
			// the victim's memory words before the refill overwrites
			// the line.
			for w := 0; w < cpu.CacheWordsPerLine; w++ {
				wbAddr := acc.VictimBase + uint32(w*4)
				ml, ok := memLoc(wbAddr)
				if !ok {
					return false // write-back outside SegData traps; never golden
				}
				c.add(wordLoc(w), idx, evWB, wbAddr)
				c.add(ml, idx, evDef, 0)
			}
		}
	}
	// Refill: reads four memory words, then overwrites the whole line.
	for w := 0; w < cpu.CacheWordsPerLine; w++ {
		if ml, ok := memLoc(acc.FillBase + uint32(w*4)); ok {
			c.add(ml, idx, evUse, 0)
		}
	}
	for w := 0; w < cpu.CacheWordsPerLine; w++ {
		c.add(wordLoc(w), idx, evDef, 0)
	}
	c.add(tagLoc, idx, evDef, 0)
	c.add(validLoc, idx, evDef, 0)
	c.add(dirtyLoc, idx, evDef, 0)
	// Finally the access itself (the load's read deduplicates against
	// the refill's def: the word was overwritten before it was read).
	if isStore {
		c.add(wordLoc(acc.Word), idx, evDef, 0)
		c.add(dirtyLoc, idx, evDef, 0)
	} else {
		c.add(wordLoc(acc.Word), idx, evUse, 0)
	}
	return true
}

// Index is the finished event index of one golden run, ready for Fate
// queries. It is immutable and safe for concurrent use.
type Index struct {
	events    [numLocs][]event
	periods   [locCacheBase][]period
	wb        map[wbKey]uint32
	total     uint64
	lineValid [cpu.CacheLines]bool
	lineDirty [cpu.CacheLines]bool
}

// Finish seals the capture into a queryable Index. total must be the
// golden run's instruction count. It returns nil when the capture
// cannot vouch for the run (decode failure, instruction count mismatch,
// or an index overflow) — callers then simply simulate everything.
func (c *Capture) Finish(total uint64) *Index {
	if c.bad || c.vm == nil || c.count != total || total >= maxInstr {
		return nil
	}
	// Copy the per-location lists into one exact-size backing array,
	// dropping append's spare capacity.
	n := 0
	for _, evs := range c.events {
		n += len(evs)
	}
	backing := make([]event, 0, n)
	ix := &Index{periods: c.periods, wb: c.wb, total: total}
	for l, evs := range c.events {
		start := len(backing)
		backing = append(backing, evs...)
		ix.events[l] = backing[start:len(backing):len(backing)]
	}
	for l := 0; l < cpu.CacheLines; l++ {
		_, valid, dirty := c.vm.Cache.LineState(l)
		ix.lineValid[l] = valid
		ix.lineDirty[l] = dirty
	}
	return ix
}

// Total returns the golden run's instruction count.
func (ix *Index) Total() uint64 { return ix.total }

// Key identifies a first-use equivalence class: every injection whose
// flipped bit first matters at dynamic instruction At, while residing
// in location Loc, reaches At in an identical machine state and shares
// one verdict. At == Total() means the end-of-run state comparison.
type Key struct {
	Loc uint32
	Bit uint
	At  uint64
}

// Fate is the analysis result for one injection.
type Fate struct {
	// Dead reports that the flip is provably erased before anything
	// reads it: the outcome equals the golden run's.
	Dead bool

	// Key is the injection's first-use equivalence class (zero when
	// Dead).
	Key Key
}

// Fate classifies the injection (bit, at). The boolean is false when
// the analysis cannot speak for this injection (unknown element or an
// out-of-range time); the campaign must then simulate it.
func (ix *Index) Fate(bit cpu.StateBit, at uint64) (Fate, bool) {
	loc, ok := locOf(bit)
	if !ok || at >= ix.total {
		return Fate{}, false
	}
	if loc == locPC {
		// The fetch reads the PC every instruction: a PC fault is
		// always first used by the faulted instruction itself.
		return Fate{Key: Key{Loc: loc, Bit: bit.Bit, At: at}}, true
	}
	for {
		e, ok := ix.next(loc, at)
		if !ok {
			return ix.endFate(loc, bit.Bit), true
		}
		switch e.kind() {
		case evDef:
			return Fate{Dead: true}, true
		case evUse:
			return Fate{Key: Key{Loc: loc, Bit: bit.Bit, At: uint64(e.idx())}}, true
		default: // evWB: follow the flip into its memory word
			addr, ok := ix.wb[wbKey{loc, e.idx()}]
			if !ok {
				return Fate{}, false
			}
			ml, ok := memLoc(addr)
			if !ok {
				return Fate{}, false
			}
			loc = ml
			at = uint64(e.idx()) + 1
		}
	}
}

// next returns loc's first event at or after instruction at, from its
// event list or from inside one of its periods. A period never overlaps
// a listed event of its location, so every period that starts before
// the next listed event lies wholly before it.
func (ix *Index) next(loc uint32, at uint64) (event, bool) {
	evs := ix.events[loc]
	i := sort.Search(len(evs), func(j int) bool { return uint64(evs[j].idx()) >= at })
	if loc < locCacheBase {
		ps := ix.periods[loc]
		p := sort.Search(len(ps), func(j int) bool { return ps[j].end() > at })
		for ; p < len(ps) && (i == len(evs) || ps[p].start < evs[i].idx()); p++ {
			if e, ok := ps[p].next(at); ok {
				return e, true
			}
		}
	}
	if i == len(evs) {
		return 0, false
	}
	return evs[i], true
}

// endFate resolves a fault that survives to the end of the run without
// a single event: the final state comparison reads registers, PC,
// flags and the effective memory image, so most locations are still
// "used" at index Total(). Cache data words are the exception — a line
// that is not both valid and dirty never reaches the final image, so
// its flips are invisible.
func (ix *Index) endFate(loc uint32, bit uint) Fate {
	if loc >= locCacheBase && loc < locMemBase {
		rel := int(loc) - locCacheBase
		line, field := rel/locPerLine, rel%locPerLine
		if field >= 3 { // a data word
			if ix.lineValid[line] && ix.lineDirty[line] {
				return Fate{Key: Key{Loc: loc, Bit: bit, At: ix.total}}
			}
			return Fate{Dead: true}
		}
		// Metadata flips redirect or suppress the final overlay;
		// conservatively treat them as used by it.
		return Fate{Key: Key{Loc: loc, Bit: bit, At: ix.total}}
	}
	return Fate{Key: Key{Loc: loc, Bit: bit, At: ix.total}}
}
