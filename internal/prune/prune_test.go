package prune

import (
	"testing"

	"ctrlguard/internal/cpu"
)

// testIO is a no-op I/O bus for manually driven programs.
type testIO struct{}

func (testIO) ReadIO(off uint32) uint32 { return 0 }
func (testIO) WriteIO(off, v uint32)    {}

// captureRun executes the program to HALT under the capture's observer
// and returns the sealed index.
func captureRun(t *testing.T, p *cpu.Program) *Index {
	t.Helper()
	cap := NewCapture()
	obs := cap.Observer()
	c := cpu.New(p, testIO{})
	for steps := 0; !c.Halted(); steps++ {
		if steps > 10000 {
			t.Fatal("program did not halt")
		}
		obs(0, c.InstrCount(), c)
		if err := c.Step(); err != nil {
			t.Fatalf("golden run trapped: %v", err)
		}
	}
	ix := cap.Finish(c.InstrCount())
	if ix == nil {
		t.Fatal("Finish rejected a clean golden run")
	}
	return ix
}

func fate(t *testing.T, ix *Index, element string, bit uint, at uint64) Fate {
	t.Helper()
	region := cpu.RegionRegisters
	if element[0] == 'l' {
		region = cpu.RegionCache
	}
	f, ok := ix.Fate(cpu.StateBit{Region: region, Element: element, Bit: bit}, at)
	if !ok {
		t.Fatalf("Fate(%s:%d at %d) declined", element, bit, at)
	}
	return f
}

func TestFateRegisterDeadAndUsed(t *testing.T) {
	ix := captureRun(t, cpu.MustAssemble(`
.code
 MOVI r1, 5
 MOVI r1, 6
 ADD r2, r1, r1
 HALT
`))
	// A flip in r1 present when instruction 0 (MOVI r1) begins is
	// overwritten before anything reads it.
	if f := fate(t, ix, "r1", 3, 0); !f.Dead {
		t.Errorf("r1 flip before its def: fate %+v, want dead", f)
	}
	if f := fate(t, ix, "r1", 3, 1); !f.Dead {
		t.Errorf("r1 flip before second def: fate %+v, want dead", f)
	}
	// A flip present when the ADD begins is read by the ADD.
	if f := fate(t, ix, "r1", 3, 2); f.Dead || f.Key.At != 2 {
		t.Errorf("r1 flip at the ADD: fate %+v, want first use at 2", f)
	}
	// A register the program never touches is still read by the final
	// state comparison.
	if f := fate(t, ix, "r9", 0, 1); f.Dead || f.Key.At != ix.Total() {
		t.Errorf("untouched r9: fate %+v, want end-of-run use at %d", f, ix.Total())
	}
	// Distinct bits of the same first use are distinct classes.
	a, b := fate(t, ix, "r1", 3, 2), fate(t, ix, "r1", 4, 2)
	if a.Key == b.Key {
		t.Error("different bits collapsed into one class key")
	}
}

func TestFatePCAlwaysTerminal(t *testing.T) {
	ix := captureRun(t, cpu.MustAssemble(".code\n NOP\n NOP\n HALT\n"))
	// The fetch reads the PC every instruction: the faulted instruction
	// itself is the first use.
	for at := uint64(0); at < 3; at++ {
		f := fate(t, ix, "pc", 2, at)
		if f.Dead || f.Key.At != at {
			t.Errorf("pc flip at %d: fate %+v, want first use at %d", at, f, at)
		}
	}
}

func TestFateFlags(t *testing.T) {
	ix := captureRun(t, cpu.MustAssemble(`
.code
 CMP r1, r2
skip:
 HALT
`))
	// A Z flip present when the CMP begins is overwritten by it.
	if f := fate(t, ix, "flagZ", 0, 0); !f.Dead {
		t.Errorf("flagZ before CMP: fate %+v, want dead", f)
	}
	// After the CMP nothing reads Z until the final state word.
	if f := fate(t, ix, "flagZ", 0, 1); f.Dead || f.Key.At != ix.Total() {
		t.Errorf("flagZ after CMP: fate %+v, want end-of-run use", f)
	}

	ix = captureRun(t, cpu.MustAssemble(`
.code
 CMP r1, r2
 BEQ done
 NOP
done:
 SIG
 HALT
`))
	// The BEQ (dynamic index 1) reads Z.
	if f := fate(t, ix, "flagZ", 0, 1); f.Dead || f.Key.At != 1 {
		t.Errorf("flagZ at the BEQ: fate %+v, want first use at 1", f)
	}
}

func TestFateCacheRefillKillsDataFlip(t *testing.T) {
	ix := captureRun(t, cpu.MustAssemble(`
.code
 MOVI r1, 0x1000
 LD r2, 0(r1)
 HALT
.data
 .word 7
`))
	// The load at index 1 misses a cold cache: the refill overwrites
	// line0's data words before the load reads the word, so a flip
	// sitting in the invalid line's data is dead — even in the very
	// word being loaded.
	for _, el := range []string{"line0.data0", "line0.data3"} {
		if f := fate(t, ix, el, 13, 1); !f.Dead {
			t.Errorf("%s flip before a cold-miss load: fate %+v, want dead", el, f)
		}
	}
	// A flip in the invalid line's tag is never read either: the hit
	// check short-circuits on valid, the refill overwrites the tag.
	if f := fate(t, ix, "line0.tag", 2, 1); !f.Dead {
		t.Errorf("tag flip in an invalid line: fate %+v, want dead", f)
	}
	// The valid bit is what the hit check reads: first use at the load.
	if f := fate(t, ix, "line0.valid", 0, 1); f.Dead || f.Key.At != 1 {
		t.Errorf("valid flip: fate %+v, want first use at 1", f)
	}
}

func TestFateCacheHitReadsWord(t *testing.T) {
	ix := captureRun(t, cpu.MustAssemble(`
.code
 MOVI r1, 0x1000
 LD r2, 0(r1)
 LD r3, 0(r1)
 HALT
.data
 .word 7
`))
	// After the first load fills the line, a flip in the cached word is
	// read by the second load (a hit) at index 2.
	if f := fate(t, ix, "line0.data0", 13, 2); f.Dead || f.Key.At != 2 {
		t.Errorf("cached word flip: fate %+v, want first use at 2", f)
	}
	// The hit check reads the tag of the now-valid line.
	if f := fate(t, ix, "line0.tag", 2, 2); f.Dead || f.Key.At != 2 {
		t.Errorf("valid line tag flip: fate %+v, want first use at 2", f)
	}
}

func TestFateWriteBackMigration(t *testing.T) {
	// ST dirties line0 with tag 0x1000; the conflicting load of 0x1080
	// (same line, different tag) evicts it, writing the flip back into
	// memory word 0x1004; the final load of 0x1004 misses again and
	// refills from memory — the first true read of the migrated flip.
	ix := captureRun(t, cpu.MustAssemble(`
.code
 MOVI r1, 0x1000
 MOVI r2, 77
 ST r2, 4(r1)
 LD r3, 0x80(r1)
 LD r4, 4(r1)
 HALT
.data
 .word 1
 .word 2
 .word 3
 .word 4
`))
	f := fate(t, ix, "line0.data1", 6, 3)
	if f.Dead {
		t.Fatalf("dirty word flip was pruned dead across a write-back")
	}
	if f.Key.At != 4 {
		t.Errorf("migrated flip first used at %d, want the refill at 4", f.Key.At)
	}
	wantLoc, _ := memLoc(0x1004)
	if f.Key.Loc != wantLoc {
		t.Errorf("migrated flip tracked in loc %d, want memory word loc %d", f.Key.Loc, wantLoc)
	}

	// A flip in another word of the same dirty line also migrates, and
	// the refill at index 4 reads the whole 16-byte fill line — the
	// migrated word included — so it shares the same first-use time in
	// a different location.
	g := fate(t, ix, "line0.data3", 6, 3)
	if g.Dead || g.Key.At != 4 {
		t.Errorf("migrated sibling flip: fate %+v, want refill use at 4", g)
	}
	if g.Key.Loc == f.Key.Loc {
		t.Error("distinct migrated words collapsed into one location")
	}
}

func TestFateWriteBackSurvivesToFinalState(t *testing.T) {
	// The dirty victim's flip migrates to memory at the eviction and is
	// never read again: the final state comparison reads memory, so the
	// fate is an end-of-run use, not dead.
	ix := captureRun(t, cpu.MustAssemble(`
.code
 MOVI r1, 0x1000
 MOVI r2, 77
 ST r2, 4(r1)
 LD r3, 0x80(r1)
 HALT
.data
 .word 1
 .word 2
`))
	f := fate(t, ix, "line0.data1", 6, 3)
	if f.Dead || f.Key.At != ix.Total() {
		t.Errorf("migrated-then-unread flip: fate %+v, want end-of-run use", f)
	}
	wantLoc, _ := memLoc(0x1004)
	if f.Key.Loc != wantLoc {
		t.Errorf("flip tracked in loc %d, want memory word loc %d", f.Key.Loc, wantLoc)
	}
}

func TestFateEndOfRunCacheVisibility(t *testing.T) {
	// The run ends with line0 resident and CLEAN (filled by a load,
	// never stored to): its data words never reach the final memory
	// image, so a late flip is dead; the metadata is conservatively
	// treated as used.
	ix := captureRun(t, cpu.MustAssemble(`
.code
 MOVI r1, 0x1000
 LD r2, 0(r1)
 HALT
.data
 .word 7
`))
	if f := fate(t, ix, "line0.data2", 9, 2); !f.Dead {
		t.Errorf("flip in a clean resident line at the end: fate %+v, want dead", f)
	}
	if f := fate(t, ix, "line0.valid", 0, 2); f.Dead {
		t.Errorf("valid flip at the end: fate %+v, want conservative use", f)
	}

	// With a store the line ends dirty: its words are in the final
	// image.
	ix = captureRun(t, cpu.MustAssemble(`
.code
 MOVI r1, 0x1000
 MOVI r2, 9
 ST r2, 0(r1)
 HALT
.data
 .word 7
`))
	if f := fate(t, ix, "line0.data0", 9, 3); f.Dead || f.Key.At != ix.Total() {
		t.Errorf("flip in a dirty resident line at the end: fate %+v, want end-of-run use", f)
	}
}

func TestFateDeclines(t *testing.T) {
	ix := captureRun(t, cpu.MustAssemble(".code\n HALT\n"))
	if _, ok := ix.Fate(cpu.StateBit{Region: cpu.RegionRegisters, Element: "r1", Bit: 0}, ix.Total()); ok {
		t.Error("Fate accepted an out-of-range injection time")
	}
	if _, ok := ix.Fate(cpu.StateBit{Region: "bogus", Element: "x", Bit: 0}, 0); ok {
		t.Error("Fate accepted an unknown region")
	}
}

func TestFinishRejectsBadCaptures(t *testing.T) {
	// Wrong instruction total: the capture cannot vouch for the run.
	c := NewCapture()
	obs := c.Observer()
	vm := cpu.New(cpu.MustAssemble(".code\n NOP\n HALT\n"), testIO{})
	obs(0, vm.InstrCount(), vm)
	if err := vm.Step(); err != nil {
		t.Fatal(err)
	}
	if ix := c.Finish(99); ix != nil {
		t.Error("Finish accepted a capture that missed instructions")
	}

	// Never observed anything.
	if ix := NewCapture().Finish(0); ix != nil {
		t.Error("Finish accepted an empty capture")
	}

	// Out-of-order observations mark the capture bad.
	c2 := NewCapture()
	obs2 := c2.Observer()
	obs2(0, 1, vm)
	if ix := c2.Finish(1); ix != nil {
		t.Error("Finish accepted an out-of-order capture")
	}
}

// TestLocOfCoversStateBits requires locOf to give every injectable
// element its own location below the memory words, and to refuse the
// names cpu.ParseElement rejects.
func TestLocOfCoversStateBits(t *testing.T) {
	owner := make(map[uint32]string)
	for _, sb := range cpu.StateBits() {
		loc, ok := locOf(sb)
		if !ok || loc >= locMemBase {
			t.Fatalf("locOf(%s) = %d, %v", sb, loc, ok)
		}
		if prev, dup := owner[loc]; dup && prev != sb.Element {
			t.Fatalf("%s and %s share location %d", prev, sb.Element, loc)
		}
		owner[loc] = sb.Element
	}
	if len(owner) != locMemBase {
		t.Fatalf("StateBits cover %d locations, want %d", len(owner), locMemBase)
	}
	for _, name := range []string{"r0", "r16", "r5x", "line99.tag", "line0.data9"} {
		region := cpu.RegionRegisters
		if name[0] == 'l' {
			region = cpu.RegionCache
		}
		if loc, ok := locOf(cpu.StateBit{Region: region, Element: name}); ok {
			t.Errorf("locOf accepted %s/%s as location %d", region, name, loc)
		}
	}
}
