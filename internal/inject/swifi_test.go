package inject

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

func testProg(t *testing.T) *cpu.Program {
	t.Helper()
	p, err := cpu.Assemble(`
.code
        MOVI r1, 1
        HALT
.data
v:      .word 7
w:      .word 9
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// applyImage loads prog on a fresh machine, applies inj the way the
// campaign applies an injection at instruction 0, and returns the
// machine.
func applyImage(t *testing.T, prog *cpu.Program, inj workload.Injection) *cpu.CPU {
	t.Helper()
	c := cpu.New(prog, nil)
	if err := c.FlipBurst(inj.Bit, inj.Width); err != nil {
		t.Fatalf("applying %+v: %v", inj, err)
	}
	return c
}

// drawImage returns the first draw of a seed-3 sampler on region.
func drawImage(t *testing.T, prog *cpu.Program, region cpu.Region) workload.Injection {
	t.Helper()
	s := imageSampler(t, 3, prog, "", 0)
	for i := 0; i < 1000; i++ {
		if inj := s.Next(); inj.Bit.Region == region {
			return inj
		}
	}
	t.Fatalf("no %s draw in 1000", region)
	return workload.Injection{}
}

// flipLastWord flips bit of the last word of region's segment, which
// lies at addr and holds 0 in prog, and checks that only that bit of
// memory changed and that StateBitValue reads it back.
func flipLastWord(t *testing.T, prog *cpu.Program, region cpu.Region, addr uint32, bit uint) {
	t.Helper()
	sb := cpu.StateBit{Region: region, Element: "word1023", Bit: bit}
	before := cpu.New(prog, nil).Mem.Snapshot()
	c := applyImage(t, prog, workload.Injection{Bit: sb})
	if got := c.Mem.ReadWord(addr); got != 1<<bit {
		t.Errorf("%s: word at %#x = %#x, want %#x", sb, addr, got, uint32(1)<<bit)
	}
	if on, err := c.StateBitValue(sb); err != nil || !on {
		t.Errorf("StateBitValue(%s) = %v, %v after the flip", sb, on, err)
	}
	after := c.Mem.Snapshot()
	after[addr/4] = before[addr/4]
	if !cpu.StatesEqual(before, after) {
		t.Errorf("%s changed memory beyond its word", sb)
	}
}

// TestImageFlipApplyCode: a code-image injection flips the named bit of
// the loaded code word, up to the segment's last word, and leaves the
// program it was loaded from as it was.
func TestImageFlipApplyCode(t *testing.T) {
	prog := testProg(t)
	orig := slices.Clone(prog.Code)
	c := applyImage(t, prog, workload.Injection{Bit: cpu.StateBit{Region: cpu.RegionImageCode, Element: "word0", Bit: 3}})
	if got := c.Mem.ReadWord(cpu.CodeBase); got != orig[0]^8 {
		t.Errorf("mutated word = %#x, want %#x", got, orig[0]^8)
	}
	inj := drawImage(t, prog, cpu.RegionImageCode)
	w, _ := strconv.Atoi(strings.TrimPrefix(inj.Bit.Element, "word"))
	c = applyImage(t, prog, inj)
	if got, want := c.Mem.ReadWord(cpu.CodeBase+4*uint32(w)), orig[w]^1<<inj.Bit.Bit; got != want {
		t.Errorf("draw %+v: code word = %#x, want %#x", inj, got, want)
	}
	flipLastWord(t, prog, cpu.RegionImageCode, cpu.CodeBase+cpu.CodeSize-4, 31)
	if !slices.Equal(prog.Code, orig) {
		t.Error("applying an image injection modified the original program")
	}
}

// TestImageFlipApplyData: a data-image injection flips the named bit of
// the loaded data word, up to the segment's last word.
func TestImageFlipApplyData(t *testing.T) {
	prog := testProg(t)
	c := applyImage(t, prog, workload.Injection{Bit: cpu.StateBit{Region: cpu.RegionImageData, Element: "word1", Bit: 0}})
	if got := c.Mem.ReadWord(cpu.DataBase + 4); got != 8 {
		t.Errorf("mutated data = %d, want 8", got)
	}
	inj := drawImage(t, prog, cpu.RegionImageData)
	w, _ := strconv.Atoi(strings.TrimPrefix(inj.Bit.Element, "word"))
	c = applyImage(t, prog, inj)
	if got, want := c.Mem.ReadWord(cpu.DataBase+4*uint32(w)), prog.Data[w]^1<<inj.Bit.Bit; got != want {
		t.Errorf("draw %+v: data word = %#x, want %#x", inj, got, want)
	}
	flipLastWord(t, prog, cpu.RegionImageData, cpu.DataBase+cpu.DataSize-4, 0)
}

// TestImageFlipErrors: image injections naming no word of the image
// segments, or no image region, are refused and change nothing.
func TestImageFlipErrors(t *testing.T) {
	prog := testProg(t)
	bad := []cpu.StateBit{
		{Region: cpu.RegionImageCode, Element: "word-1"},
		{Region: cpu.RegionImageCode, Element: "word1024"},
		{Region: cpu.RegionImageData, Element: "word1024"},
		{Region: "image-bogus", Element: "word0"},
	}
	for _, sb := range bad {
		c := cpu.New(prog, nil)
		before := c.Mem.Snapshot()
		if err := c.FlipBurst(sb, 1); err == nil {
			t.Errorf("FlipBurst(%s) should fail", sb)
		}
		if err := c.FlipBurst(sb, 3); err == nil {
			t.Errorf("FlipBurst(%s, 3) should fail", sb)
		}
		if !cpu.StatesEqual(before, c.Mem.Snapshot()) {
			t.Errorf("refused injection %s changed memory", sb)
		}
	}
}

// TestImageSamplerBoundsAndCoverage: every draw names a word of the
// program image, in both regions, before instruction 0.
func TestImageSamplerBoundsAndCoverage(t *testing.T) {
	prog := testProg(t)
	s := imageSampler(t, 3, prog, "", 0)
	words := map[cpu.Region]int{cpu.RegionImageCode: len(prog.Code), cpu.RegionImageData: len(prog.Data)}
	seen := map[cpu.Region]bool{}
	for i := 0; i < 5000; i++ {
		inj := s.Next()
		e, err := cpu.ParseElement(inj.Bit.Region, inj.Bit.Element)
		if err != nil {
			t.Fatalf("sampler produced invalid element %s: %v", inj.Bit, err)
		}
		base := int(cpu.CodeBase / 4)
		if inj.Bit.Region == cpu.RegionImageData {
			base = int(cpu.DataBase / 4)
		}
		if e.N-base >= words[inj.Bit.Region] || inj.Bit.Bit >= 32 || inj.At != 0 {
			t.Fatalf("sampler drew %+v outside the program image", inj)
		}
		seen[inj.Bit.Region] = true
	}
	if len(seen) != 2 {
		t.Errorf("regions sampled: %v, want both", seen)
	}
}

func TestImageSamplerDeterministic(t *testing.T) {
	prog := testProg(t)
	a, b := imageSampler(t, 7, prog, "", 0), imageSampler(t, 7, prog, "", 0)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("samplers diverged")
		}
	}
}

func imageSampler(t *testing.T, seed uint64, prog *cpu.Program, m FaultModel, width int) *ImageSampler {
	t.Helper()
	s, err := NewImageSampler(seed, prog, m, width)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestImageSamplerModels: a burst width changes only the stamp on the
// same draws, the default burst is DefaultBurstWidth wide, a width of 1
// stamps nothing, and the runtime-only models are refused.
func TestImageSamplerModels(t *testing.T) {
	prog := testProg(t)
	plain := imageSampler(t, 7, prog, ModelBitFlip, 3) // width ignored
	one := imageSampler(t, 7, prog, ModelBurst, 1)
	def := imageSampler(t, 7, prog, ModelBurst, 0)
	burst := imageSampler(t, 7, prog, ModelBurst, 3)
	for i := 0; i < 100; i++ {
		p, o, d, b := plain.Next(), one.Next(), def.Next(), burst.Next()
		if o != p || p.Model != "" || p.Width != 0 {
			t.Fatalf("draw %d: single-bit injections %+v / %+v carry a model", i, p, o)
		}
		if d.Model != ModelBurst || d.Width != DefaultBurstWidth || d.Bit != p.Bit {
			t.Fatalf("draw %d: default burst draw %+v, want %+v stamped burst/%d", i, d, p, DefaultBurstWidth)
		}
		if b.Model != ModelBurst || b.Width != 3 || b.Bit != p.Bit {
			t.Fatalf("draw %d: burst draw %+v, want %+v stamped burst/3", i, b, p)
		}
	}
	for _, m := range []FaultModel{ModelPC, ModelTransient, "bogus"} {
		if _, err := NewImageSampler(7, prog, m, 0); err == nil {
			t.Errorf("NewImageSampler accepted model %q", m)
		}
	}
}
