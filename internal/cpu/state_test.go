package cpu

import (
	"fmt"
	"testing"
)

// elemName spells e the way StateBits does.
func elemName(e Elem) string {
	switch e.Kind {
	case ElemReg:
		return fmt.Sprintf("r%d", e.N)
	case ElemPC:
		return "pc"
	case ElemFlagZ:
		return "flagZ"
	case ElemFlagLT:
		return "flagLT"
	case ElemTag:
		return fmt.Sprintf("line%d.tag", e.N)
	case ElemValid:
		return fmt.Sprintf("line%d.valid", e.N)
	case ElemDirty:
		return fmt.Sprintf("line%d.dirty", e.N)
	default:
		return fmt.Sprintf("line%d.data%d", e.N, e.Word)
	}
}

// TestParseElementRoundTrip requires every element StateBits enumerates
// to parse back to itself, and every bit of it to be readable and
// flippable.
func TestParseElementRoundTrip(t *testing.T) {
	seen := make(map[Elem]bool)
	c := New(&Program{}, nil)
	for _, sb := range StateBits() {
		e, err := ParseElement(sb.Region, sb.Element)
		if err != nil {
			t.Fatalf("%s: %v", sb, err)
		}
		if got := elemName(e); got != sb.Element {
			t.Fatalf("%s parsed to %+v, which spells %q", sb, e, got)
		}
		seen[e] = true
		before, err := c.StateBitValue(sb)
		if err != nil {
			t.Fatalf("StateBitValue(%s): %v", sb, err)
		}
		if err := c.FlipBit(sb); err != nil {
			t.Fatalf("FlipBit(%s): %v", sb, err)
		}
		if after, _ := c.StateBitValue(sb); after == before {
			t.Fatalf("FlipBit(%s) did not invert the bit", sb)
		}
	}
	// 15 registers, pc, 2 flags; per line tag, valid, dirty and the words.
	if want := 15 + 3 + CacheLines*(3+cacheWords); len(seen) != want {
		t.Fatalf("StateBits names %d distinct elements, want %d", len(seen), want)
	}
}

// TestParseElementRejectsMalformed requires an error for every name
// StateBits cannot spell, including the trailing junk, signs and
// leading zeros fmt.Sscanf used to accept.
func TestParseElementRejectsMalformed(t *testing.T) {
	bad := map[Region][]string{
		RegionRegisters: {
			"", "r", "r0", "r16", "r99", "r5x", "r05", "r+5", "r-1", " r5", "r5 ",
			"pc0", "PC", "flagz", "line0.tag",
		},
		RegionCache: {
			"", "line", "line.tag", "line99.tag", "line8.tag", "line-1.tag", "line03.tag",
			"line3", "line3.", "line3.tag.x", "line3.tagx", "line0.data9", "line0.data4",
			"line0.data", "line0.data02", "line0.data+1", "line0.datax", "r5", "pc",
		},
		// Image words are bounded by their segment, not the program.
		RegionImageCode: {"", "word", "word-1", "word01", "word1024", "word+3", "r5", "line0.tag"},
		RegionImageData: {"", "word", "word-1", "word1024", "word 1", "pc"},
		"memory":        {"r5", "line0.tag"},
	}
	c := New(&Program{}, nil)
	for region, names := range bad {
		for _, name := range names {
			if e, err := ParseElement(region, name); err == nil {
				t.Errorf("ParseElement(%s, %q) = %+v, want an error", region, name, e)
			}
			sb := StateBit{Region: region, Element: name}
			if err := c.FlipBit(sb); err == nil {
				t.Errorf("FlipBit(%s) accepted a malformed element", sb)
			}
			if _, err := c.StateBitValue(sb); err == nil {
				t.Errorf("StateBitValue(%s) accepted a malformed element", sb)
			}
		}
	}
}

// TestStateBitsExcludeImage: the SCIFI location space is CPU state
// only, so adding the image regions moved no sampler draw.
func TestStateBitsExcludeImage(t *testing.T) {
	for _, b := range StateBits() {
		if b.Region != RegionRegisters && b.Region != RegionCache {
			t.Fatalf("StateBits lists %s", b)
		}
	}
}

// TestImageBurstWrapsAtBit31: an image burst inverts adjacent bits of
// one word, wrapping past bit 31 rather than spilling into the next.
func TestImageBurstWrapsAtBit31(t *testing.T) {
	c := New(&Program{Code: []uint32{0, 0}}, nil)
	if err := c.FlipBurst(StateBit{RegionImageCode, "word0", 31}, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Mem.ReadWord(CodeBase), uint32(1<<31|1); got != want {
		t.Errorf("burst word = %#x, want %#x", got, want)
	}
	if got := c.Mem.ReadWord(CodeBase + 4); got != 0 {
		t.Errorf("burst spilled into the next word: %#x", got)
	}
	if got, want := BurstMask(5, 1), uint32(1<<5); got != want {
		t.Errorf("single-bit BurstMask = %#x, want %#x", got, want)
	}
	if got, want := BurstMask(0, 64), uint32(0xFFFFFFFF); got != want {
		t.Errorf("over-wide BurstMask = %#x, want %#x", got, want)
	}
}
