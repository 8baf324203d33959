package cpu

import (
	"fmt"
	"strconv"
	"strings"
)

// Region partitions the injectable state elements the way the paper's
// Table 2 does: faults into the data cache versus faults into all other
// parts of the CPU ("Registers"). The two image regions are the loaded
// program image, the target of pre-runtime SWIFI (§3.3.1): flipping one
// of their words before instruction 0 is loading a mutated image, as
// the cache is empty and the registers are reset then. StateBits leaves
// them out, so only the SWIFI sampler draws them.
type Region string

// Injection regions.
const (
	RegionCache     Region = "cache"
	RegionRegisters Region = "registers"
	RegionImageCode Region = "image-code"
	RegionImageData Region = "image-data"
)

// StateBit identifies one injectable bit of CPU state.
type StateBit struct {
	Region  Region
	Element string // e.g. "r5", "pc", "line3.tag", "line2.data1"
	Bit     uint   // bit position within the element
}

// String renders the bit as element[bit].
func (b StateBit) String() string {
	return fmt.Sprintf("%s/%s[%d]", b.Region, b.Element, b.Bit)
}

// StateBits enumerates every injectable state bit of the CPU, in a
// stable order: first the register region (r1..r15, PC, the two
// condition flags), then the cache region (per line: tag, valid, dirty,
// data words). r0 is excluded because it is hardwired to zero.
func StateBits() []StateBit {
	var bits []StateBit
	for r := 1; r < 16; r++ {
		for b := uint(0); b < 32; b++ {
			bits = append(bits, StateBit{RegionRegisters, fmt.Sprintf("r%d", r), b})
		}
	}
	for b := uint(0); b < 32; b++ {
		bits = append(bits, StateBit{RegionRegisters, "pc", b})
	}
	bits = append(bits,
		StateBit{RegionRegisters, "flagZ", 0},
		StateBit{RegionRegisters, "flagLT", 0},
	)
	for l := 0; l < CacheLines; l++ {
		for b := uint(0); b < tagBits; b++ {
			bits = append(bits, StateBit{RegionCache, fmt.Sprintf("line%d.tag", l), b})
		}
		bits = append(bits,
			StateBit{RegionCache, fmt.Sprintf("line%d.valid", l), 0},
			StateBit{RegionCache, fmt.Sprintf("line%d.dirty", l), 0},
		)
		for w := 0; w < cacheWords; w++ {
			for b := uint(0); b < 32; b++ {
				bits = append(bits, StateBit{RegionCache, fmt.Sprintf("line%d.data%d", l, w), b})
			}
		}
	}
	return bits
}

// ElemKind names which part of the machine a state element is.
type ElemKind uint8

// State element kinds.
const (
	ElemReg    ElemKind = iota // "rN", N in 1..15
	ElemPC                     // "pc"
	ElemFlagZ                  // "flagZ"
	ElemFlagLT                 // "flagLT"
	ElemTag                    // "lineL.tag"
	ElemValid                  // "lineL.valid"
	ElemDirty                  // "lineL.dirty"
	ElemData                   // "lineL.dataW"
	ElemWord                   // "wordN" of an image region
)

// Elem is a parsed state element name.
type Elem struct {
	Kind ElemKind
	N    int // register number (ElemReg), cache line (the cache kinds) or memory word index (ElemWord)
	Word int // data word within the line (ElemData)
}

// ParseElement parses the name of a state element of region, in the
// exact form StateBits spells it: no signs, leading zeros or trailing
// characters, and every index in range.
func ParseElement(region Region, name string) (Elem, error) {
	switch region {
	case RegionRegisters:
		switch name {
		case "pc":
			return Elem{Kind: ElemPC}, nil
		case "flagZ":
			return Elem{Kind: ElemFlagZ}, nil
		case "flagLT":
			return Elem{Kind: ElemFlagLT}, nil
		}
		if r, ok := elemIndex(name, "r", 16); ok && r > 0 {
			return Elem{Kind: ElemReg, N: r}, nil
		}
		return Elem{}, fmt.Errorf("cpu: bad register element %q", name)
	case RegionCache:
		line, field, _ := strings.Cut(name, ".")
		if l, ok := elemIndex(line, "line", CacheLines); ok {
			switch field {
			case "tag":
				return Elem{Kind: ElemTag, N: l}, nil
			case "valid":
				return Elem{Kind: ElemValid, N: l}, nil
			case "dirty":
				return Elem{Kind: ElemDirty, N: l}, nil
			}
			if w, ok := elemIndex(field, "data", cacheWords); ok {
				return Elem{Kind: ElemData, N: l, Word: w}, nil
			}
		}
		return Elem{}, fmt.Errorf("cpu: bad cache element %q", name)
	case RegionImageCode:
		if w, ok := elemIndex(name, "word", int(CodeSize/4)); ok {
			return Elem{Kind: ElemWord, N: int(CodeBase/4) + w}, nil
		}
		return Elem{}, fmt.Errorf("cpu: bad code image element %q", name)
	case RegionImageData:
		if w, ok := elemIndex(name, "word", int(DataSize/4)); ok {
			return Elem{Kind: ElemWord, N: int(DataBase/4) + w}, nil
		}
		return Elem{}, fmt.Errorf("cpu: bad data image element %q", name)
	default:
		return Elem{}, fmt.Errorf("cpu: unknown region %q", region)
	}
}

// elemIndex parses s as prefix followed by a canonical decimal below n.
func elemIndex(s, prefix string, n int) (int, bool) {
	digits, ok := strings.CutPrefix(s, prefix)
	if !ok || digits == "" || digits[0] < '0' || digits[0] > '9' ||
		len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	v, err := strconv.Atoi(digits)
	return v, err == nil && v < n
}

// FlipBit inverts the given state bit, the single-bit-flip fault model
// of the paper (SCIFI: read the scan chain, invert the bit, write it
// back).
func (c *CPU) FlipBit(sb StateBit) error {
	e, err := ParseElement(sb.Region, sb.Element)
	if err != nil {
		return err
	}
	switch e.Kind {
	case ElemReg:
		c.Regs[e.N] ^= 1 << sb.Bit
	case ElemPC:
		c.PC ^= 1 << sb.Bit
	case ElemFlagZ:
		c.FlagZ = !c.FlagZ
	case ElemFlagLT:
		c.FlagLT = !c.FlagLT
	case ElemTag:
		c.Cache.lines[e.N].tag ^= 1 << sb.Bit
	case ElemValid:
		c.Cache.lines[e.N].valid = !c.Cache.lines[e.N].valid
	case ElemDirty:
		c.Cache.lines[e.N].dirty = !c.Cache.lines[e.N].dirty
	case ElemData:
		c.Cache.lines[e.N].data[e.Word] ^= 1 << sb.Bit
	case ElemWord:
		c.flipWord(e.N, 1<<sb.Bit)
	}
	return nil
}

// flipWord inverts mask in memory word i. A code word is executed
// through the attached predecoded stream, so the machine moves to a
// copy with that slot recompiled (AttachDecoded's invariant keeps
// holding); the shared stream is never written.
func (c *CPU) flipWord(i int, mask uint32) {
	c.Mem.words[i] ^= mask
	if c.dec != nil && i < int(CodeSize/4) {
		c.dec = c.dec.patch(i, c.Mem.words[i])
	}
}

// BurstMask returns the mask of width adjacent bits of a 32-bit word
// starting at bit and wrapping past bit 31; width is clamped to
// [1, 32].
func BurstMask(bit uint, width int) uint32 {
	width = max(1, min(width, 32))
	var m uint32
	for i := 0; i < width; i++ {
		m |= 1 << ((bit + uint(i)) % 32)
	}
	return m
}

// StateBitWidth returns the number of bits the element holding sb can
// store: 1 for the flags and the cache line valid/dirty bits, the tag
// width for cache tags, and the 32-bit word width otherwise (malformed
// names included, which FlipBit rejects). Burst
// faults wrap within this width, so a burst never spills into a
// neighbouring element.
func StateBitWidth(sb StateBit) uint {
	e, err := ParseElement(sb.Region, sb.Element)
	if err != nil {
		return 32
	}
	switch e.Kind {
	case ElemFlagZ, ElemFlagLT, ElemValid, ElemDirty:
		return 1
	case ElemTag:
		return tagBits
	default:
		return 32
	}
}

// StateBitValue reads the current value of one state bit without
// perturbing the machine, for the transient fault model's
// flip-then-restore bookkeeping.
func (c *CPU) StateBitValue(sb StateBit) (bool, error) {
	e, err := ParseElement(sb.Region, sb.Element)
	if err != nil {
		return false, err
	}
	switch e.Kind {
	case ElemReg:
		return c.Regs[e.N]&(1<<sb.Bit) != 0, nil
	case ElemPC:
		return c.PC&(1<<sb.Bit) != 0, nil
	case ElemFlagZ:
		return c.FlagZ, nil
	case ElemFlagLT:
		return c.FlagLT, nil
	case ElemTag:
		return c.Cache.lines[e.N].tag&(1<<sb.Bit) != 0, nil
	case ElemValid:
		return c.Cache.lines[e.N].valid, nil
	case ElemDirty:
		return c.Cache.lines[e.N].dirty, nil
	case ElemWord:
		return c.Mem.words[e.N]&(1<<sb.Bit) != 0, nil
	default: // ElemData
		return c.Cache.lines[e.N].data[e.Word]&(1<<sb.Bit) != 0, nil
	}
}

// FlipBurst inverts width adjacent bits of the element holding sb,
// starting at sb.Bit and wrapping within the element's width — the
// multi-bit burst fault model. width <= 1 degenerates to FlipBit.
func (c *CPU) FlipBurst(sb StateBit, width int) error {
	if width <= 1 {
		return c.FlipBit(sb)
	}
	if e, err := ParseElement(sb.Region, sb.Element); err == nil && e.Kind == ElemWord {
		c.flipWord(e.N, BurstMask(sb.Bit, width)) // one patch of the stream
		return nil
	}
	w := StateBitWidth(sb)
	if uint(width) > w {
		width = int(w)
	}
	for i := 0; i < width; i++ {
		b := sb
		b.Bit = (sb.Bit + uint(i)) % w
		if err := c.FlipBit(b); err != nil {
			return err
		}
	}
	return nil
}

// FinalState captures the architecturally visible end-of-run state for
// the latent-versus-overwritten comparison of §4.1: registers, flags,
// PC, and the effective memory contents (memory overlaid with dirty
// cache lines). Traps during the overlay (corrupted tags) are folded
// into the snapshot rather than raised, because the run is already
// over.
func (c *CPU) FinalState() []uint32 {
	out := make([]uint32, 0, 16+2+int(MemSize/4))
	for r := 1; r < 16; r++ {
		out = append(out, c.Regs[r])
	}
	out = append(out, c.PC, boolWord(c.FlagZ)<<1|boolWord(c.FlagLT))

	mem := c.Mem.Snapshot()
	for idx := range c.Cache.lines {
		line := &c.Cache.lines[idx]
		if !line.valid || !line.dirty {
			continue
		}
		base := lineBase(line.tag, idx)
		if SegmentOf(base) != SegData {
			// The corrupted line cannot be written back; record
			// its contents at the end so the difference is still
			// visible as state divergence.
			out = append(out, line.data[:]...)
			continue
		}
		for w := 0; w < cacheWords; w++ {
			mem[(base+uint32(w*4))/4] = line.data[w]
		}
	}
	return append(out, mem...)
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// StatesEqual compares two FinalState snapshots.
func StatesEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
