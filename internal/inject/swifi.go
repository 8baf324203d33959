package inject

import (
	"fmt"
	"strconv"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/stats"
	"ctrlguard/internal/workload"
)

// Pre-runtime Software-Implemented Fault Injection (SWIFI), the second
// injection technique GOOFI supports (§3.3.1 of the paper): the fault
// is inserted into the program image before the run starts, modelling a
// corrupted instruction or initialised variable in memory, rather than
// a transient bit-flip during execution. An image fault is an ordinary
// injection at instruction 0 on an image region (cpu.RegionImageCode,
// cpu.RegionImageData).

// ImageSampler draws SWIFI faults uniformly over every bit of the
// program image (code and initialised data together).
type ImageSampler struct {
	rng       *stats.RNG
	codeWords int
	dataWords int
	width     int // burst span stamped on drawn injections (<= 1: single bit)
}

// NewImageSampler creates a sampler over prog's image for the given
// fault model. A stored image admits only the permanent models: single
// bit-flips and bursts of width bits (0 = DefaultBurstWidth). The burst
// width changes only what is stamped on the draws, so burst campaigns
// hit the same (word, bit) sites as single-bit ones for the same seed.
func NewImageSampler(seed uint64, prog *cpu.Program, model FaultModel, width int) (*ImageSampler, error) {
	s := &ImageSampler{
		rng:       stats.NewRNG(seed),
		codeWords: len(prog.Code),
		dataWords: len(prog.Data),
	}
	switch model = model.Canonical(); model {
	case ModelBitFlip:
	case ModelBurst:
		s.width = width
		if width <= 0 {
			s.width = DefaultBurstWidth
		}
	default:
		return nil, fmt.Errorf("inject: SWIFI supports the %q and %q fault models, not %q (runtime-only)",
			ModelBitFlip, ModelBurst, model)
	}
	return s, nil
}

// Next draws one image fault. Model and Width are stamped only for a
// burst wider than one bit, so a width-1 burst campaign records exactly
// what a bit-flip campaign does.
func (s *ImageSampler) Next() workload.Injection {
	w := s.rng.Intn(s.codeWords + s.dataWords)
	inj := workload.Injection{Bit: cpu.StateBit{Region: cpu.RegionImageCode, Bit: uint(s.rng.Intn(32))}}
	if w >= s.codeWords {
		inj.Bit.Region, w = cpu.RegionImageData, w-s.codeWords
	}
	inj.Bit.Element = "word" + strconv.Itoa(w)
	if s.width > 1 {
		inj.Model, inj.Width = workload.ModelBurst, s.width
	}
	return inj
}
