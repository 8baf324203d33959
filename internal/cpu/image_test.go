package cpu_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// TestImageCodeFlipMatchesPredecode: flipping a code-image word of a
// predecoded machine moves it to exactly the stream Predecode builds
// for the flipped image, for every code word of every workload program
// at bits 0, 13 and 31 and as a width-2 burst across bit 31, and never
// writes the shared stream. A run flipped that way before instruction
// 0 equals an interpreted run of the flipped image.
func TestImageCodeFlipMatchesPredecode(t *testing.T) {
	flips := []struct {
		bit   uint
		width int
	}{{0, 1}, {13, 1}, {31, 1}, {31, 2}}
	for _, v := range workload.Variants() {
		prog := workload.Program(v)
		shared := cpu.PredecodeCached(prog)
		spec := workload.SpecFor(v)
		spec.Iterations = 3
		for w := range prog.Code {
			for _, f := range flips {
				sb := cpu.StateBit{Region: cpu.RegionImageCode, Element: fmt.Sprintf("word%d", w), Bit: f.bit}
				flipped := &cpu.Program{Code: slices.Clone(prog.Code), Data: prog.Data}
				flipped.Code[w] ^= cpu.BurstMask(f.bit, f.width)

				vm := cpu.New(prog, nil)
				if !vm.AttachDecoded(shared) {
					t.Fatalf("%s: AttachDecoded rejected the program's own stream", v)
				}
				if err := vm.FlipBurst(sb, f.width); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(vm.AttachedDecoded(), cpu.Predecode(flipped)) {
					t.Fatalf("%s %s width %d: patched stream differs from Predecode of the flipped image", v, sb, f.width)
				}

				inj := workload.Injection{Bit: sb}
				if f.width > 1 {
					inj.Model, inj.Width = workload.ModelBurst, f.width
				}
				s := spec
				s.Injection = &inj
				got := workload.Run(prog, s)
				s.Injection, s.Interpret = nil, true
				if want := workload.Run(flipped, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s width %d: predecoded run with the flip differs from the interpreted flipped image", v, sb, f.width)
				}
			}
		}
		if !reflect.DeepEqual(shared, cpu.Predecode(prog)) {
			t.Fatalf("%s: a flip wrote the shared stream", v)
		}
	}
}
