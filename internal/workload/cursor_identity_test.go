package workload_test

import (
	"fmt"
	"sort"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// TestCursorForkIdentity is the prefix engine's identity pin: for every
// variant, fault model and detector selection (none, cfe, automaton,
// cfe+automaton), lanes forked off one golden cursor — in iteration 0,
// at an iteration's first instruction, inside the poll loop, twice at
// one instruction and later on — equal the solo predecoded run and the
// interpreted run of the same injection, outcome and final monitor
// state alike, with the golden splice on. Injections at or past the
// fault-free run's end are declined.
func TestCursorForkIdentity(t *testing.T) {
	models := []workload.FaultModel{workload.ModelBitFlip, workload.ModelPC, workload.ModelTransient, workload.ModelBurst}
	bits := []cpu.StateBit{
		{Region: cpu.RegionRegisters, Element: "r1", Bit: 2},
		{Region: cpu.RegionRegisters, Element: "pc", Bit: 3},
		{Region: cpu.RegionCache, Element: "line1.data0", Bit: 20},
		{Region: cpu.RegionRegisters, Element: "flagZ", Bit: 0},
		{Region: cpu.RegionRegisters, Element: "r5", Bit: 31},
	}
	for _, v := range workload.Variants() {
		t.Run(string(v), func(t *testing.T) {
			prog := workload.Program(v)
			spec := workload.SpecFor(v)
			spec.Iterations = 24
			families := append([]detectorFamily{{"none", nil}}, detectorFamilies(prog, spec)...)
			loop := workload.IdleSlots(t, prog, spec, 6, 3)
			for _, fam := range families {
				newMon := func() workload.Monitor {
					if fam.new == nil {
						return nil
					}
					return fam.new()
				}
				goldenSpec := spec
				goldenSpec.Monitor = newMon()
				goldenSpec.RecordStateHashes = true
				golden := workload.Run(prog, goldenSpec)
				if golden.Detected() {
					t.Fatalf("%s: golden run trapped: %v", fam.name, golden.Trap)
				}
				starts := golden.IterationStarts
				ats := []uint64{
					0, starts[0] + 17, // iteration 0
					starts[3],        // an iteration's first instruction
					loop[1], loop[3], // the poll loop's LD and BEQ
					starts[11] + 50, starts[11] + 50, // one instruction twice
					starts[20] + 5,
					golden.Instructions, golden.Instructions + 7, // past the end
				}
				sort.Slice(ats, func(a, b int) bool { return ats[a] < ats[b] })
				for _, m := range models {
					cursorSpec := spec
					cursorSpec.Monitor = newMon()
					cur, err := workload.NewCursor(prog, cursorSpec)
					if err != nil {
						t.Fatal(err)
					}
					for i, at := range ats {
						inj := workload.Injection{At: at, Bit: bits[i%len(bits)], Model: m}
						if m == workload.ModelBurst {
							inj.Width = 3
						}
						label := fmt.Sprintf("%s/%s at %d %s", fam.name, m, at, inj.Bit)
						lane := func(interpret bool) workload.RunSpec {
							s := spec
							s.Injection, s.Golden, s.Interpret, s.Monitor = &inj, golden, interpret, newMon()
							return s
						}
						forked := lane(false)
						got := cur.Fork(forked)
						if at >= golden.Instructions {
							if got != nil {
								t.Fatalf("%s: forked past the run's end", label)
							}
							continue
						}
						if got == nil {
							t.Fatalf("%s: cursor declined", label)
						}
						workload.RequireSameOutcome(t, label+" vs solo", got, workload.Run(prog, lane(false)))
						interp := lane(true)
						workload.RequireSameOutcome(t, label+" vs interpreted", got, workload.Run(prog, interp))
						if fam.new != nil {
							gs, _ := forked.Monitor.(workload.StatefulMonitor).MonitorState()
							ws, _ := interp.Monitor.(workload.StatefulMonitor).MonitorState()
							if gs != ws {
								t.Fatalf("%s: final monitor state %x, interpreted %x", label, gs, ws)
							}
						}
					}
				}
			}
		})
	}
}
