package prune

import (
	"math/rand"
	"reflect"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

var _ workload.IdleMonitor = (*Capture)(nil)

// goldenCapture runs v's default golden spec, recording state hashes as
// the campaign engine does, with the capture attached by attach, and
// returns the outcome and the sealed index.
func goldenCapture(t *testing.T, v workload.Variant, attach func(*workload.RunSpec, *Capture)) (*workload.Outcome, *Index) {
	t.Helper()
	spec := workload.SpecFor(v)
	spec.RecordStateHashes = true
	c := NewCapture()
	attach(&spec, c)
	out := workload.Run(workload.Program(v), spec)
	if out.Detected() {
		t.Fatalf("%s: golden run trapped: %v", v, out.Trap)
	}
	ix := c.Finish(out.Instructions)
	if ix == nil {
		t.Fatalf("%s: Finish rejected a clean golden run", v)
	}
	return out, ix
}

func stepping(spec *workload.RunSpec, c *Capture) { spec.Observer = c.Observer() }
func idle(spec *workload.RunSpec, c *Capture)     { spec.Monitor = c }
func interpreted(spec *workload.RunSpec, c *Capture) {
	spec.Monitor = c
	spec.Interpret = true
}

// entries counts the index's stored events and periods.
func (ix *Index) entries() (events, periods int) {
	for _, evs := range ix.events {
		events += len(evs)
	}
	for _, ps := range ix.periods {
		periods += len(ps)
	}
	return events, periods
}

// TestIdleCaptureMatchesStepping proves the capture attached as an
// idle-aware monitor, which stores the fast-forwarded poll-loop trips
// as periods, equivalent to the stepping observer capture: the same
// golden outcome and instruction total, and the same fate for every
// injectable state bit at every instruction of the first, a middle and
// the last iteration (each holds a loop entry by falling through,
// stepped first and last partial trips, fast-forwarded mid-loop trips
// and the loop exit) and at 2 000 random instructions. The interpreter
// never fast-forwards, so a monitor capture under it must build the
// stepping index exactly.
func TestIdleCaptureMatchesStepping(t *testing.T) {
	bits := cpu.StateBits()
	for _, v := range workload.Variants() {
		t.Run(string(v), func(t *testing.T) {
			refOut, ref := goldenCapture(t, v, stepping)
			out, ix := goldenCapture(t, v, idle)
			intOut, intIx := goldenCapture(t, v, interpreted)

			if !reflect.DeepEqual(out, refOut) || !reflect.DeepEqual(intOut, refOut) {
				t.Fatal("the capture's attachment changed the golden outcome")
			}
			if ix.Total() != ref.Total() || ix.Total() != refOut.Instructions {
				t.Fatalf("Total: idle %d, stepping %d, run %d", ix.Total(), ref.Total(), refOut.Instructions)
			}
			if !reflect.DeepEqual(intIx, ref) {
				t.Fatal("the interpreted monitor capture differs from the stepping capture")
			}
			events, periods := ix.entries()
			refEvents, _ := ref.entries()
			if periods == 0 {
				t.Fatal("the monitor capture stored no periods: the run stepped the poll loop")
			}
			if v == workload.AlgorithmI && events+periods >= 100_000 {
				t.Errorf("Alg I index holds %d entries (%d stepping), want under 100 000", events+periods, refEvents)
			}
			t.Logf("%d events + %d periods, stepping %d events", events, periods, refEvents)

			check := func(at uint64) {
				for _, b := range bits {
					got, gok := ix.Fate(b, at)
					want, wok := ref.Fate(b, at)
					if got != want || gok != wok {
						t.Fatalf("Fate(%s at %d) = %+v, %v; stepping %+v, %v", b, at, got, gok, want, wok)
					}
				}
			}
			starts := refOut.IterationStarts
			for _, k := range []int{0, len(starts) / 2, len(starts) - 1} {
				end := refOut.Instructions
				if k+1 < len(starts) {
					end = starts[k+1]
				}
				for at := starts[k]; at < end; at++ {
					check(at)
				}
			}
			rng := rand.New(rand.NewSource(int64(len(v))))
			for i := 0; i < 2000; i++ {
				check(uint64(rng.Int63n(int64(refOut.Instructions))))
			}
		})
	}
}

// TestIdleCaptureDeclines: skipped trips that do not line up with the
// run's instruction count leave the capture unable to vouch for it, and
// an unhealthy capture accepts no skip.
func TestIdleCaptureDeclines(t *testing.T) {
	v := workload.AlgorithmI
	spec := workload.SpecFor(v)
	c := NewCapture()
	spec.Monitor = &extraTrip{Capture: c}
	out := workload.Run(workload.Program(v), spec)
	if out.Detected() {
		t.Fatalf("golden run trapped: %v", out.Trap)
	}
	if ix := c.Finish(out.Instructions); ix != nil {
		t.Error("Finish accepted a capture whose skipped trips overran the run")
	}
	if c.CanSkipPoll(cpu.CodeBase) {
		t.Error("a capture that lost count accepted a skip")
	}

	if NewCapture().CanSkipPoll(cpu.CodeBase) {
		t.Error("a capture that saw no instruction accepted a skip")
	}
}

// extraTrip accounts one trip more than the machine ran at the first
// skip.
type extraTrip struct {
	*Capture
	done bool
}

func (e *extraTrip) SkipPoll(trips uint64) {
	if !e.done {
		trips++
		e.done = true
	}
	e.Capture.SkipPoll(trips)
}
