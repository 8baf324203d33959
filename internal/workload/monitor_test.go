package workload_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/workload"
)

// sameOutcome requires got to deep-equal want — traps by mechanism, PC
// and info — except for ReconvergedAt, which only records how got was
// computed. Float traces compare by bits, so NaNs count as equal.
func sameOutcome(t *testing.T, label string, got, want *workload.Outcome) {
	t.Helper()
	bitsEqual := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	g, w := *got, *want
	if len(g.MultiOutputs) != len(w.MultiOutputs) {
		t.Fatalf("%s: %d output ports, want %d", label, len(g.MultiOutputs), len(w.MultiOutputs))
	}
	for j := range w.MultiOutputs {
		if !bitsEqual(g.MultiOutputs[j], w.MultiOutputs[j]) {
			t.Errorf("%s: output port %d differs", label, j)
		}
	}
	if !bitsEqual(g.Speeds, w.Speeds) {
		t.Errorf("%s: speeds differ", label)
	}
	g.ReconvergedAt = 0
	g.Outputs, g.MultiOutputs, g.Speeds = nil, nil, nil
	w.Outputs, w.MultiOutputs, w.Speeds = nil, nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: outcome differs: trap %v at iteration %d after %d instructions, want trap %v at %d after %d",
			label, g.Trap, g.TrapIteration, g.Instructions, w.Trap, w.TrapIteration, w.Instructions)
	}
}

// TestMonitoredResumeAndSpliceMatchFullRun pins the monitored fast
// paths: under signature monitoring, the mined automaton and both
// stacked, a lane forked off a cursor running under the monitor, with
// the monitored golden run as its splice reference, equals the full
// monitored run for random injections under several fault models, and
// so does its monitor's final state. A stack with a member that cannot
// report its state (a Collector) gets no cursor and no splice, and
// still equals its full run.
func TestMonitoredResumeAndSpliceMatchFullRun(t *testing.T) {
	v := workload.AlgorithmII
	prog := workload.Program(v)
	spec := workload.SpecFor(v)
	spec.Iterations = 120

	coll := detect.NewCollector(prog)
	mined := spec
	mined.Monitor = coll
	workload.Run(prog, mined)
	automaton := detect.MineSeries(coll.Series, detect.MineOptions{})
	graph := detect.NewBlockGraph(prog)

	families := []struct {
		name      string
		new       func() workload.Monitor
		stateless bool
	}{
		{"cfe", func() workload.Monitor { return detect.NewCFMonitor(graph) }, false},
		{"automaton", func() workload.Monitor { return detect.NewAutomatonMonitor(prog, automaton) }, false},
		{"cfe+automaton", func() workload.Monitor {
			return detect.Stack{detect.NewCFMonitor(graph), detect.NewAutomatonMonitor(prog, automaton)}
		}, false},
		{"cfe+collector", func() workload.Monitor {
			return detect.Stack{detect.NewCFMonitor(graph), detect.NewCollector(prog)}
		}, true},
	}
	models := []inject.FaultModel{workload.ModelBitFlip, workload.ModelPC, workload.ModelTransient, workload.ModelBurst}

	for fi, fam := range families {
		goldenSpec := spec
		goldenSpec.Monitor = fam.new()
		goldenSpec.RecordStateHashes = true
		golden := workload.Run(prog, goldenSpec)
		if golden.Detected() {
			t.Fatalf("%s: golden run trapped: %v", fam.name, golden.Trap)
		}
		if fam.stateless != (golden.MonitorStates == nil) {
			t.Fatalf("%s: %d monitor states recorded", fam.name, len(golden.MonitorStates))
		}

		cursorSpec := spec
		cursorSpec.Monitor = fam.new()
		if _, err := workload.NewCursor(prog, cursorSpec); fam.stateless != (err != nil) {
			t.Fatalf("%s: NewCursor error %v", fam.name, err)
		}
		var forked, spliced, trapped int
		for mi, m := range models {
			sampler, err := inject.NewModelSampler(uint64(100*fi+mi+1), golden.Instructions, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			injs := make([]workload.Injection, 15)
			for i := range injs {
				injs[i] = sampler.Next()
			}
			sort.Slice(injs, func(a, b int) bool { return injs[a].At < injs[b].At })
			cursorSpec.Monitor = fam.new()
			cur, _ := workload.NewCursor(prog, cursorSpec)
			for _, inj := range injs {
				run := spec
				run.Injection = &inj
				fullMon := fam.new()
				run.Monitor = fullMon
				full := workload.Run(prog, run)

				fast := run
				fastMon := fam.new()
				fast.Monitor = fastMon
				fast.Golden = golden
				var got *workload.Outcome
				if cur != nil {
					if got = cur.Fork(fast); got == nil {
						t.Fatalf("%s: cursor declined the injection at %d", fam.name, inj.At)
					}
					forked++
				} else {
					got = workload.Run(prog, fast)
				}
				sameOutcome(t, fam.name+"/"+string(m), got, full)
				if got.ReconvergedAt != 0 {
					spliced++
				} else if sm, ok := fullMon.(workload.StatefulMonitor); ok {
					gs, _ := fastMon.(workload.StatefulMonitor).MonitorState()
					ws, _ := sm.MonitorState()
					if gs != ws {
						t.Errorf("%s/%s: final monitor state %x, full run %x", fam.name, m, gs, ws)
					}
				}
				if full.Trap != nil {
					trapped++
				}
			}
		}
		if fam.stateless {
			if spliced != 0 {
				t.Errorf("%s: %d runs spliced under a monitor that cannot report its state", fam.name, spliced)
			}
			continue
		}
		if forked == 0 || spliced == 0 || trapped == 0 {
			t.Errorf("%s: %d forked, %d spliced, %d trapped: the fast paths went unexercised",
				fam.name, forked, spliced, trapped)
		}
	}
}

// TestCheckpointWithoutMonitorStateRejectedByMonitoredRun: a cursor
// running without a monitor has no monitor state to hand on, so it
// declines a monitored lane rather than fork it with a fresh monitor
// mid-run (a fresh signature monitor would trap on its first
// instruction there); the caller's full run is clean.
func TestCheckpointWithoutMonitorStateRejectedByMonitoredRun(t *testing.T) {
	v := workload.AlgorithmI
	prog := workload.Program(v)
	spec := workload.SpecFor(v)
	spec.Iterations = 40
	golden := workload.Run(prog, spec)
	cur, err := workload.NewCursor(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	run := spec
	run.Monitor = detect.NewCFMonitor(detect.NewBlockGraph(prog))
	run.Injection = &workload.Injection{At: golden.IterationStarts[20],
		Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r13", Bit: 0}}
	if cur.Fork(run) != nil {
		t.Fatal("an unmonitored cursor forked a monitored lane")
	}
	if out := workload.Run(prog, run); out.Trap != nil {
		t.Fatalf("monitored full run trapped: %v", out.Trap)
	}
}

// latchMonitor is a monitor whose state can diverge while the machine
// re-converges: it latches once r13, which the engine workload never
// uses, reads non-zero, and traps at the last iteration if latched.
type latchMonitor struct {
	last    int
	latched bool
}

func (m *latchMonitor) OnInstr(_ int, _ uint64, vm *cpu.CPU) *cpu.TrapError {
	if vm.Regs[13] != 0 {
		m.latched = true
	}
	return nil
}

func (m *latchMonitor) OnIteration(k int, _ *cpu.CPU) *cpu.TrapError {
	if m.latched && k == m.last {
		return &cpu.TrapError{Mech: cpu.MechConstraint, Info: "latched"}
	}
	return nil
}

func (m *latchMonitor) MonitorState() (string, bool) {
	if m.latched {
		return "1", true
	}
	return "0", true
}

func (m *latchMonitor) RestoreMonitorState(s string) {
	m.latched = s == "1"
}

// TestSpliceRequiresEqualMonitorState: a transient flip of an unused
// register washes out of the machine, so an unmonitored run splices the
// golden remainder, but it leaves the latch set; a monitored run must
// then run on to the latch's trap rather than splice the golden
// remainder.
func TestSpliceRequiresEqualMonitorState(t *testing.T) {
	v := workload.AlgorithmI
	prog := workload.Program(v)
	spec := workload.SpecFor(v)
	spec.Iterations = 60
	newMon := func() workload.Monitor { return &latchMonitor{last: spec.Iterations - 1} }

	goldenSpec := spec
	goldenSpec.Monitor = newMon()
	goldenSpec.RecordStateHashes = true
	golden := workload.Run(prog, goldenSpec)
	if golden.Detected() {
		t.Fatalf("golden run trapped: %v", golden.Trap)
	}
	inj := workload.Injection{
		At:    golden.IterationStarts[10] + 5,
		Bit:   cpu.StateBit{Region: cpu.RegionRegisters, Element: "r13", Bit: 0},
		Model: workload.ModelTransient,
	}

	plain := spec
	plain.Injection = &inj
	plain.Golden = golden
	if out := workload.Run(prog, plain); out.ReconvergedAt == 0 || out.Detected() {
		t.Fatalf("unmonitored run: reconverged at %d, trap %v; want a clean splice", out.ReconvergedAt, out.Trap)
	}

	capSpec := spec
	capSpec.Monitor = newMon()
	cur, err := workload.NewCursor(prog, capSpec)
	if err != nil {
		t.Fatal(err)
	}
	full := spec
	full.Injection = &inj
	full.Monitor = newMon()
	want := workload.Run(prog, full)
	if want.Trap == nil || want.Trap.Info != "latched" {
		t.Fatalf("full monitored run: trap %v, want the latch", want.Trap)
	}
	fast := full
	fast.Monitor = newMon()
	fast.Golden = golden
	got := cur.Fork(fast)
	if got == nil {
		t.Fatal("cursor declined the injection")
	}
	if got.ReconvergedAt != 0 {
		t.Errorf("monitored run spliced at iteration %d with the latch set", got.ReconvergedAt)
	}
	sameOutcome(t, "latch", got, want)
}
