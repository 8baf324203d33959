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
// stacked, a run resumed from a checkpoint captured under the monitor,
// with the monitored golden run as its splice reference, equals the
// full monitored run for random injections under several fault models.
// A stack with a member that cannot report its state (a Collector)
// takes neither fast path and still equals its full run.
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

		checkpoints := map[int]*workload.Checkpoint{}
		var resumed, spliced, trapped int
		for mi, m := range models {
			sampler, err := inject.NewModelSampler(uint64(100*fi+mi+1), golden.Instructions, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 15; i++ {
				inj := sampler.Next()
				run := spec
				run.Injection = &inj
				run.Monitor = fam.new()
				full := workload.Run(prog, run)

				k := sort.Search(len(golden.IterationStarts), func(i int) bool {
					return golden.IterationStarts[i] > inj.At
				}) - 1
				fast := spec
				fast.Injection = &inj
				fast.Monitor = fam.new()
				fast.Golden = golden
				if k > 0 && !fam.stateless {
					ck, ok := checkpoints[k]
					if !ok {
						capSpec := spec
						capSpec.Monitor = fam.new()
						if ck, err = workload.CaptureCheckpoint(prog, capSpec, k); err != nil {
							t.Fatalf("%s: capture at %d: %v", fam.name, k, err)
						}
						checkpoints[k] = ck
					}
					fast.From = ck
					resumed++
				}
				got := workload.Run(prog, fast)
				sameOutcome(t, fam.name+"/"+string(m), got, full)
				if got.ReconvergedAt != 0 {
					spliced++
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
			if _, err := workload.CaptureCheckpoint(prog, goldenSpec, 10); err == nil {
				t.Errorf("%s: captured a checkpoint under a monitor that cannot report its state", fam.name)
			}
			continue
		}
		if resumed == 0 || spliced == 0 || trapped == 0 {
			t.Errorf("%s: %d resumed, %d spliced, %d trapped: the fast paths went unexercised",
				fam.name, resumed, spliced, trapped)
		}
	}
}

// TestCheckpointWithoutMonitorStateRejectedByMonitoredRun: a checkpoint
// captured without a monitor froze no monitor state, so a monitored run
// replays in full rather than resume with a fresh monitor mid-run (a
// fresh signature monitor would trap on its first instruction there).
func TestCheckpointWithoutMonitorStateRejectedByMonitoredRun(t *testing.T) {
	v := workload.AlgorithmI
	prog := workload.Program(v)
	spec := workload.SpecFor(v)
	spec.Iterations = 40
	ck, err := workload.CaptureCheckpoint(prog, spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	run := spec
	run.Monitor = detect.NewCFMonitor(detect.NewBlockGraph(prog))
	run.From = ck
	if out := workload.Run(prog, run); out.Trap != nil {
		t.Fatalf("monitored run resumed from an unmonitored checkpoint: %v", out.Trap)
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
	ck, err := workload.CaptureCheckpoint(prog, capSpec, 10)
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
	fast.From = ck
	got := workload.Run(prog, fast)
	if got.ReconvergedAt != 0 {
		t.Errorf("monitored run spliced at iteration %d with the latch set", got.ReconvergedAt)
	}
	sameOutcome(t, "latch", got, want)
}
