package trace

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// fig7Injection returns the paper's Figure 7 fault for a variant: bit
// 28 of the cached state variable's high word, flipped early in
// control iteration 300.
func fig7Injection(t *testing.T, v workload.Variant) workload.Injection {
	t.Helper()
	golden := workload.Run(workload.Program(v), workload.PaperRunSpec())
	if golden.Detected() {
		t.Fatalf("golden run trapped: %v", golden.Trap)
	}
	return workload.Injection{
		At:  golden.IterationStarts[300] + 1,
		Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.data0", Bit: 28},
	}
}

func captureFig7(t *testing.T, v workload.Variant) *Trace {
	t.Helper()
	tr, err := Capture(context.Background(), v, workload.PaperRunSpec(),
		fig7Injection(t, v), classify.Config{})
	if err != nil {
		t.Fatalf("Capture(%s): %v", v, err)
	}
	return tr
}

// TestSevereFaultAlg1VsAlg2 is the subsystem's acceptance test: the
// same cached-state fault propagates for the rest of the run under
// Algorithm I but is cut short by best effort recovery under
// Algorithm II.
func TestSevereFaultAlg1VsAlg2(t *testing.T) {
	tr1 := captureFig7(t, workload.AlgorithmI)
	tr2 := captureFig7(t, workload.AlgorithmII)

	if tr1.Header.InjectionIteration != 300 {
		t.Errorf("alg1 injection iteration = %d, want 300", tr1.Header.InjectionIteration)
	}
	if tr1.Header.Outcome != "uwr-permanent" {
		t.Errorf("alg1 outcome = %q, want uwr-permanent", tr1.Header.Outcome)
	}
	if tr1.Header.FirstArchDivergence < 0 {
		t.Error("alg1 trace records no architectural divergence")
	}
	if !tr1.Header.HasState || tr1.Header.HasBackup {
		t.Errorf("alg1 HasState/HasBackup = %v/%v, want true/false",
			tr1.Header.HasState, tr1.Header.HasBackup)
	}
	if !tr2.Header.HasBackup {
		t.Error("alg2 trace should locate the xold backup")
	}

	c1 := Analyze(tr1, 0)
	c2 := Analyze(tr2, 0)

	if c1.CorruptIterations < 2 {
		t.Errorf("alg1 chain: state corruption across %d iterations, want >= 2", c1.CorruptIterations)
	}
	if c1.RecoveryIteration >= 0 {
		t.Errorf("alg1 chain reports recovery at %d; alg1 has no recovery blocks", c1.RecoveryIteration)
	}
	if last := c1.Links[len(c1.Links)-1]; last.Kind != "end" {
		t.Errorf("alg1 chain ends with %q, want \"end\"", last.Kind)
	}

	if c2.RecoveryIteration < 0 {
		t.Fatal("alg2 chain records no recovery")
	}
	if !c2.CleanTail {
		t.Errorf("alg2 chain tail not clean: last corruption k=%d, recovery k=%d",
			c2.LastStateCorruption, c2.RecoveryIteration)
	}
	if last := c2.Links[len(c2.Links)-1]; last.Kind != "recovered" {
		t.Errorf("alg2 chain ends with %q, want \"recovered\"", last.Kind)
	}
	if c2.RecoveryLatency < 0 || c2.RecoveryLatency > 1 {
		t.Errorf("alg2 recovery latency = %d iterations, want 0 or 1", c2.RecoveryLatency)
	}
	if c2.DetectionIteration < 0 {
		t.Error("alg2 chain records no detection")
	}
	// The injected iteration must carry the injection event and show
	// the fault site's cache word as touched.
	first := tr2.Find(300)
	if first == nil {
		t.Fatal("alg2 trace has no snapshot for iteration 300")
	}
	if first.Events&EventInjected == 0 {
		t.Error("iteration 300 lacks EventInjected")
	}
	if first.CacheTouched&1 == 0 {
		t.Error("iteration 300 does not mark line0 word0 (the fault site) as touched")
	}
}

// TestCaptureDeterministic is the replay guarantee: capturing the same
// fault twice yields bit-identical traces.
func TestCaptureDeterministic(t *testing.T) {
	inj := fig7Injection(t, workload.AlgorithmII)
	a, err := Capture(context.Background(), workload.AlgorithmII, workload.PaperRunSpec(), inj, classify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Capture(context.Background(), workload.AlgorithmII, workload.PaperRunSpec(), inj, classify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Error("two captures of the same fault differ")
	}
}

// TestCaptureScenarios pins how detail mode reports the classic fates
// of a fault: each row injects into Algorithm I during iteration 30 of
// a shortened run and checks the trace's header and per-iteration
// divergence columns.
func TestCaptureScenarios(t *testing.T) {
	short := workload.PaperRunSpec()
	short.Iterations = 60
	golden := workload.Run(workload.Program(workload.AlgorithmI), short)
	if golden.Detected() {
		t.Fatalf("golden run trapped: %v", golden.Trap)
	}
	at30 := golden.IterationStarts[30]
	reg := func(elem string, bit uint) cpu.StateBit {
		return cpu.StateBit{Region: cpu.RegionRegisters, Element: elem, Bit: bit}
	}
	cases := []struct {
		name  string
		spec  workload.RunSpec
		inj   workload.Injection
		check func(t *testing.T, tr *Trace)
	}{
		{"state flip reaches output", short, workload.Injection{At: at30 + 1,
			Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.data0", Bit: 21}},
			func(t *testing.T, tr *Trace) {
				if tr.Header.InjectionIteration != 30 {
					t.Errorf("injection iteration = %d, want 30", tr.Header.InjectionIteration)
				}
				reached, cacheDiv := false, uint32(0)
				for _, it := range tr.Iterations {
					reached = reached || it.Output != it.GoldenOutput
					cacheDiv += it.CacheDivergent
				}
				if !reached {
					t.Error("state corruption should reach the output")
				}
				if cacheDiv == 0 {
					t.Error("cache state should diverge")
				}
			}},
		// r8 holds Kp and then u during the compute phase; a flip landing
		// in the idle phase hits a dead value that the next FMOVD rewrites.
		{"dead register flip vanishes", short, workload.Injection{At: at30 + 10, Bit: reg("r8", 7)},
			func(t *testing.T, tr *Trace) {
				if tr.Header.TrapIteration >= 0 {
					t.Skipf("flip detected by %s; pick of timing hit a live window", tr.Header.Mechanism)
				}
				if first := tr.Iterations[0]; first.K != 30 || first.RegDivergent == 0 {
					t.Errorf("injection iteration %+v: register state should diverge at least briefly", first)
				}
				for _, it := range tr.Iterations[1:] {
					if it.RegDivergent != 0 || it.CacheDivergent != 0 || it.Output != it.GoldenOutput {
						t.Fatalf("iteration %d still diverges after the register was rewritten: %+v", it.K, it)
					}
				}
			}},
		{"pc flip detected", short, workload.Injection{At: at30 + 1, Bit: reg("pc", 14)},
			func(t *testing.T, tr *Trace) {
				if tr.Header.TrapIteration < 0 || tr.Header.Outcome != classify.Detected.String() {
					t.Errorf("PC corruption not detected: %+v", tr.Header)
				}
			}},
		// r14 is the stack pointer: never touched by the workload, so the
		// flip persists to the end of the run without any effect.
		{"r14 flip stays latent", short, workload.Injection{At: at30 + 1, Bit: reg("r14", 3)},
			func(t *testing.T, tr *Trace) {
				if tr.Header.Outcome != classify.Latent.String() {
					t.Errorf("outcome = %q, want latent", tr.Header.Outcome)
				}
				if last := tr.Iterations[len(tr.Iterations)-1]; last.RegDivergent == 0 {
					t.Errorf("latent divergence should persist to the end, last iteration %+v", last)
				}
			}},
		// A zero RunSpec defaults to the variant's paper run.
		{"zero spec defaults to the paper run", workload.RunSpec{}, workload.Injection{At: 50, Bit: reg("r14", 0)},
			func(t *testing.T, tr *Trace) {
				if want := workload.SpecFor(workload.AlgorithmI).Iterations; tr.Header.Iterations != want || len(tr.Iterations) == 0 {
					t.Errorf("zero spec traced %d iterations (%d snapshots), want the %d-iteration paper run",
						tr.Header.Iterations, len(tr.Iterations), want)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := Capture(context.Background(), workload.AlgorithmI, c.spec, c.inj, classify.Config{})
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, tr)
		})
	}
}

func TestCaptureCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Capture(ctx, workload.AlgorithmI, workload.PaperRunSpec(),
		workload.Injection{At: 10, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}},
		classify.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Capture with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func sampleTrace() *Trace {
	return &Trace{
		Header: Header{
			Variant:             "alg2",
			Experiment:          17,
			Seed:                99,
			Injection:           Injection{Region: "cache", Element: "line0.data0", Bit: 28, At: 12345},
			InjectionIteration:  300,
			Iterations:          650,
			Outcome:             "uwr-transient",
			FirstArchDivergence: 12345,
			TrapIteration:       -1,
			HasState:            true,
			HasBackup:           true,
		},
		Iterations: []Iteration{
			{K: 300, X: 10.5, XGolden: 10.5, Backup: 10.4, Output: 1.25, GoldenOutput: 1.25,
				RegsTouched: 0xfffe, CacheTouched: 0x3, Events: EventInjected},
			{K: 301, X: 74.2, XGolden: 10.6, Backup: 10.5, Output: 3.5, GoldenOutput: 1.26,
				RegsTouched: 0xfffe, CacheTouched: 0x3, RegDivergent: 41, CacheDivergent: 180,
				Events: EventStateAssertFailed},
			{K: 302, X: 10.6, XGolden: 10.7, Backup: 10.6, Output: 1.3, GoldenOutput: 1.27,
				RegsTouched: 0xfffe, CacheTouched: 0x3, RegDivergent: 2, CacheDivergent: 2},
		},
	}
}

// TestTraceJSONRoundTrip: JSON, the one wire format, carries a trace
// bit for bit, non-finite state included.
func TestTraceJSONRoundTrip(t *testing.T) {
	want := sampleTrace()
	want.Iterations = append(want.Iterations, Iteration{K: 303, X: math.Inf(1), XGolden: 10.8,
		Backup: math.NaN(), Output: math.Inf(-1), GoldenOutput: 1.28, Events: EventOutputAssertFailed})
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got Trace
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !Equal(want, &got) {
		t.Errorf("JSON round trip changed the trace:\n got %+v\nwant %+v", got, *want)
	}
}

// TestEqual: Equal is bitwise on floats — a NaN matches only the same
// NaN payload — and sees a change in any header or iteration field.
func TestEqual(t *testing.T) {
	withX := func(x float64) *Trace {
		tr := sampleTrace()
		tr.Iterations[1].X = x
		return tr
	}
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8000000000000 | payload) }
	if !Equal(withX(nan(1)), withX(nan(1))) {
		t.Error("a trace differs from its copy")
	}
	if Equal(withX(nan(1)), withX(nan(2))) {
		t.Error("NaN payloads 1 and 2 compare equal")
	}
	if Equal(withX(0), withX(math.Copysign(0, -1))) {
		t.Error("+0 and -0 compare equal")
	}
	for name, mutate := range map[string]func(*Trace){
		"header":     func(tr *Trace) { tr.Header.Outcome = "detected" },
		"length":     func(tr *Trace) { tr.Iterations = tr.Iterations[:2] },
		"k":          func(tr *Trace) { tr.Iterations[2].K++ },
		"golden":     func(tr *Trace) { tr.Iterations[2].GoldenOutput = -tr.Iterations[2].GoldenOutput },
		"divergence": func(tr *Trace) { tr.Iterations[2].CacheDivergent++ },
		"events":     func(tr *Trace) { tr.Iterations[2].Events |= EventTrapped },
	} {
		tr := sampleTrace()
		mutate(tr)
		if Equal(sampleTrace(), tr) {
			t.Errorf("%s change not seen", name)
		}
	}
}

// TestIterationJSONNonFinite: a flipped exponent bit can make the
// recorded state ±Inf or NaN; the JSON form must survive that.
func TestIterationJSONNonFinite(t *testing.T) {
	in := Iteration{K: 5, X: math.Inf(1), XGolden: 10.5, Backup: math.NaN(),
		Output: math.Inf(-1), GoldenOutput: 1.5}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out Iteration
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !math.IsInf(out.X, 1) || !math.IsNaN(out.Backup) || !math.IsInf(out.Output, -1) {
		t.Errorf("non-finite values lost: %+v", out)
	}
	if out.XGolden != 10.5 || out.GoldenOutput != 1.5 {
		t.Errorf("finite values corrupted: %+v", out)
	}
}

func TestAnalyzeTrapped(t *testing.T) {
	tr := sampleTrace()
	tr.Header.Outcome = "detected"
	tr.Header.Mechanism = "watchdog"
	tr.Header.TrapIteration = 302
	c := Analyze(tr, 0)
	if c.DetectionIteration != 301 {
		// The assertion at 301 saw the error before the trap.
		t.Errorf("DetectionIteration = %d, want 301", c.DetectionIteration)
	}
	if last := c.Links[len(c.Links)-1]; last.Kind != "trapped" {
		t.Errorf("chain ends with %q, want \"trapped\"", last.Kind)
	}
}

func TestTimelineSVG(t *testing.T) {
	svg := TimelineSVG(sampleTrace(), nil)
	for _, want := range []string{"<svg", "alg2", "injected", "assert-state", "state error", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("timeline SVG missing %q", want)
		}
	}
}
