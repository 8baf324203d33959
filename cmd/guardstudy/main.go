// Command guardstudy compares protection designs for the engine
// controller under variable-level fault injection: direct IEEE-754
// bit-flips in the controller state at random control iterations
// (thousands of experiments per second, no CPU simulation).
//
// It extends the paper's Algorithm I vs Algorithm II comparison with
// the guard framework's design space: recovery policies, a rate
// assertion that catches the in-range corruptions of the paper's
// Figure 10, and assertions learned automatically from fault-free runs.
//
// Usage:
//
//	guardstudy [-n 4000] [-seed 17] [-json results.jsonl]
package main

import (
	"flag"
	"fmt"
	"os"

	"ctrlguard/internal/control"
	"ctrlguard/internal/core"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/plant"
	"ctrlguard/internal/stats"
	"ctrlguard/internal/tune"
)

func main() {
	n := flag.Int("n", 4000, "experiments per design")
	seed := flag.Uint64("seed", 17, "campaign seed")
	jsonOut := flag.String("json", "", "also write per-design results as JSON lines to this path (- for stdout, replacing the table)")
	flag.Parse()

	if err := run(*n, *seed, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "guardstudy:", err)
		os.Exit(1)
	}
}

// design is one protection variant under study.
type design struct {
	name string
	why  string
	new  func() control.Stateful
}

func piConfig() control.PIConfig {
	return control.PaperPIConfig(plant.DefaultSampleInterval)
}

func rangeAssert() core.Assertion {
	cfg := piConfig()
	return core.RangeAssertion{Min: cfg.OutMin, Max: cfg.OutMax}
}

// learnAssertions derives range and rate assertions from one fault-free
// closed-loop run, the automated version of the paper's manual
// constraint engineering. It returns a constructor: the rate assertion
// keeps history, so every controller needs its own.
func learnAssertions() (func() core.Assertion, error) {
	ctrl := control.NewPI(piConfig())
	eng := plant.NewEngine(plant.DefaultEngineConfig())
	ref := plant.PaperReference()
	learner := core.NewBoundsLearner(len(ctrl.State()))

	y := eng.Speed()
	for k := 0; k < plant.DefaultIterations; k++ {
		u := ctrl.Step(ref(float64(k)*plant.DefaultSampleInterval), y)
		y = eng.Step(u)
		if err := learner.Observe(ctrl.State()); err != nil {
			return nil, err
		}
	}
	learned := func() (core.Assertion, error) {
		rng, err := learner.RangeAssertionWithMargin(0.25)
		if err != nil {
			return nil, err
		}
		rate, err := learner.RateAssertionWithMargin(3)
		if err != nil {
			return nil, err
		}
		return core.All(rng, rate), nil
	}
	if _, err := learned(); err != nil {
		return nil, err
	}
	return func() core.Assertion {
		a, _ := learned() // succeeded above on the same learner
		return a
	}, nil
}

func designs() ([]design, error) {
	learned, err := learnAssertions()
	if err != nil {
		return nil, err
	}
	// guarded builds each controller over a fresh assertion from
	// assert: campaign runs execute concurrently, and a stateful
	// assertion shared between them would mix their histories.
	guarded := func(assert func() core.Assertion, opts ...core.GuardOption) func() control.Stateful {
		return func() control.Stateful {
			g := core.NewGuard(control.NewPI(piConfig()), assert(), opts...)
			return core.NewGuardedController(g)
		}
	}
	return []design{
		{
			name: "bare-pi",
			why:  "Algorithm I: no protection",
			new:  func() control.Stateful { return control.NewPI(piConfig()) },
		},
		{
			name: "protected-pi",
			why:  "Algorithm II: hand-written assertions + best effort recovery",
			new:  func() control.Stateful { return control.NewProtectedPI(piConfig()) },
		},
		{
			name: "guard-range",
			why:  "Guard, physical range assertion, rollback",
			new:  guarded(rangeAssert),
		},
		{
			name: "guard-range-rate",
			why:  "adds a rate assertion: catches in-range jumps (Figure 10)",
			new:  guarded(func() core.Assertion { return core.All(rangeAssert(), core.NewRateAssertion(8)) }),
		},
		{
			name: "guard-saturate",
			why:  "Guard, range assertion, saturate instead of rollback",
			new:  guarded(rangeAssert, core.WithPolicy(core.Saturate)),
		},
		{
			name: "guard-learned",
			why:  "assertions learned from a fault-free run (range+rate)",
			new:  guarded(learned),
		},
	}, nil
}

func run(n int, seed uint64, jsonOut string) error {
	all, err := designs()
	if err != nil {
		return err
	}

	tbl := stats.NewTable(
		fmt.Sprintf("Protection designs under %d state bit-flips each", n),
		"Design", "Value failures", "Severe", "Severe share", "Notes")
	// Results share tune.Result with guardtune, so a hand-curated
	// study feeds the same stores and plots as the design-space
	// search. False positives and overhead are not measured here; the
	// zero-experiment proportions mark them unknown, not zero.
	results := make([]tune.Result, 0, len(all))
	for _, d := range all {
		res, err := goofi.RunVariable(goofi.VarConfig{
			Name: d.name, New: d.new, Experiments: n, Seed: seed,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		vf, sev := goofi.VarSummary(res.Records)
		share := stats.Proportion{Count: sev.Count, N: vf.Count}
		tbl.AddRow(d.name, vf.String(), sev.String(), share.String(), d.why)
		results = append(results, tune.Result{
			Name:          d.name,
			Experiments:   n,
			ValueFailures: vf,
			Severe:        sev,
		})
	}

	if jsonOut == "-" {
		return tune.WriteResults(os.Stdout, results)
	}
	fmt.Println(tbl.String())
	fmt.Println("Faults are injected directly into the controller state, the")
	fmt.Println("channel behind the paper's severe failures; hardware EDMs are")
	fmt.Println("not in play at this level.")
	if jsonOut != "" {
		if err := tune.SaveResults(jsonOut, results); err != nil {
			return err
		}
		fmt.Printf("Wrote %d results to %s.\n", len(results), jsonOut)
	}
	return nil
}
