package tune

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"

	"ctrlguard/internal/control"
	"ctrlguard/internal/core"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/plant"
	"ctrlguard/internal/stats"
	"ctrlguard/internal/workload"
)

// Result is the measured quality of one protection configuration. The
// struct is shared with cmd/guardstudy's -json output so hand-written
// design studies and the tuner speak one schema (a study can seed the
// tuner, and both feed the same plots). Fields a producer did not
// measure keep a zero-experiment Proportion, whose Interval95 is the
// degenerate [0, 1] — "unknown", not "zero".
type Result struct {
	// Name labels the design: the configuration ID for tuner results,
	// or a study's design name.
	Name string `json:"name"`

	// Config is the design-space point, when the producer has one.
	Config Config `json:"config"`

	// Experiments is the fault-injection campaign size behind the
	// failure rates.
	Experiments int `json:"experiments"`

	// ValueFailures and Severe are the campaign's undetected-wrong-
	// result rates (severe is the subset the paper calls critical).
	ValueFailures stats.Proportion `json:"valueFailures"`
	Severe        stats.Proportion `json:"severe"`

	// Detected is the detection coverage: the share of injected faults
	// caught by any error-detection mechanism, including in-loop
	// detectors (signature monitoring, behavior automata). Producers
	// that do not measure coverage leave the zero-experiment Proportion
	// ("unknown", not "zero").
	Detected stats.Proportion `json:"detected"`

	// FalsePositives is the share of fault-free control iterations in
	// which the guard intervened — detector noise that costs control
	// performance with no fault present.
	FalsePositives stats.Proportion `json:"falsePositives"`

	// Overhead is the modelled runtime cost of the protection as a
	// fraction of the bare control iteration (0.42 = 42 % more
	// instructions per iteration). It is an instruction-count model
	// calibrated against the simulated CPU's Algorithm I vs II
	// workloads, so it is exact and deterministic.
	Overhead float64 `json:"overhead"`
}

// Evaluator measures protection configurations on the paper's engine
// workload. The zero value plus a seed is ready to use; fields
// override the paper defaults. Methods are safe for concurrent use
// after the first call completes, and EvaluateAll itself parallelises
// internally — callers need no extra concurrency.
type Evaluator struct {
	// PI overrides the controller gains (zero value = paper config).
	PI control.PIConfig

	// Engine and Reference override the plant (nil = paper defaults).
	Engine    *plant.EngineConfig
	Reference plant.ReferenceProfile

	// Iterations is the closed-loop run length (0 = the paper's 650).
	Iterations int

	// Seed drives every campaign; candidate seeds are derived from it
	// and the configuration identity, so results do not depend on
	// evaluation order.
	Seed uint64

	// Workers bounds campaign parallelism (0 = GOMAXPROCS).
	Workers int

	// wrap, if non-nil, wraps every campaign controller. TEST-ONLY: the
	// tests use it to make a candidate's controller crash.
	wrap func(control.Stateful) control.Stateful

	prepOnce sync.Once
	prepErr  error
	pi       control.PIConfig
	engine   plant.EngineConfig
	ref      plant.ReferenceProfile
	iters    int
	learner  *core.BoundsLearner
	perOp    float64 // simulated-CPU instructions per guard element op
	baseCost float64 // simulated-CPU instructions per bare iteration
}

// NewEvaluator returns an evaluator with the paper's workload and the
// given campaign seed.
func NewEvaluator(seed uint64) *Evaluator {
	return &Evaluator{Seed: seed}
}

// prepare resolves defaults, learns the assertion envelope from a
// fault-free reference run, and calibrates the overhead cost model.
func (e *Evaluator) prepare() error {
	e.prepOnce.Do(func() {
		e.pi = e.PI
		if e.pi == (control.PIConfig{}) {
			e.pi = control.PaperPIConfig(plant.DefaultSampleInterval)
		}
		if e.Engine != nil {
			e.engine = *e.Engine
		} else {
			e.engine = plant.DefaultEngineConfig()
		}
		e.ref = e.Reference
		if e.ref == nil {
			e.ref = plant.PaperReference()
		}
		e.iters = e.Iterations
		if e.iters <= 0 {
			e.iters = plant.DefaultIterations
		}

		// Learn the state envelope from the unprotected fault-free
		// loop — the automated version of the paper's manual
		// constraint engineering, shared by every learned candidate.
		ctrl := control.NewPI(e.pi)
		eng := plant.NewEngine(e.engine)
		learner := core.NewBoundsLearner(len(ctrl.State()))
		y := eng.Speed()
		for k := 0; k < e.iters; k++ {
			u := ctrl.Step(e.ref(float64(k)*e.engine.T), y)
			y = eng.Step(u)
			if err := learner.Observe(ctrl.State()); err != nil {
				e.prepErr = err
				return
			}
		}
		e.learner = learner

		e.prepErr = e.calibrate()
	})
	return e.prepErr
}

// calibrate derives the overhead model from the simulated CPU: the
// instruction-count difference between the Algorithm II and Algorithm
// I workloads prices the four guard element operations Algorithm II
// performs per iteration (assert state, assert output, back up state,
// back up output, each on one element). Wall clocks would make the
// search nondeterministic; the simulated CPU charges the paper's
// actual target instead.
func (e *Evaluator) calibrate() error {
	bare := workload.Run(workload.Program(workload.AlgorithmI), workload.SpecFor(workload.AlgorithmI))
	if bare.Detected() {
		return fmt.Errorf("tune: Algorithm I calibration run trapped: %v", bare.Trap)
	}
	protected := workload.Run(workload.Program(workload.AlgorithmII), workload.SpecFor(workload.AlgorithmII))
	if protected.Detected() {
		return fmt.Errorf("tune: Algorithm II calibration run trapped: %v", protected.Trap)
	}
	iters := len(bare.Outputs)
	if iters == 0 || len(protected.Outputs) == 0 {
		return fmt.Errorf("tune: calibration runs produced no outputs")
	}
	e.baseCost = float64(bare.Instructions) / float64(iters)
	delta := float64(protected.Instructions)/float64(len(protected.Outputs)) - e.baseCost
	if delta <= 0 || e.baseCost <= 0 {
		return fmt.Errorf("tune: implausible calibration (base %.1f, delta %.1f instructions/iteration)", e.baseCost, delta)
	}
	e.perOp = delta / 4
	return nil
}

// guardPolicy maps a design-space policy onto the guard's.
func guardPolicy(p Policy) (core.RecoveryPolicy, error) {
	switch p {
	case PolicyRollback:
		return core.Rollback, nil
	case PolicyFreeze:
		return core.Freeze, nil
	case PolicySaturate:
		return core.Saturate, nil
	default:
		return 0, fmt.Errorf("tune: policy %q has no guard construction", p)
	}
}

// build returns a constructor for the candidate's guarded controller.
// Assertions are constructed fresh per instance because rate
// assertions carry history.
func (e *Evaluator) build(c Config) (func() (*core.Guard, control.Stateful), error) {
	pol, err := guardPolicy(c.Policy)
	if err != nil {
		return nil, err
	}
	var newAssert func() (core.Assertion, error)
	if c.Learned {
		newAssert = func() (core.Assertion, error) {
			rng, err := e.learner.RangeAssertionWithMargin(c.Slack)
			if err != nil {
				return nil, err
			}
			if c.RateLimit <= 0 {
				return rng, nil
			}
			rate, err := e.learner.RateAssertionWithMargin(c.RateLimit)
			if err != nil {
				return nil, err
			}
			return core.All(rng, rate), nil
		}
	} else {
		width := e.pi.OutMax - e.pi.OutMin
		lo, hi := e.pi.OutMin-c.Slack*width, e.pi.OutMax+c.Slack*width
		newAssert = func() (core.Assertion, error) {
			rng := core.RangeAssertion{Min: lo, Max: hi}
			if c.RateLimit <= 0 {
				return rng, nil
			}
			return core.All(rng, core.NewRateAssertion(c.RateLimit)), nil
		}
	}
	// Pre-flight once so the per-run constructor cannot fail.
	if _, err := newAssert(); err != nil {
		return nil, fmt.Errorf("tune: %s: %w", c.ID(), err)
	}
	return func() (*core.Guard, control.Stateful) {
		assert, _ := newAssert()
		g := core.NewGuard(control.NewPI(e.pi), assert, core.WithPolicy(pol))
		return g, core.NewGuardedController(g)
	}, nil
}

// faultFree drives the candidate through one fault-free closed-loop
// run, measuring false positives (iterations with any guard
// intervention) and returning the modelled overhead.
func (e *Evaluator) faultFree(c Config) (fp stats.Proportion, overhead float64, err error) {
	if c.Policy == PolicyNone {
		return stats.Proportion{Count: 0, N: e.iters}, 0, nil
	}
	build, err := e.build(c)
	if err != nil {
		return stats.Proportion{}, 0, err
	}
	g, ctrl := build()
	eng := plant.NewEngine(e.engine)
	y := eng.Speed()
	fpSteps, prev := 0, 0
	for k := 0; k < e.iters; k++ {
		u := ctrl.Update([]float64{e.ref(float64(k) * e.engine.T), y})
		y = eng.Step(u[0])
		s := g.Stats()
		if v := s.StateViolations + s.OutputViolations; v > prev {
			fpSteps++
			prev = v
		}
	}

	// Overhead model: per iteration the guard checks every state and
	// output element against each assertion leaf and backs each
	// element up once; each element operation costs perOp simulated-
	// CPU instructions (recoveries are rare and amortize to noise).
	stateDim := len(g.Controller().State())
	const outDim = 1 // the engine workload is SISO
	leaves := 1
	if c.RateLimit > 0 {
		leaves = 2
	}
	ops := float64((leaves + 1) * (stateDim + outDim))
	overhead = ops * e.perOp / e.baseCost
	return stats.Proportion{Count: fpSteps, N: e.iters}, overhead, nil
}

// candidateSeed derives a campaign seed from the evaluator seed and
// the configuration identity, so a candidate's campaign is identical
// no matter when or alongside what it is evaluated.
func (e *Evaluator) candidateSeed(c Config) uint64 {
	h := fnv.New64a()
	io.WriteString(h, c.ID())
	return h.Sum64() ^ (e.Seed*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019)
}

// Evaluate measures one configuration with an n-experiment campaign.
func (e *Evaluator) Evaluate(ctx context.Context, c Config, n int) (Result, error) {
	rs, err := e.EvaluateAll(ctx, []Config{c}, n)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// EvaluateAll measures every candidate: fault-free runs concurrently
// across a bounded pool, then all fault-injection campaigns batched on
// the campaign engine's worker loop (goofi.RunVariableBatch) so small
// campaigns saturate the machine. Results align with cands by index. A
// candidate whose controller panics in any experiment fails the
// evaluation with an error naming it.
func (e *Evaluator) EvaluateAll(ctx context.Context, cands []Config, n int) ([]Result, error) {
	if err := e.prepare(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("tune: need a positive campaign size, got %d", n)
	}
	for _, c := range cands {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Phase A: fault-free metrics, concurrently across candidates.
	results := make([]Result, len(cands))
	errs := make([]error, len(cands))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, c := range cands {
		wg.Add(1)
		go func(i int, c Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fp, overhead, err := e.faultFree(c)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = Result{
				Name:           c.ID(),
				Config:         c,
				Experiments:    n,
				FalsePositives: fp,
				Overhead:       overhead,
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase B: one batched fault-injection pass over all candidates.
	cfgs := make([]goofi.VarConfig, len(cands))
	for i, c := range cands {
		factory, err := e.campaignFactory(c)
		if err != nil {
			return nil, err
		}
		if e.wrap != nil {
			inner := factory
			factory = func() control.Stateful { return e.wrap(inner()) }
		}
		cfgs[i] = goofi.VarConfig{
			Name:        c.ID(),
			New:         factory,
			Experiments: n,
			Seed:        e.candidateSeed(c),
			Iterations:  e.iters,
			Engine:      &e.engine,
			Reference:   e.ref,
			Workers:     workers,
		}
	}
	campaigns, err := goofi.RunVariableBatch(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range campaigns {
		// An abandoned experiment counts toward the campaign size but
		// never as a failure, so a crashing candidate would score better
		// than a working one.
		if a := res.Faults.Abandoned; a > 0 {
			return nil, fmt.Errorf("tune: candidate %s: %d of %d experiments abandoned, its controller panicked", cands[i].ID(), a, n)
		}
		vf, sev := goofi.VarSummary(res.Records)
		results[i].ValueFailures = vf
		results[i].Severe = sev
	}
	return results, nil
}

// campaignFactory returns the controller constructor the campaign
// injects into: the bare controller for PolicyNone, the guarded one
// otherwise.
func (e *Evaluator) campaignFactory(c Config) (func() control.Stateful, error) {
	if c.Policy == PolicyNone {
		return func() control.Stateful { return control.NewPI(e.pi) }, nil
	}
	build, err := e.build(c)
	if err != nil {
		return nil, err
	}
	return func() control.Stateful {
		_, ctrl := build()
		return ctrl
	}, nil
}
