package goofi

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/control"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/plant"
	"ctrlguard/internal/stats"
)

// VarConfig configures a variable-level campaign: faults are IEEE-754
// bit-flips applied directly to a Go controller's state vector at a
// random control iteration, skipping the CPU simulation entirely. This
// is the fast path for studying assertion and recovery designs on the
// library itself — thousands of experiments per second — while the
// SCIFI campaigns on the simulated CPU remain the faithful path.
type VarConfig struct {
	// Name labels the records (the Variant column).
	Name string

	// New constructs a fresh controller for each run. The controller
	// is driven through Stateful.Update with inputs [r, y]. Runs execute
	// concurrently, so each call must return a controller that shares
	// no mutable state (such as a stateful assertion) with the others.
	New func() control.Stateful

	// Experiments is the number of faults to inject.
	Experiments int

	// Seed makes the campaign reproducible.
	Seed uint64

	// Iterations per run (0 = the paper's 650).
	Iterations int

	// Engine and Reference default to the paper's engine workload.
	Engine    *plant.EngineConfig
	Reference plant.ReferenceProfile

	// Classify holds the thresholds (zero value = paper defaults).
	Classify classify.Config

	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int

	// DisableWarmStart forces every experiment to replay the
	// pre-injection iterations instead of resuming from a controller
	// clone captured during the golden run. Results are byte-identical
	// either way. Warm start also disables itself when the controller
	// does not support cloning (no CloneStateful method, or a guard
	// with an uncloneable assertion).
	DisableWarmStart bool
}

func (cfg *VarConfig) fill() error {
	if cfg.New == nil {
		return fmt.Errorf("goofi: VarConfig.New is required")
	}
	if cfg.Experiments <= 0 {
		return fmt.Errorf("goofi: campaign needs a positive experiment count, got %d", cfg.Experiments)
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = plant.DefaultIterations
	}
	if cfg.Engine == nil {
		ec := plant.DefaultEngineConfig()
		cfg.Engine = &ec
	}
	if cfg.Reference == nil {
		cfg.Reference = plant.PaperReference()
	}
	if cfg.Classify == (classify.Config{}) {
		cfg.Classify = classify.DefaultConfig()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// runVarLoop drives ctrl closed-loop and returns the output trace.
// corruptAt < 0 disables injection.
func runVarLoop(ctrl control.Stateful, cfg *VarConfig, corruptAt int, flip inject.VarFlip) []float64 {
	eng := plant.NewEngine(*cfg.Engine)
	return varLoopFrom(ctrl, eng, eng.Speed(), 0, nil, cfg, corruptAt, flip)
}

// varLoopFrom is the loop body shared by full runs and checkpoint
// resumes: iterations [0, startK) are taken from the golden prefix
// (identical by determinism — the injection has not happened yet),
// iterations [startK, Iterations) are executed.
func varLoopFrom(ctrl control.Stateful, eng *plant.Engine, y float64, startK int,
	prefix []float64, cfg *VarConfig, corruptAt int, flip inject.VarFlip) []float64 {
	out := make([]float64, 0, cfg.Iterations)
	out = append(out, prefix[:startK]...)
	for k := startK; k < cfg.Iterations; k++ {
		if k == corruptAt {
			flip.Apply(ctrl)
		}
		t := float64(k) * cfg.Engine.T
		u := ctrl.Update([]float64{cfg.Reference(t), y})[0]
		y = eng.Step(u)
		out = append(out, u)
	}
	return out
}

// varCheckpoint freezes a variable-level run at the top of one control
// iteration: the controller clone, the plant clone and the last
// measurement. Checkpoints are immutable; every resume re-clones.
type varCheckpoint struct {
	ctrl control.Stateful
	eng  *plant.Engine
	y    float64
}

// cloneVarController clones a controller through the CloneStateful()
// any convention (see package control; core.GuardedController also
// implements it).
func cloneVarController(c control.Stateful) (control.Stateful, bool) {
	cl, ok := c.(interface{ CloneStateful() any })
	if !ok {
		return nil, false
	}
	v := cl.CloneStateful()
	if v == nil {
		return nil, false
	}
	s, ok := v.(control.Stateful)
	return s, ok
}

// runVarGolden drives ctrl fault-free like runVarLoop while capturing a
// checkpoint at each requested iteration. When the controller (or the
// guard state it carries) cannot be cloned, the checkpoint map comes
// back nil and the campaign runs every experiment in full.
func runVarGolden(ctrl control.Stateful, cfg *VarConfig, want map[int]bool) ([]float64, map[int]*varCheckpoint) {
	eng := plant.NewEngine(*cfg.Engine)
	out := make([]float64, 0, cfg.Iterations)
	ckpts := make(map[int]*varCheckpoint, len(want))
	y := eng.Speed()
	for k := 0; k < cfg.Iterations; k++ {
		if ckpts != nil && want[k] {
			if cc, ok := cloneVarController(ctrl); ok {
				ckpts[k] = &varCheckpoint{ctrl: cc, eng: eng.Clone(), y: y}
			} else {
				ckpts = nil
			}
		}
		t := float64(k) * cfg.Engine.T
		u := ctrl.Update([]float64{cfg.Reference(t), y})[0]
		y = eng.Step(u)
		out = append(out, u)
	}
	return out, ckpts
}

// RunVariable executes a variable-level campaign and returns records in
// the same schema as the CPU campaigns: Region "variable", Element
// "state[i]", At = the injection iteration. Variable-level faults
// cannot be detected by hardware EDMs, so every record is either a
// value failure or non-effective; Latent means the final controller
// state still differs from the reference run's.
func RunVariable(cfg VarConfig) (*Result, error) {
	return RunVariableContext(context.Background(), cfg)
}

// RunVariableContext is RunVariable with cancellation: when ctx is
// cancelled the campaign stops at the next experiment boundary and
// returns the records completed so far together with ctx's error.
func RunVariableContext(ctx context.Context, cfg VarConfig) (*Result, error) {
	results, err := RunVariableBatch(ctx, []VarConfig{cfg})
	if len(results) == 1 {
		return results[0], err
	}
	return nil, err
}

// varExperiment is one pre-drawn fault of a batched campaign.
type varExperiment struct {
	iteration int
	flip      inject.VarFlip
}

// varCampaign is the prepared state of one campaign within a batch.
type varCampaign struct {
	cfg         VarConfig
	golden      []float64
	goldenFinal []float64
	exps        []varExperiment
	records     []Record
	completed   []bool

	// ckpts holds the warm-start checkpoints keyed by injection
	// iteration, captured during the golden run; nil when warm start
	// is off or the controller is not cloneable.
	ckpts       map[int]*varCheckpoint
	resumed     atomic.Int64
	fullReplays atomic.Int64
}

// runOne executes one experiment, resuming from the checkpoint at its
// injection iteration when one exists.
func (c *varCampaign) runOne(e varExperiment) ([]float64, control.Stateful) {
	if ck := c.ckpts[e.iteration]; ck != nil {
		if ctrl, ok := cloneVarController(ck.ctrl); ok {
			c.resumed.Add(1)
			out := varLoopFrom(ctrl, ck.eng.Clone(), ck.y, e.iteration,
				c.golden, &c.cfg, e.iteration, e.flip)
			return out, ctrl
		}
	}
	c.fullReplays.Add(1)
	ctrl := c.cfg.New()
	return runVarLoop(ctrl, &c.cfg, e.iteration, e.flip), ctrl
}

// RunVariableBatch evaluates several variable-level campaigns over one
// shared worker pool, interleaving their experiments so a batch of
// small campaigns saturates the machine the way one large campaign
// does — the throughput path for the design-space tuner, which
// evaluates many candidate configurations at once. Results align with
// cfgs by index, and each campaign's records are identical to what
// RunVariable would produce alone: faults are pre-drawn per campaign
// from its own seed, so scheduling cannot change any result.
//
// When ctx is cancelled the batch stops at the next experiment
// boundary and every campaign returns the records it completed so far
// (ordered by experiment ID) together with ctx's error.
func RunVariableBatch(ctx context.Context, cfgs []VarConfig) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cfgs) == 0 {
		return nil, nil
	}

	// Set-up phase: golden run and pre-drawn faults per campaign.
	camps := make([]*varCampaign, len(cfgs))
	poolSize := 0
	totalExps := 0
	for ci := range cfgs {
		cfg := cfgs[ci] // copy; fill must not mutate the caller's slice
		if err := cfg.fill(); err != nil {
			return nil, fmt.Errorf("goofi: campaign %d (%s): %w", ci, cfg.Name, err)
		}
		if cfg.Workers > poolSize {
			poolSize = cfg.Workers
		}
		goldenCtrl := cfg.New()
		stateDim := len(goldenCtrl.State())
		if stateDim == 0 {
			return nil, fmt.Errorf("goofi: campaign %d (%s): controller exposes no state to inject into", ci, cfg.Name)
		}
		c := &varCampaign{
			cfg:       cfg,
			exps:      make([]varExperiment, cfg.Experiments),
			records:   make([]Record, cfg.Experiments),
			completed: make([]bool, cfg.Experiments),
		}
		// Pre-draw the faults before the golden run so the golden pass
		// knows which iterations to checkpoint. Injections at
		// iteration 0 have no prefix to skip and stay full replays.
		sampler := inject.NewVarSampler(cfg.Seed, stateDim, cfg.Iterations)
		want := make(map[int]bool)
		for i := range c.exps {
			it, flip := sampler.Next()
			c.exps[i] = varExperiment{iteration: it, flip: flip}
			if it > 0 && !cfg.DisableWarmStart {
				want[it] = true
			}
		}
		if cfg.DisableWarmStart {
			c.golden = runVarLoop(goldenCtrl, &c.cfg, -1, inject.VarFlip{})
		} else {
			c.golden, c.ckpts = runVarGolden(goldenCtrl, &c.cfg, want)
		}
		c.goldenFinal = goldenCtrl.State()
		totalExps += cfg.Experiments
		camps[ci] = c
	}
	if poolSize > totalExps {
		poolSize = totalExps
	}

	// Injection phase: one task queue over (campaign, experiment)
	// pairs; records land at fixed indices, so the result is
	// deterministic regardless of worker scheduling.
	type task struct{ camp, exp int }
	next := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < poolSize; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range next {
				if ctx.Err() != nil {
					continue // drain without running
				}
				c := camps[tk.camp]
				e := c.exps[tk.exp]
				outputs, ctrl := c.runOne(e)
				stateDiffers := !float64SlicesEqual(ctrl.State(), c.goldenFinal)
				verdict := classify.Run(c.golden, outputs, stateDiffers, c.cfg.Classify)
				c.records[tk.exp] = Record{
					ID:         tk.exp,
					Variant:    c.cfg.Name,
					Region:     "variable",
					Element:    fmt.Sprintf("state[%d]", e.flip.Element),
					Bit:        e.flip.Bit,
					At:         uint64(e.iteration),
					Outcome:    verdict.Outcome.String(),
					FirstDev:   verdict.FirstDeviation,
					StrongIts:  verdict.StrongIterations,
					MaxDev:     verdict.MaxDeviation,
					Provenance: ProvenanceSimulated,
				}
				c.completed[tk.exp] = true
			}
		}()
	}
feed:
	for ci, c := range camps {
		for i := 0; i < c.cfg.Experiments; i++ {
			select {
			case next <- task{camp: ci, exp: i}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(next)
	wg.Wait()

	results := make([]*Result, len(camps))
	err := ctx.Err()
	for ci, c := range camps {
		res := &Result{Records: c.records}
		if c.ckpts != nil {
			res.WarmStart = &WarmStartStats{
				Resumed:     int(c.resumed.Load()),
				FullReplays: int(c.fullReplays.Load()),
				Checkpoints: len(c.ckpts),
			}
		}
		if err != nil {
			partial := make([]Record, 0, len(c.records))
			for i, ok := range c.completed {
				if ok {
					partial = append(partial, c.records[i])
				}
			}
			res.Records = partial
		}
		results[ci] = res
	}
	return results, err
}

// VarSummary condenses a variable-level campaign: total value failures
// and the severe share.
func VarSummary(recs []Record) (valueFailures, severe stats.Proportion) {
	c := counterForRegion(recs, "")
	return ValueFailureProportion(c), SevereProportion(c)
}

// float64SlicesEqual compares two state vectors bit-exactly (NaN-safe:
// a NaN state differs from any golden value, which is what the latent
// classification needs).
func float64SlicesEqual(a, b []float64) bool {
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
