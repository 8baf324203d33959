package goofi

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/control"
	"ctrlguard/internal/core"
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

	// New constructs a fresh controller for the golden run, for each
	// worker's golden cursor and for each experiment that runs in full.
	// The controller is driven through Stateful.Update with inputs
	// [r, y]. Workers run concurrently, so each call must return a
	// controller that shares no mutable state (such as a stateful
	// assertion) with the others.
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

	// noWarmStart forces every experiment to replay the pre-injection
	// iterations instead of forking off a clone of the worker's golden
	// cursor; tests use it to pin that both produce the same records.
	// Warm start also disables itself when the controller does not
	// support cloning (no CloneStateful method, or a guard with an
	// uncloneable assertion).
	noWarmStart bool
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

// varLoopFrom drives ctrl closed-loop from iteration startK, with the
// plant eng and last measurement y there, and returns the output trace:
// iterations [0, startK) are taken from the golden prefix (identical by
// determinism — the injection has not happened yet), iterations
// [startK, Iterations) are executed. corruptAt < 0 disables injection.
func varLoopFrom(ctrl control.Stateful, eng *plant.Engine, y float64, startK int,
	prefix []float64, cfg *VarConfig, corruptAt int, flip inject.VarFlip) []float64 {
	out := make([]float64, 0, cfg.Iterations)
	out = append(out, prefix[:startK]...)
	for k := startK; k < cfg.Iterations; k++ {
		if k == corruptAt {
			flip.Apply(ctrl)
		}
		var u float64
		u, y = varStep(cfg, ctrl, eng, y, k)
		out = append(out, u)
	}
	return out
}

// varStep runs control iteration k from measurement y and returns the
// controller's output and the plant's next measurement.
func varStep(cfg *VarConfig, ctrl control.Stateful, eng *plant.Engine, y float64, k int) (u, next float64) {
	t := float64(k) * cfg.Engine.T
	u = ctrl.Update([]float64{cfg.Reference(t), y})[0]
	return u, eng.Step(u)
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
	base        int  // the batch task ID of experiment 0
	warm        bool // experiments fork off golden cursors
	faults      FaultStats

	resumed, fullReplays, cursors atomic.Int64
}

// varCursor is a worker's golden controller and plant for campaign
// camp, at the top of iteration k with last measurement y. It only
// walks forward; every experiment forks off a clone of it.
type varCursor struct {
	camp *varCampaign
	ctrl control.Stateful
	eng  *plant.Engine
	y    float64
	k    int
}

// run executes experiment e, forked off the worker's cursor when the
// warm start is on, from New() otherwise, and returns its outputs and
// faulty controller. The cursor is taken out of its slot while it
// advances, so a panic there leaves a fresh one to the retry.
func (c *varCampaign) run(slot *varCursor, e varExperiment) ([]float64, control.Stateful) {
	if c.warm {
		cur := *slot
		*slot = varCursor{}
		if cur.camp != c || cur.k > e.iteration {
			eng := plant.NewEngine(*c.cfg.Engine)
			cur = varCursor{camp: c, ctrl: c.cfg.New(), eng: eng, y: eng.Speed()}
			c.cursors.Add(1)
		}
		for ; cur.k < e.iteration; cur.k++ {
			_, cur.y = varStep(&c.cfg, cur.ctrl, cur.eng, cur.y, cur.k)
		}
		*slot = cur
		if ctrl, ok := core.CloneController(cur.ctrl); ok {
			c.resumed.Add(1)
			return varLoopFrom(ctrl, cur.eng.Clone(), cur.y, cur.k, c.golden, &c.cfg, e.iteration, e.flip), ctrl
		}
	}
	c.fullReplays.Add(1)
	ctrl, eng := c.cfg.New(), plant.NewEngine(*c.cfg.Engine)
	return varLoopFrom(ctrl, eng, eng.Speed(), 0, nil, &c.cfg, e.iteration, e.flip), ctrl
}

// record is experiment id's record with verdict v.
func (c *varCampaign) record(id int, v classify.Verdict) Record {
	e := c.exps[id]
	return Record{
		ID:         id,
		Variant:    c.cfg.Name,
		Region:     "variable",
		Element:    fmt.Sprintf("state[%d]", e.flip.Element),
		Bit:        e.flip.Bit,
		At:         uint64(e.iteration),
		Outcome:    v.Outcome.String(),
		FirstDev:   v.FirstDeviation,
		StrongIts:  v.StrongIterations,
		MaxDev:     v.MaxDeviation,
		Provenance: ProvenanceSimulated,
	}
}

// RunVariableBatch evaluates several variable-level campaigns on the
// campaign engine's worker loop, interleaving their experiments so a
// batch of small campaigns saturates the machine the way one large
// campaign does — the throughput path for the design-space tuner,
// which evaluates many candidate configurations at once. Results align
// with cfgs by index, and each campaign's records are identical to what
// RunVariable would produce alone: faults are pre-drawn per campaign
// from its own seed, so scheduling cannot change any result. Every
// experiment runs under the loop's fault isolation with the default
// retry budget: one whose controller keeps panicking is recorded as
// OutcomeAbandoned and counted in its campaign's Result.Faults.
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
	workers, total := 0, 0
	for ci := range cfgs {
		cfg := cfgs[ci] // copy; fill must not mutate the caller's slice
		if err := cfg.fill(); err != nil {
			return nil, fmt.Errorf("goofi: campaign %d (%s): %w", ci, cfg.Name, err)
		}
		workers = max(workers, cfg.Workers)
		goldenCtrl := cfg.New()
		stateDim := len(goldenCtrl.State())
		if stateDim == 0 {
			return nil, fmt.Errorf("goofi: campaign %d (%s): controller exposes no state to inject into", ci, cfg.Name)
		}
		_, cloneable := core.CloneController(goldenCtrl)
		c := &varCampaign{
			cfg:  cfg,
			exps: make([]varExperiment, cfg.Experiments),
			base: total,
			warm: cloneable && !cfg.noWarmStart,
		}
		sampler := inject.NewVarSampler(cfg.Seed, stateDim, cfg.Iterations)
		for i := range c.exps {
			it, flip := sampler.Next()
			c.exps[i] = varExperiment{iteration: it, flip: flip}
		}
		eng := plant.NewEngine(*cfg.Engine)
		c.golden = varLoopFrom(goldenCtrl, eng, eng.Speed(), 0, nil, &c.cfg, -1, inject.VarFlip{})
		c.goldenFinal = goldenCtrl.State()
		total += cfg.Experiments
		camps[ci] = c
	}

	// Injection phase: the batch's experiments are the loop's tasks,
	// numbered campaign by campaign and fed in (campaign, injection
	// iteration) order so every worker's cursor only walks forward.
	// Records land at their task ID, so the result is deterministic
	// regardless of worker scheduling.
	type task struct {
		c  *varCampaign
		id int
	}
	tasks := make([]task, 0, total)
	ids := make([]int, 0, total)
	for _, c := range camps {
		for i := range c.exps {
			tasks = append(tasks, task{c, i})
			ids = append(ids, c.base+i)
		}
		sort.SliceStable(ids[c.base:], func(a, b int) bool {
			return c.exps[ids[c.base+a]-c.base].iteration < c.exps[ids[c.base+b]-c.base].iteration
		})
	}
	loop := newCampaignLoop[varCursor](total, &Config{})
	loop.run = func(slot *varCursor, t int, _ func() bool) (Record, error) {
		tk := tasks[t]
		outputs, ctrl := tk.c.run(slot, tk.c.exps[tk.id])
		stateDiffers := !float64SlicesEqual(ctrl.State(), tk.c.goldenFinal)
		return tk.c.record(tk.id, classify.Run(tk.c.golden, outputs, stateDiffers, tk.c.cfg.Classify)), nil
	}
	loop.blank = func(t int) Record { return tasks[t].c.record(tasks[t].id, classify.Verdict{}) }
	loop.settle = func(t int, rec Record, fs FaultStats) {
		tasks[t].c.faults.Add(fs)
		loop.book(t, rec, false)
	}
	loop.runAll(ctx, workers, ids)

	results := make([]*Result, len(camps))
	err := ctx.Err()
	for ci, c := range camps {
		lo, hi := c.base, c.base+c.cfg.Experiments
		res := &Result{Records: loop.records[lo:hi:hi], Stats: Stats{Faults: c.faults}}
		if c.warm {
			res.WarmStart = &WarmStartStats{
				Resumed:     int(c.resumed.Load()),
				FullReplays: int(c.fullReplays.Load()),
				Checkpoints: int(c.cursors.Load()),
			}
		}
		if err != nil {
			res.Records = loop.partial(lo, hi)
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
