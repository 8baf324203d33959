// Package goofi reimplements the campaign structure of the paper's
// GOOFI tool (Generic Object-Oriented Fault Injection): configuration,
// set-up, a reference (golden) execution, a fault-injection phase of
// independent experiments, result logging, and an analysis phase that
// reproduces the paper's tables.
package goofi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/workload"
)

// Config describes one fault-injection campaign.
type Config struct {
	// Variant selects the workload program (Algorithm I, II or an
	// ablation variant).
	Variant workload.Variant

	// Experiments is the number of faults to inject.
	Experiments int

	// Seed makes the campaign reproducible.
	Seed uint64

	// Spec configures each run; the zero value means the paper's
	// 650-iteration engine workload. It carries no RunSpec.Hook, which
	// every worker would share; detectors are armed through Detect.
	Spec workload.RunSpec

	// Workers bounds the number of parallel experiments
	// (0 = GOMAXPROCS).
	Workers int

	// Classify holds the failure-classification thresholds; the zero
	// value means the paper's defaults.
	Classify classify.Config

	// Progress, if non-nil, is called after each completed experiment
	// with the number done so far.
	Progress func(done, total int)

	// OnRecord, if non-nil, is called with each completed experiment's
	// record. Calls are serialised (never concurrent) but their order
	// follows worker completion, not experiment ID.
	OnRecord func(Record)

	// Resume holds records persisted by an earlier, interrupted run of
	// the same campaign. Experiments whose deterministic injection
	// matches a resumed record are not re-executed: the record is
	// reused verbatim, so a restarted campaign converges on the same
	// result as an uninterrupted one while only paying for the missing
	// experiments. Records that do not match (different seed or spec)
	// and abandoned records are ignored and re-run.
	Resume []Record

	// OnResume, if non-nil, is called once, before execution starts,
	// with the records reused from Resume (in experiment-ID order).
	// OnRecord is NOT called for reused records.
	OnResume func([]Record)

	// ExperimentRetries bounds how many times a panicking or
	// deadline-expired experiment is re-attempted before being recorded
	// as OutcomeAbandoned (0 = DefaultExperimentRetries, negative = no
	// retries).
	ExperimentRetries int

	// ExperimentTimeout is the per-attempt wall-clock deadline (0 =
	// none). A hung experiment is abandoned at the deadline instead of
	// wedging its worker. The deadline bounds the experiment's own run,
	// forked off the worker's cursor or not; the fault-free cursor
	// itself has none.
	ExperimentTimeout time.Duration

	// RetryBackoff is the sleep before the first retry, doubled per
	// attempt (0 = DefaultRetryBackoff).
	RetryBackoff time.Duration

	// Chaos, if non-nil, is invoked at the start of every experiment
	// attempt. TEST-ONLY: the chaos harness uses it to crash (panic) or
	// hang (sleep) workers mid-campaign and prove fault isolation;
	// production configs leave it nil. The hook runs before the attempt
	// touches the worker's cursor, so a crash or hang leaves the cursor
	// where it was and the retry forks off it again.
	Chaos func(id, attempt int)

	// Ablate switches fast-path layers off. TEST-AND-BENCH-ONLY: every
	// layer keeps records byte-identical (pinned by tests), so the
	// cross-validation tests and the per-layer benchmarks use it to
	// compare the stacks with and without a layer; production configs
	// leave it zero. Declined layers are reported in Result.Plan.
	Ablate Layer

	// Model selects the fault model for every injection (the zero
	// value is the paper's permanent single bit-flip). Non-default
	// models decline the prune fast path but keep the warm start (see
	// planFor).
	Model inject.FaultModel

	// BurstWidth is the adjacent-bit span for Model "burst"
	// (0 = workload.DefaultBurstWidth).
	BurstWidth int

	// Detect arms in-loop detectors (signature monitoring and/or a
	// behavior-derived automaton mined from this campaign's golden run)
	// on every experiment. Armed campaigns keep the warm start: each
	// worker's cursor runs under its own monitor stack, every lane
	// forked off it inherits that stack's state, and the golden splice
	// requires it to match. They take their monitored golden set-up
	// from the memo and decline pruning (see planFor).
	Detect detect.Spec

	// Shard, if non-nil, restricts the campaign to the contiguous
	// experiment-ID range [Shard.Start, Shard.End) of the full plan.
	// The golden run, the sampler's full plan, and the pruner's
	// classification are identical to a solo run's; only experiments in
	// the range execute and emit records (plus any out-of-shard class
	// representative an in-shard member's verdict depends on, which runs
	// but is not emitted). Result.Records holds the shard's records in
	// experiment-ID order, each byte-identical to the corresponding solo
	// record — the invariant distributed campaigns rely on to merge
	// shard segments into a solo-identical file.
	Shard *Shard

	// image, set only by RunSWIFI, draws the faults from the program
	// image (inject.ImageSampler) instead of the CPU state.
	image bool
}

// Record is the logged result of a single fault-injection experiment —
// one row of the campaign database.
type Record struct {
	ID        int     `json:"id"`
	Variant   string  `json:"variant"`
	Region    string  `json:"region"`
	Element   string  `json:"element"`
	Bit       uint    `json:"bit"`
	At        uint64  `json:"at"`
	Outcome   string  `json:"outcome"`
	Mechanism string  `json:"mechanism,omitempty"`
	FirstDev  int     `json:"firstDeviation"`
	StrongIts int     `json:"strongIterations"`
	MaxDev    float64 `json:"maxDeviation"`

	// Model and Width name the fault model of the injection; both are
	// empty/zero for the default single bit-flip, so historical records
	// keep their exact wire shape.
	Model string `json:"model,omitempty"`
	Width int    `json:"width,omitempty"`

	// Provenance records how the verdict was obtained: "simulated" for
	// an executed experiment, "pruned-dead" for a record synthesized
	// because the pruner proved the fault non-effective,
	// "class-representative:<n>" for a simulated run whose verdict was
	// fanned out to n equivalence-class members, and
	// "class-member-of:<id>" for a record inferred from representative
	// experiment <id>.
	Provenance string `json:"provenance,omitempty"`
}

// Result is a completed campaign.
type Result struct {
	Config Config

	// Golden is the campaign's reference run. Campaigns of a variant's
	// default spec share one outcome across the process, so treat it as
	// read-only.
	Golden *workload.Outcome

	Records []Record

	// Plan is the fast-path decision the campaign executed, with the
	// reason for every declined layer.
	Plan ExecPlan

	// WarmStart reports the prefix engine's work avoidance; nil
	// exactly when Plan declined the layer.
	WarmStart *WarmStartStats

	// Prune reports the fault-space pruner's work avoidance; nil
	// exactly when Plan declined the layer.
	Prune *PruneStats

	// Lockstep is always nil: the lockstep batching engine it reported
	// on was retired, and lanes now fork off each worker's golden
	// cursor (WarmStart). The field stays because the benchmark module
	// (bench/layers.go) still reads it.
	Lockstep *LockstepStats

	// Detect reports the armed detectors' configuration, verdict counts
	// and modeled overhead; nil when no detectors were armed.
	Detect *DetectStats

	// Faults reports the campaign engine's own fault handling: retries,
	// recovered panics, deadline expiries, abandoned experiments, and
	// records reused from a resumed run. All zero for a healthy,
	// fresh campaign.
	Faults FaultStats
}

// LockstepStats is the type of the always-nil Result.Lockstep, kept
// for the benchmark module that still reads it.
type LockstepStats struct {
	Batches int `json:"batches"`
	Lanes   int `json:"lanes"`
	Solo    int `json:"solo"`
}

// errSpecHook refuses a Config.Spec that carries a per-instruction hook.
var errSpecHook = errors.New("goofi: Config.Spec carries a Monitor or Observer; arm detectors through Config.Detect")

// Run executes a campaign: golden run, then Experiments independent
// fault injections with uniform (location, time) sampling, classified
// against the golden outputs.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled the
// campaign stops at the next experiment boundary and returns the
// records completed so far (ordered by experiment ID) together with
// ctx's error. A nil ctx behaves like context.Background.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Experiments <= 0 {
		return nil, fmt.Errorf("goofi: campaign needs a positive experiment count, got %d", cfg.Experiments)
	}
	shard := cfg.Shard
	if shard != nil {
		if err := shard.validFor(cfg.Experiments); err != nil {
			return nil, err
		}
	}
	inShard := func(i int) bool { return shard == nil || shard.Contains(i) }
	shardTotal := cfg.Experiments
	if shard != nil {
		shardTotal = shard.Size()
	}
	if cfg.Classify == (classify.Config{}) {
		cfg.Classify = classify.DefaultConfig()
	}

	// The warm start records state digests during the golden run and the
	// pruner's def-use capture monitors it to build its event index;
	// armed detectors run it under their monitors, mine the automaton
	// from it and repeat it under the experiments' monitor stack for the
	// warm start's reference. The set-up of a variant's default spec is
	// the same for every campaign, so the plan takes it from the
	// process-wide memo, keyed by the armed detectors and with the prune
	// index only when the plan prunes; warm-start counters, the dead
	// verdict and detector verdict counts stay per campaign.
	xp, prog, su, err := setupFor(&cfg)
	if err != nil {
		return nil, err
	}
	golden, det := su.golden, su.det
	var warm *warmState
	if xp.WarmStart {
		var werr error
		if warm, werr = newWarmState(prog, cfg.Spec, golden, det); werr != nil {
			xp.decline(LayerWarmStart, werr.Error())
		}
	}
	var prn *pruneState
	switch {
	case xp.Prune && su.idx != nil:
		prn = newPruneState(su.idx, golden, cfg.Classify)
	case xp.Prune:
		xp.decline(LayerPrune, "the golden-run capture built no def-use index")
	}

	// Set-up phase: pre-draw every experiment's fault so the campaign
	// is deterministic regardless of worker scheduling.
	var sampler interface{ Next() workload.Injection }
	if cfg.image {
		sampler, err = inject.NewImageSampler(cfg.Seed, prog, cfg.Model, cfg.BurstWidth)
	} else {
		sampler, err = inject.NewModelSampler(cfg.Seed, golden.Instructions, cfg.Model, cfg.BurstWidth)
	}
	if err != nil {
		return nil, err
	}
	injections := make([]workload.Injection, cfg.Experiments)
	for i := range injections {
		injections[i] = sampler.Next()
	}

	// Pruning phase: classify the whole plan against the golden event
	// index before anything executes. The plan is deterministic for a
	// given (spec, seed), so resumed campaigns rebuild it identically.
	var plan *prunePlan
	if xp.Prune {
		plan = buildPrunePlan(prn.idx, injections)
	}
	prov := func(i int) string {
		if plan != nil {
			return plan.provenance(i)
		}
		return ProvenanceSimulated
	}

	// Feed experiments in injection order so every worker's golden
	// cursor only walks forward. Records still land at their experiment
	// ID, so results are unaffected.
	order := make([]int, cfg.Experiments)
	for i := range order {
		order[i] = i
	}
	if warm != nil {
		sort.SliceStable(order, func(a, b int) bool {
			return injections[order[a]].At < injections[order[b]].At
		})
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Experiments {
		workers = cfg.Experiments
	}

	records := make([]Record, cfg.Experiments)
	completed := make([]bool, cfg.Experiments)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		done   int
		faults FaultStats
	)

	// Best-effort recovery for the campaign itself: records persisted
	// by an earlier interrupted run stand in for their experiments, so
	// a restart only pays for the work that was lost.
	if len(cfg.Resume) > 0 {
		byID := make(map[int]Record, len(cfg.Resume))
		for _, rec := range cfg.Resume {
			if rec.ID >= 0 && rec.ID < cfg.Experiments {
				byID[rec.ID] = rec // later lines are newer re-runs
			}
		}
		var reused []Record
		for i := range injections {
			rec, ok := byID[i]
			if !ok || !inShard(i) || !resumable(rec, string(cfg.Variant), injections[i]) {
				continue
			}
			// Normalize to this run's plan so a restarted campaign's
			// record file matches an uninterrupted one, even when the
			// interrupted run had pruning toggled differently.
			rec.Provenance = prov(i)
			records[i] = rec
			completed[i] = true
			done++
			reused = append(reused, rec)
		}
		faults.Resumed = len(reused)
		if len(reused) > 0 {
			if cfg.Progress != nil {
				cfg.Progress(done, shardTotal)
			}
			if cfg.OnResume != nil {
				cfg.OnResume(reused)
			}
		}
	}

	// emit books experiment i's record. An out-of-shard class
	// representative runs only to supply its class verdict: its record
	// is kept for fan-out but not counted or handed to OnRecord. Callers
	// hold mu (or run before the workers start).
	emit := func(i int, rec Record) {
		records[i], completed[i] = rec, true
		if !inShard(i) {
			return
		}
		done++
		if cfg.Progress != nil {
			cfg.Progress(done, shardTotal)
		}
		if cfg.OnRecord != nil {
			cfg.OnRecord(rec)
		}
	}
	// fanOut infers the records of rep's equivalence-class members from
	// its verdict, skipping members reused from a resumed run and other
	// shards' members.
	fanOut := func(rep int) {
		for _, m := range plan.members[rep] {
			if !completed[m] && inShard(m) {
				emit(m, memberRecord(m, injections[m], records[rep]))
			}
		}
	}
	// settle emits a simulated experiment's record; a class
	// representative's verdict is stamped and fanned out to its members
	// unless it was abandoned, which leaves the members to the fallback
	// pass below.
	settle := func(i int, rec Record) {
		rep := plan != nil && plan.decision[i] == pdRep && rec.Outcome != OutcomeAbandoned
		if rep {
			rec.Provenance = prov(i)
		}
		emit(i, rec)
		if rep {
			fanOut(i)
		}
	}

	if plan != nil && ctx.Err() == nil {
		// Dead faults never execute: synthesize their records up front,
		// carrying the golden run's verdict against itself.
		for i := range injections {
			if !completed[i] && plan.decision[i] == pdDead && inShard(i) {
				emit(i, verdictRecord(cfg, i, injections[i], prn.deadVerdict, ProvenanceDead))
			}
		}
		// Representatives already settled by a resumed run fan out now.
		for rep := range plan.members {
			if completed[rep] && records[rep].Outcome != OutcomeAbandoned {
				fanOut(rep)
			}
		}
	}

	// runOne executes experiment i under fault isolation and books its
	// record. cur is the calling worker's cursor slot, nil for a run
	// from instruction 0.
	runOne := func(cur **workload.Cursor, i int) {
		rec, fs := runExperimentIsolated(prog, cfg, golden, warm, det, cur, i, injections[i])
		mu.Lock()
		faults.Add(fs)
		settle(i, rec)
		mu.Unlock()
	}

	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cur *workload.Cursor // this worker's golden cursor
			for i := range next {
				if ctx.Err() == nil { // else drain without running
					runOne(&cur, i)
				}
			}
		}()
	}

feed:
	for _, i := range order {
		// Members and dead faults never dispatch (members land with
		// their representative); checking the plan first also keeps this
		// unlocked completed[] read off indices the workers' fan-out
		// writes concurrently.
		if plan != nil && (plan.decision[i] == pdDead || plan.decision[i] == pdMember) {
			continue
		}
		if !inShard(i) {
			// Another shard's experiment — unless it is a class
			// representative whose verdict an in-shard member still
			// needs, in which case it runs here too (un-emitted). The
			// members read below is safe unlocked: only this
			// representative's own fan-out writes them, and it cannot
			// have been dispatched yet.
			if plan == nil || plan.decision[i] != pdRep {
				continue
			}
			needed := false
			for _, m := range plan.members[i] {
				if inShard(m) && !completed[m] {
					needed = true
					break
				}
			}
			if !needed {
				continue
			}
		}
		if completed[i] {
			continue // reused from a resumed run
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	// An abandoned representative (wall-clock deadline — the one
	// nondeterministic outcome) cannot vouch for its class: fall back to
	// simulating the members it was standing for, from instruction 0
	// (they may inject behind every cursor).
	if plan != nil && ctx.Err() == nil {
		for rep, members := range plan.members {
			if !completed[rep] || records[rep].Outcome != OutcomeAbandoned {
				continue
			}
			for _, m := range members {
				if !completed[m] && inShard(m) && ctx.Err() == nil {
					runOne(nil, m)
				}
			}
		}
	}

	lo, hi := 0, cfg.Experiments
	if shard != nil {
		lo, hi = shard.Start, shard.End
	}
	res := &Result{Config: cfg, Plan: xp, Golden: golden, Records: records, Faults: faults}
	if warm != nil {
		res.WarmStart = warm.stats()
	}
	if det != nil {
		res.Detect = det.tally(res.Records)
	}
	if plan != nil {
		res.Prune = tallyPrune(records, completed, shardTotal, lo, hi)
	}
	if shard != nil || ctx.Err() != nil {
		// Shard runs emit only their own range; cancelled runs only what
		// finished. Either way the records stay in experiment-ID order.
		partial := make([]Record, 0, done)
		for i := lo; i < hi; i++ {
			if completed[i] {
				partial = append(partial, records[i])
			}
		}
		res.Records = partial
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runExperiment performs one fault injection and classifies it: forked
// off the worker's cursor slot cur when the warm start runs, from
// instruction 0 otherwise. A non-zero deadline bounds the run's
// wall-clock time; an expired run returns errExperimentDeadline instead
// of a (meaningless) record.
func runExperiment(prog *cpu.Program, cfg Config, golden *workload.Outcome, warm *warmState, det *detectState, cur **workload.Cursor, id int, inj workload.Injection, deadline time.Time) (Record, error) {
	spec := cfg.Spec
	spec.Injection = &inj
	spec.Deadline = deadline
	spec.Monitor = det.newMonitor(prog) // a fresh monitor stack per run
	var out *workload.Outcome
	if warm != nil {
		out = warm.run(cur, spec)
	} else {
		out = workload.Run(prog, spec)
	}
	if out.Aborted {
		return Record{}, errExperimentDeadline
	}
	return buildRecord(cfg, golden, id, inj, out), nil
}

// buildRecord classifies one experiment outcome against the golden run
// into its campaign record. An image fault's final state is compared
// past the injected word, which necessarily still differs
// (statesEqualIgnoringImage).
func buildRecord(cfg Config, golden *workload.Outcome, id int, inj workload.Injection, out *workload.Outcome) Record {
	if out.Detected() {
		return verdictRecord(cfg, id, inj, classify.DetectedVerdict(string(out.Trap.Mech)), ProvenanceSimulated)
	}
	var same bool
	switch inj.Bit.Region {
	case cpu.RegionImageCode, cpu.RegionImageData:
		same = statesEqualIgnoringImage(golden.FinalState, out.FinalState, cpu.BurstMask(inj.Bit.Bit, inj.Width))
	default:
		same = cpu.StatesEqual(golden.FinalState, out.FinalState)
	}
	v := classify.RunMulti(golden.MultiOutputs, out.MultiOutputs, !same, cfg.Classify)
	return verdictRecord(cfg, id, inj, v, ProvenanceSimulated)
}

// verdictRecord is experiment id's record: the fields its injection
// fixes plus verdict v. Simulated, pruned-dead and abandoned records
// are all built here, so they share one shape.
func verdictRecord(cfg Config, id int, inj workload.Injection, v classify.Verdict, provenance string) Record {
	return Record{
		ID:         id,
		Variant:    string(cfg.Variant),
		Region:     string(inj.Bit.Region),
		Element:    inj.Bit.Element,
		Bit:        inj.Bit.Bit,
		At:         inj.At,
		Outcome:    v.Outcome.String(),
		Mechanism:  v.Mechanism,
		FirstDev:   v.FirstDeviation,
		StrongIts:  v.StrongIterations,
		MaxDev:     v.MaxDeviation,
		Model:      string(inj.Model),
		Width:      inj.Width,
		Provenance: provenance,
	}
}
