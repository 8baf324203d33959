// Package goofi reimplements the campaign structure of the paper's
// GOOFI tool (Generic Object-Oriented Fault Injection): configuration,
// set-up, a reference (golden) execution, a fault-injection phase of
// independent experiments, result logging, and an analysis phase that
// reproduces the paper's tables.
package goofi

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
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

// Result is a completed campaign: the one result type of every
// execution path, whether it ran in-process, sharded across executors
// or in sequential batches.
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

	// Lockstep is always nil: the lockstep batching engine it reported
	// on was retired, and lanes now fork off each worker's golden
	// cursor (WarmStart). The field stays because the benchmark module
	// (bench/layers.go) still reads it.
	Lockstep *LockstepStats

	Stats
}

// Stats is a campaign's accounting, the part of its Result that a
// campaign run in parts — the shards of a distributed run, the batches
// of a sequential one — reports per part and folds (see Fold).
type Stats struct {
	// Faults reports the campaign engine's own fault handling: retries,
	// recovered panics, deadline expiries, abandoned experiments, and
	// records reused from a resumed run. All zero for a healthy,
	// fresh campaign.
	Faults FaultStats `json:"faults"`

	// Prune reports the fault-space pruner's work avoidance; nil
	// exactly when Plan declined the layer.
	Prune *PruneStats `json:"prune,omitempty"`

	// Detect reports the armed detectors' configuration, verdict counts
	// and modeled overhead; nil when no detectors were armed.
	Detect *DetectStats `json:"detect,omitempty"`
}

// Fold returns the stats of one campaign run in parts, from the parts'
// stats and records, their records merged in experiment order. Fault
// counts are summed; prune stats are summed once any part pruned; the
// detector configuration comes from the first part that armed
// detectors, with its verdict counts re-tallied over records.
func Fold(parts []Stats, records []Record) Stats {
	var s Stats
	for _, p := range parts {
		s.Faults.Add(p.Faults)
		if p.Prune != nil {
			s.Prune = cmp.Or(s.Prune, &PruneStats{})
			s.Prune.Add(*p.Prune)
		}
		if p.Detect != nil && s.Detect == nil {
			d := *p.Detect
			s.Detect = &d
		}
	}
	if s.Detect != nil {
		s.Detect.CFEDetected, s.Detect.AutomatonDetected = tallyDetect(records)
	}
	return s
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

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	loop := newCampaignLoop[*workload.Cursor](cfg.Experiments, &cfg)
	loop.run = func(cur **workload.Cursor, i int, abort func() bool) (Record, error) {
		return runExperiment(prog, cfg, golden, warm, det, cur, i, injections[i], abort)
	}
	loop.blank = func(i int) Record {
		return verdictRecord(cfg, i, injections[i], classify.Verdict{}, ProvenanceSimulated)
	}
	records, completed := loop.records, loop.completed
	var faults FaultStats

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
			loop.book(i, rec, false)
			reused = append(reused, rec)
		}
		faults.Resumed = len(reused)
		if len(reused) > 0 && cfg.OnResume != nil {
			cfg.OnResume(reused)
		}
	}

	// emit books experiment i's record. An out-of-shard class
	// representative runs only to supply its class verdict: its record
	// is kept for fan-out but not handed to OnRecord.
	emit := func(i int, rec Record) { loop.book(i, rec, inShard(i)) }
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
	// A simulated experiment's record is emitted; a class
	// representative's verdict is stamped and fanned out to its members
	// unless it was abandoned, which leaves the members to the fallback
	// pass below.
	loop.settle = func(i int, rec Record, fs FaultStats) {
		faults.Add(fs)
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

	// The experiments to simulate, in injection order when the warm
	// start runs so every worker's golden cursor only walks forward.
	// Records still land at their experiment ID, so results are
	// unaffected. Members and dead faults never run (members land with
	// their representative), nor do experiments reused from a resumed
	// run or other shards' — unless one is a class representative whose
	// verdict an in-shard member still needs, in which case it runs here
	// too (un-emitted).
	needed := func(m int) bool { return inShard(m) && !completed[m] }
	var ids []int
	for i := range injections {
		switch {
		case completed[i]:
		case plan != nil && (plan.decision[i] == pdDead || plan.decision[i] == pdMember):
		case inShard(i) || plan != nil && plan.decision[i] == pdRep && slices.ContainsFunc(plan.members[i], needed):
			ids = append(ids, i)
		}
	}
	runAll := func(ids []int) {
		if warm != nil {
			sort.SliceStable(ids, func(a, b int) bool {
				return injections[ids[a]].At < injections[ids[b]].At
			})
		}
		loop.runAll(ctx, workers, ids)
	}
	runAll(ids)

	// An abandoned representative (wall-clock deadline — the one
	// nondeterministic outcome) cannot vouch for its class: fall back to
	// simulating the members it was standing for, on fresh cursors
	// (they may inject behind every cursor of the first pass).
	if plan != nil && ctx.Err() == nil {
		var fallback []int
		for rep, members := range plan.members {
			if !completed[rep] || records[rep].Outcome != OutcomeAbandoned {
				continue
			}
			for _, m := range members {
				if needed(m) {
					fallback = append(fallback, m)
				}
			}
		}
		runAll(fallback)
	}

	lo, hi := 0, cfg.Experiments
	if shard != nil {
		lo, hi = shard.Start, shard.End
	}
	res := &Result{Config: cfg, Plan: xp, Golden: golden, Records: records, Stats: Stats{Faults: faults}}
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
		res.Records = loop.partial(lo, hi)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runExperiment performs one fault injection and classifies it: forked
// off the worker's cursor slot cur when the warm start runs, from
// instruction 0 otherwise. A non-nil abort bounds the run's wall-clock
// time; a run it stops returns errExperimentDeadline instead of a
// (meaningless) record.
func runExperiment(prog *cpu.Program, cfg Config, golden *workload.Outcome, warm *warmState, det *detectState, cur **workload.Cursor, id int, inj workload.Injection, abort func() bool) (Record, error) {
	spec := cfg.Spec
	spec.Injection = &inj
	spec.Abort = abort
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
