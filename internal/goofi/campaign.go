// Package goofi reimplements the campaign structure of the paper's
// GOOFI tool (Generic Object-Oriented Fault Injection): configuration,
// set-up, a reference (golden) execution, a fault-injection phase of
// independent experiments, result logging, and an analysis phase that
// reproduces the paper's tables.
package goofi

import (
	"context"
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
	// 650-iteration engine workload.
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
	// wedging its worker.
	ExperimentTimeout time.Duration

	// RetryBackoff is the sleep before the first retry, doubled per
	// attempt (0 = DefaultRetryBackoff).
	RetryBackoff time.Duration

	// Chaos, if non-nil, is invoked at the start of every experiment
	// attempt. TEST-ONLY: the chaos harness uses it to crash (panic) or
	// hang (sleep) workers mid-campaign and prove fault isolation;
	// production configs leave it nil.
	Chaos func(id, attempt int)

	// Ablate switches fast-path layers off. TEST-AND-BENCH-ONLY: every
	// layer keeps records byte-identical (pinned by tests), so the
	// cross-validation tests and the per-layer benchmarks use it to
	// compare the stacks with and without a layer; production configs
	// leave it zero. Declined layers are reported in Result.Plan.
	Ablate Layer

	// Model selects the fault model for every injection (the zero
	// value is the paper's permanent single bit-flip). Non-default
	// models decline the prune fast path but keep the warm start and
	// lockstep (see planFor).
	Model inject.FaultModel

	// BurstWidth is the adjacent-bit span for Model "burst"
	// (0 = workload.DefaultBurstWidth).
	BurstWidth int

	// Detect arms in-loop detectors (signature monitoring and/or a
	// behavior-derived automaton mined from this campaign's golden run)
	// on every experiment. Armed campaigns keep the warm start, whose
	// checkpoints and golden splice carry the monitors' state, and take
	// their monitored golden set-up from the memo; they decline pruning
	// and lockstep (see planFor).
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

	// lockstepK, if positive, overrides the derived lockstep batch
	// size (see lockstepBatchK).
	lockstepK int

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

	// WarmStart reports the checkpoint fast path's work avoidance;
	// nil exactly when Plan declined the layer.
	WarmStart *WarmStartStats

	// Prune reports the fault-space pruner's work avoidance; nil
	// exactly when Plan declined the layer.
	Prune *PruneStats

	// Lockstep reports the batching engine's work sharing; nil exactly
	// when Plan declined the layer.
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
	xp := planFor(cfg)
	if cfg.Spec.Iterations == 0 {
		cfg.Spec = workload.SpecFor(cfg.Variant)
	}
	if cfg.Classify == (classify.Config{}) {
		cfg.Classify = classify.DefaultConfig()
	}
	prog := workload.Program(cfg.Variant)

	// The warm start records state digests during the golden run and the
	// pruner piggybacks a def-use observer on it to build its event
	// index; armed detectors run it under their monitors, mine the
	// automaton from it and repeat it under the experiments' monitor
	// stack for the warm start's reference. The set-up of a variant's
	// default spec is the same for every campaign, so the plan takes it
	// from the process-wide memo, keyed by the armed detectors and with
	// the prune index only when the plan prunes; warm-start counters, the
	// dead verdict and detector verdict counts stay per campaign.
	var (
		su  setup
		err error
	)
	if xp.memo {
		su, err = prepFor(cfg.Variant, prog, xp.Prune, cfg.Detect)
	} else {
		su, err = newSetup(prog, cfg.Spec, xp.WarmStart, xp.Prune, cfg.Detect)
	}
	if err != nil {
		return nil, err
	}
	golden, det := su.golden, su.det
	var warm *warmState
	if xp.WarmStart {
		warm = newWarmState(prog, cfg.Spec, golden, det, checkpointCap)
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

	// Feed experiments in injection order so the checkpoint capture
	// cursor walks forward monotonically and lockstep batches group
	// At-adjacent experiments over one shared replay. Records still
	// land at their experiment ID, so results are unaffected.
	order := make([]int, cfg.Experiments)
	for i := range order {
		order[i] = i
	}
	if xp.WarmStart || xp.Lockstep {
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

	var lockstep *LockstepStats
	if xp.Lockstep {
		// Size batches from the experiments this call will dispatch:
		// pruning and resume typically leave a small fraction of the
		// plan to simulate.
		sim := 0
		for i := range injections {
			if completed[i] || !inShard(i) {
				continue
			}
			if plan == nil || plan.decision[i] == pdSimulate || plan.decision[i] == pdRep {
				sim++
			}
		}
		lockstep = &LockstepStats{K: lockstepBatchK(cfg, workers, sim)}
	}

	// runSolo executes one experiment the classic way — isolated,
	// retried, deadline-bounded — and books its record.
	runSolo := func(i int) {
		rec, fs := runExperimentIsolated(prog, cfg, golden, warm, det, i, injections[i])
		mu.Lock()
		faults.Add(fs)
		if lockstep != nil {
			lockstep.Solo++
		}
		settle(i, rec)
		mu.Unlock()
	}

	next := make(chan []int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for batch := range next {
				if ctx.Err() != nil {
					continue // drain without running
				}
				if lockstep != nil && len(batch) > 1 {
					if outs := runBatchLockstep(prog, cfg, warm, batch, injections); outs != nil {
						mu.Lock()
						lockstep.Batches++
						mu.Unlock()
						for j, i := range batch {
							if outs[j] == nil {
								// The fault-free run ends before this
								// injection point; only the solo engine
								// defines that outcome.
								runSolo(i)
								continue
							}
							rec := buildRecord(cfg, golden, i, injections[i], outs[j])
							mu.Lock()
							lockstep.Lanes++
							settle(i, rec)
							mu.Unlock()
						}
						continue
					}
				}
				for _, i := range batch {
					if ctx.Err() != nil {
						break
					}
					runSolo(i)
				}
			}
		}()
	}

	batchCap := 1
	if lockstep != nil {
		batchCap = lockstep.K
	}
	pending := make([]int, 0, batchCap)
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
		pending = append(pending, i)
		if len(pending) < batchCap {
			continue
		}
		select {
		case next <- pending:
			pending = make([]int, 0, batchCap)
		case <-ctx.Done():
			break feed
		}
	}
	if len(pending) > 0 && ctx.Err() == nil {
		select {
		case next <- pending:
		case <-ctx.Done():
		}
	}
	close(next)
	wg.Wait()

	// An abandoned representative (wall-clock deadline — the one
	// nondeterministic outcome) cannot vouch for its class: fall back to
	// simulating the members it was standing for.
	if plan != nil && ctx.Err() == nil {
		for rep, members := range plan.members {
			if !completed[rep] || records[rep].Outcome != OutcomeAbandoned {
				continue
			}
			for _, m := range members {
				if !completed[m] && inShard(m) && ctx.Err() == nil {
					runSolo(m)
				}
			}
		}
	}

	lo, hi := 0, cfg.Experiments
	if shard != nil {
		lo, hi = shard.Start, shard.End
	}
	res := &Result{Config: cfg, Plan: xp, Golden: golden, Records: records, Faults: faults, Lockstep: lockstep}
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

// runExperiment performs one fault injection and classifies it. A
// non-zero deadline bounds the run's wall-clock time; an expired run
// returns errExperimentDeadline instead of a (meaningless) record.
func runExperiment(prog *cpu.Program, cfg Config, golden *workload.Outcome, warm *warmState, det *detectState, id int, inj workload.Injection, deadline time.Time) (Record, error) {
	spec := cfg.Spec
	spec.Injection = &inj
	spec.Deadline = deadline
	if det != nil {
		spec.Monitor = det.newMonitor(prog) // a fresh monitor stack per run
	}
	if warm != nil {
		spec.Golden = warm.golden
		spec.From = warm.checkpointFor(inj.At)
	}
	out := workload.Run(prog, spec)
	if out.Aborted {
		return Record{}, errExperimentDeadline
	}
	if warm != nil {
		warm.noteRun(spec.From, out)
	}
	return buildRecord(cfg, golden, id, inj, out), nil
}
