package goofi

import (
	"ctrlguard/internal/classify"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// LockstepStats reports the lockstep batching engine's work sharing:
// how many experiments completed as lanes forked off a shared
// golden-prefix replay versus classic solo runs.
type LockstepStats struct {
	// Batches is the number of lockstep batches executed.
	Batches int `json:"batches"`

	// Lanes is the number of experiments completed as lockstep lanes.
	Lanes int `json:"lanes"`

	// Solo is the number of simulated experiments that ran solo:
	// single-lane batches, lanes the batch engine could not fork (the
	// fault-free run ends before their injection point), and the
	// abandoned-representative fallback pass.
	Solo int `json:"solo"`

	// K is the per-batch lane bound in effect, derived from the
	// post-prune simulated count.
	K int `json:"k"`
}

// lockstepBatchK derives the per-batch lane bound from sim, the number
// of experiments the campaign will actually simulate: about four
// At-contiguous batches per worker, so the pool stays busy, with 4 to
// 64 lanes each to amortise the leader's shared replay.
func lockstepBatchK(cfg Config, workers, sim int) int {
	if cfg.lockstepK > 0 {
		return cfg.lockstepK
	}
	per := 4 * workers
	k := (sim + per - 1) / per
	if k < 4 {
		k = 4
	}
	if k > 64 {
		k = 64
	}
	return k
}

// runBatchLockstep executes one batch of experiments over a single
// shared golden-prefix replay. It returns nil when the spec cannot be
// batched or the batch engine panicked; callers then fall back to solo
// runs, which re-establish per-experiment fault isolation. Individual
// nil outcomes (injection points the fault-free run never reaches)
// also take the solo fallback.
func runBatchLockstep(prog *cpu.Program, cfg Config, warm *warmState, ids []int, injections []workload.Injection) (outs []*workload.Outcome) {
	defer func() {
		if recover() != nil {
			outs = nil
		}
	}()
	spec := cfg.Spec
	injs := make([]*workload.Injection, len(ids))
	minAt := injections[ids[0]].At
	for j, i := range ids {
		inj := injections[i]
		injs[j] = &inj
		if inj.At < minAt {
			minAt = inj.At
		}
	}
	if warm != nil {
		spec.Golden = warm.golden
		spec.From = warm.checkpointFor(minAt)
	}
	res, ok := workload.RunBatch(prog, spec, injs)
	if !ok {
		return nil
	}
	if warm != nil {
		for j, out := range res {
			if out != nil {
				warm.noteLane(injs[j].At, out)
			}
		}
	}
	return res
}

// buildRecord classifies one experiment outcome against the golden run
// into its campaign record. Shared by the solo and lockstep paths so a
// lane's record is constructed exactly like a solo run's. An image
// fault's final state is compared past the injected word, which
// necessarily still differs (statesEqualIgnoringImage).
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
// fixes plus verdict v. Simulated, lockstep-lane, pruned-dead and
// abandoned records are all built here, so they share one shape.
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
