package goofi

import (
	"strconv"
	"strings"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/prune"
	"ctrlguard/internal/workload"
)

// Fault-space pruning: before the campaign executes anything, the
// injection plan is classified against the golden run's def-use event
// index (internal/prune). Provably dead injections get their records
// synthesized from the golden verdict; injections sharing a first-use
// equivalence class collapse to one representative experiment whose
// verdict is fanned out to the members. Every record carries a
// Provenance value so analysis stays honest about what ran versus what
// was inferred — and the aggregate statistics are byte-identical to an
// unpruned campaign (pinned by tests).

// Record provenance values. Representatives encode how many member
// records were inferred from them; members name their representative's
// experiment ID.
const (
	// ProvenanceSimulated marks a record produced by actually running
	// the experiment.
	ProvenanceSimulated = "simulated"

	// ProvenanceDead marks a record synthesized for an injection the
	// pruner proved non-effective (overwritten before use).
	ProvenanceDead = "pruned-dead"

	provenanceRepPrefix    = "class-representative:"
	provenanceMemberPrefix = "class-member-of:"
)

// ProvenanceRepresentative returns the provenance of a simulated class
// representative standing for members inferred records.
func ProvenanceRepresentative(members int) string {
	return provenanceRepPrefix + strconv.Itoa(members)
}

// ProvenanceMemberOf returns the provenance of a record inferred from
// the representative experiment rep.
func ProvenanceMemberOf(rep int) string {
	return provenanceMemberPrefix + strconv.Itoa(rep)
}

// PruneStats reports the pruner's work avoidance for one campaign; for
// sequential campaigns the counts accumulate over every batch.
type PruneStats struct {
	// Planned is the number of injections the sampler drew.
	Planned int `json:"planned"`

	// Simulated counts experiments that actually executed (including
	// abandoned ones and members re-simulated after their
	// representative was abandoned).
	Simulated int `json:"simulated"`

	// PrunedDead counts records synthesized for provably dead faults.
	PrunedDead int `json:"prunedDead"`

	// Collapsed counts member records inferred from a class
	// representative's verdict.
	Collapsed int `json:"collapsed"`

	// Classes is the number of equivalence classes that actually
	// collapsed work (representatives with at least one member).
	Classes int `json:"classes"`
}

// Add accumulates another tally (a later batch or another shard).
func (s *PruneStats) Add(o PruneStats) {
	s.Planned += o.Planned
	s.Simulated += o.Simulated
	s.PrunedDead += o.PrunedDead
	s.Collapsed += o.Collapsed
	s.Classes += o.Classes
}

// pruneState carries the event index and the precomputed dead verdict
// across the batches of a sequential campaign, exactly like warmState
// carries the checkpoint cache: the instrumented golden replay is paid
// for once.
type pruneState struct {
	idx *prune.Index

	// deadVerdict is the golden-vs-golden classification — what a full
	// simulation of any dead fault would produce.
	deadVerdict classify.Verdict
}

func newPruneState(idx *prune.Index, golden *workload.Outcome, ccfg classify.Config) *pruneState {
	return &pruneState{
		idx:         idx,
		deadVerdict: classify.RunMulti(golden.MultiOutputs, golden.MultiOutputs, false, ccfg),
	}
}

// Plan decisions for one experiment.
const (
	pdSimulate uint8 = iota // run it; nothing is inferred from it
	pdDead                  // synthesize the golden verdict, never run
	pdRep                   // run it, then fan its verdict out to members
	pdMember                // inferred from its class representative
)

// prunePlan is the pruner's decision for every experiment of one
// campaign batch. It is deterministic for a given (index, injections),
// so resumed and restarted campaigns rebuild the identical plan.
type prunePlan struct {
	decision []uint8
	repOf    []int         // pdMember: the representative's experiment ID
	members  map[int][]int // pdRep: member IDs in ascending order
}

// buildPrunePlan classifies every injection. The representative of a
// class is its lowest experiment ID.
func buildPrunePlan(ix *prune.Index, injections []workload.Injection) *prunePlan {
	p := &prunePlan{
		decision: make([]uint8, len(injections)),
		repOf:    make([]int, len(injections)),
		members:  make(map[int][]int),
	}
	classes := make(map[prune.Key]int, len(injections))
	for i, inj := range injections {
		fate, ok := ix.Fate(inj.Bit, inj.At)
		switch {
		case !ok:
			p.decision[i] = pdSimulate
		case fate.Dead:
			p.decision[i] = pdDead
		default:
			rep, seen := classes[fate.Key]
			if !seen {
				classes[fate.Key] = i // decision stays pdSimulate until a member arrives
				continue
			}
			p.decision[rep] = pdRep
			p.decision[i] = pdMember
			p.repOf[i] = rep
			p.members[rep] = append(p.members[rep], i)
		}
	}
	return p
}

// provenance returns the plan's provenance for experiment i. Resumed
// records are normalized to these values, so a restarted campaign's
// record file is byte-identical to an uninterrupted one.
func (p *prunePlan) provenance(i int) string {
	switch p.decision[i] {
	case pdDead:
		return ProvenanceDead
	case pdRep:
		return ProvenanceRepresentative(len(p.members[i]))
	case pdMember:
		return ProvenanceMemberOf(p.repOf[i])
	default:
		return ProvenanceSimulated
	}
}

// memberRecord clones a representative's verdict for class member id.
func memberRecord(id int, inj workload.Injection, rep Record) Record {
	rec := rep
	rec.ID = id
	rec.Region = string(inj.Bit.Region)
	rec.Element = inj.Bit.Element
	rec.Bit = inj.Bit.Bit
	rec.At = inj.At
	rec.Provenance = ProvenanceMemberOf(rep.ID)
	return rec
}

// tallyPrune derives the campaign's pruning statistics from the
// completed records' provenance, so the stats agree with the records
// even across resumes and abandoned-representative fallbacks. The
// [lo, hi) range scopes the tally to a shard's own records; an
// out-of-shard representative executed only for its verdict counts
// toward no shard (its home shard tallies the emitted record).
func tallyPrune(records []Record, completed []bool, planned, lo, hi int) *PruneStats {
	s := &PruneStats{Planned: planned}
	for i := lo; i < hi; i++ {
		rec := records[i]
		if !completed[i] {
			continue
		}
		switch {
		case rec.Provenance == ProvenanceDead:
			s.PrunedDead++
		case strings.HasPrefix(rec.Provenance, provenanceMemberPrefix):
			s.Collapsed++
		case strings.HasPrefix(rec.Provenance, provenanceRepPrefix):
			s.Classes++
			s.Simulated++
		default:
			s.Simulated++
		}
	}
	return s
}
