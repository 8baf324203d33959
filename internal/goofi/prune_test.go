package goofi

import (
	"strconv"
	"strings"
	"testing"

	"ctrlguard/internal/workload"
)

// pruneTestConfig mirrors warmTestConfig: small enough to simulate
// fully in a test, large enough for the pruner to find dead flips and
// multi-member classes.
func pruneTestConfig(v workload.Variant) Config {
	spec := workload.SpecFor(v)
	spec.Iterations = 150
	return Config{
		Variant:     v,
		Experiments: 150,
		Seed:        2001,
		Spec:        spec,
		Workers:     4,
	}
}

// TestPrunedCampaignMatchesUnpruned is the pinned correctness contract
// of the pruning subsystem: for a fixed (spec, seed), the pruned
// campaign and the simulate-everything campaign must produce identical
// records — field for field, modulo the Provenance annotation — and
// therefore byte-identical aggregate statistics, for both of the
// paper's algorithms and the MIMO variant.
func TestPrunedCampaignMatchesUnpruned(t *testing.T) {
	for _, v := range []workload.Variant{
		workload.AlgorithmI,
		workload.AlgorithmII,
		workload.MIMOAlgorithmI,
	} {
		t.Run(string(v), func(t *testing.T) {
			pruned, err := Run(pruneTestConfig(v))
			if err != nil {
				t.Fatal(err)
			}
			cold := pruneTestConfig(v)
			cold.Ablate = LayerPrune
			ref, err := Run(cold)
			if err != nil {
				t.Fatal(err)
			}

			if pruned.Prune == nil {
				t.Fatal("pruned campaign reported no pruning stats")
			}
			if ref.Prune != nil {
				t.Fatalf("prune-ablated campaign reported pruning stats %+v", ref.Prune)
			}
			if len(pruned.Records) != len(ref.Records) {
				t.Fatalf("%d records, want %d", len(pruned.Records), len(ref.Records))
			}
			for i, got := range pruned.Records {
				want := ref.Records[i]
				if want.Provenance != ProvenanceSimulated {
					t.Fatalf("record %d of the unpruned campaign has provenance %q", i, want.Provenance)
				}
				// Same record, different provenance story.
				got.Provenance, want.Provenance = "", ""
				if got != want {
					t.Errorf("record %d differs:\npruned   %+v\nsimulated %+v", i, got, want)
				}
			}

			// The analysis phase sees no difference at all.
			gotTable := Analyze(pruned.Records).RenderRegionTable("t")
			wantTable := Analyze(ref.Records).RenderRegionTable("t")
			if gotTable != wantTable {
				t.Errorf("aggregate tables diverge:\n%s\nvs\n%s", gotTable, wantTable)
			}
		})
	}
}

// TestPruneProvenanceAccounting checks the provenance annotations and
// the stats against each other: every record carries a provenance,
// members name a representative that exists and is marked as one, and
// the stats add up.
func TestPruneProvenanceAccounting(t *testing.T) {
	res, err := Run(pruneTestConfig(workload.AlgorithmI))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Prune
	if p == nil {
		t.Fatal("no pruning stats")
	}
	if p.Planned != len(res.Records) {
		t.Errorf("Planned = %d, want %d", p.Planned, len(res.Records))
	}
	if p.Planned != p.Simulated+p.PrunedDead+p.Collapsed {
		t.Errorf("stats do not add up: %+v", p)
	}
	if p.PrunedDead == 0 || p.Collapsed == 0 {
		t.Errorf("campaign too tame to exercise pruning: %+v", p)
	}

	byID := make(map[int]Record, len(res.Records))
	for _, r := range res.Records {
		byID[r.ID] = r
	}
	var dead, collapsed, reps, simulated int
	repMembers := make(map[int]int) // representative ID -> member count
	for _, r := range res.Records {
		switch {
		case r.Provenance == ProvenanceSimulated:
			simulated++
		case r.Provenance == ProvenanceDead:
			dead++
		case strings.HasPrefix(r.Provenance, "class-representative:"):
			simulated++ // a representative is genuinely simulated
			reps++
		case strings.HasPrefix(r.Provenance, "class-member-of:"):
			collapsed++
			id, err := strconv.Atoi(strings.TrimPrefix(r.Provenance, "class-member-of:"))
			if err != nil {
				t.Fatalf("record %d: bad provenance %q", r.ID, r.Provenance)
			}
			rep, ok := byID[id]
			if !ok {
				t.Fatalf("record %d names missing representative %d", r.ID, id)
			}
			if !strings.HasPrefix(rep.Provenance, "class-representative:") {
				t.Errorf("record %d's representative %d has provenance %q", r.ID, id, rep.Provenance)
			}
			// The inferred verdict is the representative's verdict.
			if r.Outcome != rep.Outcome || r.Mechanism != rep.Mechanism || r.FirstDev != rep.FirstDev {
				t.Errorf("member %d (%s/%s) diverges from representative %d (%s/%s)",
					r.ID, r.Outcome, r.Mechanism, id, rep.Outcome, rep.Mechanism)
			}
			repMembers[id]++
		default:
			t.Fatalf("record %d: unknown provenance %q", r.ID, r.Provenance)
		}
	}
	if dead != p.PrunedDead || collapsed != p.Collapsed || simulated != p.Simulated || reps != p.Classes {
		t.Errorf("provenance tally (sim %d dead %d collapsed %d reps %d) disagrees with stats %+v",
			simulated, dead, collapsed, reps, p)
	}
	// Each representative advertises its fan-out count.
	for id, n := range repMembers {
		want := ProvenanceRepresentative(n)
		if got := byID[id].Provenance; got != want {
			t.Errorf("representative %d has provenance %q, want %q", id, got, want)
		}
	}
}
