package goofi

import (
	"strings"
	"testing"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/workload"
)

// pilot runs a small campaign once per variant and caches the result:
// campaigns are the expensive part of this package's tests.
var pilotCache = map[workload.Variant]*Result{}

func pilot(t *testing.T, v workload.Variant, n int) *Result {
	t.Helper()
	if res, ok := pilotCache[v]; ok && len(res.Records) >= n {
		return res
	}
	res, err := Run(Config{Variant: v, Experiments: n, Seed: 2001})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	pilotCache[v] = res
	return res
}

func TestRunRejectsZeroExperiments(t *testing.T) {
	if _, err := Run(Config{Variant: workload.AlgorithmI}); err == nil {
		t.Error("expected error for zero experiments")
	}
}

func TestCampaignRecordsComplete(t *testing.T) {
	// The pilot cache may hold a larger campaign from another test.
	res := pilot(t, workload.AlgorithmI, 400)
	if want := res.Config.Experiments; len(res.Records) != want {
		t.Fatalf("records = %d, want %d", len(res.Records), want)
	}
	for i, r := range res.Records {
		if r.ID != i {
			t.Errorf("record %d has ID %d", i, r.ID)
		}
		if r.Outcome == "" || r.Region == "" || r.Element == "" {
			t.Errorf("record %d incomplete: %+v", i, r)
		}
		if r.Outcome == classify.Detected.String() && r.Mechanism == "" {
			t.Errorf("record %d detected without mechanism", i)
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 60, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 60, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("records diverge at %d:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestCampaignDifferentSeedsDiffer(t *testing.T) {
	a, _ := Run(Config{Variant: workload.AlgorithmI, Experiments: 30, Seed: 1})
	b, _ := Run(Config{Variant: workload.AlgorithmI, Experiments: 30, Seed: 2})
	same := true
	for i := range a.Records {
		if a.Records[i].Element != b.Records[i].Element || a.Records[i].At != b.Records[i].At {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical injections")
	}
}

func TestCampaignProgressCallback(t *testing.T) {
	var calls int
	_, err := Run(Config{
		Variant:     workload.AlgorithmI,
		Experiments: 20,
		Seed:        3,
		OnRecord:    func(Record) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 20 {
		t.Errorf("OnRecord calls = %d, want 20", calls)
	}
}

func TestCampaignOutcomeMix(t *testing.T) {
	res := pilot(t, workload.AlgorithmI, 400)
	a := Analyze(res.Records)
	if NonEffectiveProportion(a.Total).Count == 0 {
		t.Error("expected some non-effective errors")
	}
	if a.Cache.Total()+a.Regs.Total() != a.Total.Total() {
		t.Error("region totals do not add up")
	}
	// Uniform bit sampling: cache region has ~68% of the bits.
	cacheShare := float64(a.Cache.Total()) / float64(a.Total.Total())
	if cacheShare < 0.55 || cacheShare > 0.8 {
		t.Errorf("cache share = %v, want ≈ 0.68", cacheShare)
	}
}

func TestAnalyzeCategorisesDetected(t *testing.T) {
	recs := []Record{
		{Variant: "alg1", Region: "cache", Outcome: "detected", Mechanism: "ADDRESS ERROR"},
		{Variant: "alg1", Region: "registers", Outcome: "uwr-permanent"},
		{Variant: "alg1", Region: "registers", Outcome: "overwritten"},
	}
	a := Analyze(recs)
	if got := DetectedProportion(a.Total).Count; got != 1 {
		t.Errorf("detected = %d, want 1", got)
	}
	if got := SevereProportion(a.Total).Count; got != 1 {
		t.Errorf("severe = %d, want 1", got)
	}
	if got := NonEffectiveProportion(a.Total).Count; got != 1 {
		t.Errorf("non-effective = %d, want 1", got)
	}
	if got := ValueFailureProportion(a.Total).Count; got != 1 {
		t.Errorf("value failures = %d, want 1", got)
	}
}

func TestRenderRegionTableContainsRows(t *testing.T) {
	res := pilot(t, workload.AlgorithmI, 400)
	a := Analyze(res.Records)
	out := a.RenderRegionTable("Table 2")
	for _, want := range []string{
		"Table 2", "Latent Errors", "Overwritten Errors",
		"ADDRESS ERROR", "Undetected Wrong Results (Severe)",
		"Coverage", "Cache", "Registers", "Total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestRenderComparisonTable(t *testing.T) {
	r1 := pilot(t, workload.AlgorithmI, 400)
	r2 := pilot(t, workload.AlgorithmII, 400)
	out := RenderComparisonTable(Analyze(r1.Records), Analyze(r2.Records))
	for _, want := range []string{
		"Undetected Wrong Results (Permanent)",
		"Undetected Wrong Results (Semi-Permanent)",
		"Undetected Wrong Results (Transient)",
		"Undetected Wrong Results (Insignificant)",
		"Total (Faults Injected)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q", want)
		}
	}
}

func TestSummaryMentionsSevereShare(t *testing.T) {
	res := pilot(t, workload.AlgorithmI, 400)
	a := Analyze(res.Records)
	if !strings.Contains(a.Summary(), "severe") {
		t.Error("summary missing severe share")
	}
}

// TestPaperShapeAlgorithmIvsII is the headline reproduction check: with
// a moderately sized campaign, Algorithm II must show a clearly lower
// severe-failure rate than Algorithm I while the overall value-failure
// rates stay comparable. Thresholds are loose so the test is robust to
// seed choice.
func TestPaperShapeAlgorithmIvsII(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too large for -short")
	}
	// Paper-scale campaigns: 9290 faults for Algorithm I, 2372 for
	// Algorithm II. The severe-failure channel (bit-flips of the
	// cached state variable consumed before the write-back erases
	// them) is rare enough that smaller campaigns are noisy.
	r1 := pilot(t, workload.AlgorithmI, 9290)
	r2 := pilot(t, workload.AlgorithmII, 2372)
	a1, a2 := Analyze(r1.Records), Analyze(r2.Records)

	sev1 := SevereProportion(a1.Total)
	sev2 := SevereProportion(a2.Total)
	vf1 := ValueFailureProportion(a1.Total)
	vf2 := ValueFailureProportion(a2.Total)
	if sev1.Count == 0 || vf1.Count == 0 {
		t.Fatal("Algorithm I produced no severe failures; campaign not representative")
	}

	// The paper's headline: the severe share of value failures drops
	// from ~11% to ~3%. Require at least a halving.
	share1 := float64(sev1.Count) / float64(vf1.Count)
	share2 := 0.0
	if vf2.Count > 0 {
		share2 = float64(sev2.Count) / float64(vf2.Count)
	}
	if share2 >= share1/2 {
		t.Errorf("severe share not clearly reduced: alg1 %.1f%% vs alg2 %.1f%%",
			share1*100, share2*100)
	}

	// Total value-failure rates stay comparable (the recovery converts
	// severe failures into minor ones rather than removing them).
	if vf2.Count > 0 {
		ratio := vf2.P() / vf1.P()
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("total value-failure rates should be comparable: %v vs %v", vf1, vf2)
		}
	}

	// Regional structure as in the paper: cache faults cause more
	// value failures than register faults, and Algorithm I's severe
	// failures are dominated by the cache (the lines holding x).
	if ValueFailureProportion(a1.Cache).P() <= ValueFailureProportion(a1.Regs).P() {
		t.Errorf("cache UWR rate %v should exceed register UWR rate %v",
			ValueFailureProportion(a1.Cache), ValueFailureProportion(a1.Regs))
	}
	if SevereProportion(a1.Cache).Count == 0 {
		t.Error("no severe cache failures for Algorithm I")
	}
}
