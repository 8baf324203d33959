package goofi

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ctrlguard/internal/stats"
	"ctrlguard/internal/workload"
)

func TestRunUntilPrecisionValidation(t *testing.T) {
	if _, err := RunUntilPrecision(PrecisionConfig{}); err == nil {
		t.Error("expected error for zero target")
	}
}

func TestRunUntilPrecisionConverges(t *testing.T) {
	// The value-failure rate (~5 %) is frequent enough to pin down
	// with modest effort: half-width 2 percentage points needs a few
	// hundred experiments.
	res, err := RunUntilPrecision(PrecisionConfig{
		Campaign:        Config{Variant: workload.AlgorithmI, Seed: 31},
		Metric:          ValueFailureProportion,
		TargetHalfWidth: 0.02,
		BatchSize:       200,
		MaxExperiments:  4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.HalfWidth > 0.02 {
		t.Errorf("half-width %v above target", res.HalfWidth)
	}
	if res.Batches < 1 {
		t.Error("no batches recorded")
	}
}

func TestRunUntilPrecisionRespectsBudget(t *testing.T) {
	// An absurdly tight target must stop at the budget, unconverged.
	res, err := RunUntilPrecision(PrecisionConfig{
		Campaign:        Config{Variant: workload.AlgorithmI, Seed: 31},
		Metric:          SevereProportion,
		TargetHalfWidth: 1e-9,
		BatchSize:       150,
		MaxExperiments:  300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("cannot converge to 1e-9 in 300 experiments")
	}
	if len(res.Records) != 300 {
		t.Errorf("experiments = %d, want the full budget 300", len(res.Records))
	}
}

func TestRunUntilPrecisionDeterministic(t *testing.T) {
	cfg := PrecisionConfig{
		Campaign:        Config{Variant: workload.AlgorithmI, Seed: 5},
		Metric:          ValueFailureProportion,
		TargetHalfWidth: 0.05,
		BatchSize:       100,
		MaxExperiments:  800,
	}
	a, err := RunUntilPrecision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunUntilPrecision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) || a.Estimate != b.Estimate {
		t.Errorf("sequential campaign not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunUntilPrecisionDefaultMetric(t *testing.T) {
	res, err := RunUntilPrecision(PrecisionConfig{
		Campaign:        Config{Variant: workload.AlgorithmI, Seed: 77},
		TargetHalfWidth: 0.5, // trivially loose: one batch with ≥1 severe converges
		BatchSize:       300,
		MaxExperiments:  1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The default metric is the severe proportion; the estimate must
	// be consistent with re-analyzing the records.
	want := SevereProportion(Analyze(res.Records).Total)
	if res.Estimate != want {
		t.Errorf("estimate %+v inconsistent with records %+v", res.Estimate, want)
	}
	var _ stats.Proportion = res.Estimate
}

// TestRunUntilPrecisionStableIDsResume pins the batch ID layout — batch
// b owns [b·B, (b+1)·B), class-member provenance included — and that a
// run resumed from a prefix of its records reuses them and converges
// on the identical record set.
func TestRunUntilPrecisionStableIDsResume(t *testing.T) {
	cfg := PrecisionConfig{
		Campaign:        Config{Variant: workload.AlgorithmI, Seed: 11},
		TargetHalfWidth: 1e-9,
		BatchSize:       60,
		MaxExperiments:  150,
	}
	full, err := RunUntilPrecision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) != 150 {
		t.Fatalf("%d records, want 150", len(full.Records))
	}
	members := 0
	for i, rec := range full.Records {
		if rec.ID != i {
			t.Fatalf("record %d has ID %d, want campaign-wide ID %d", i, rec.ID, i)
		}
		if rep, ok := strings.CutPrefix(rec.Provenance, provenanceMemberPrefix); ok {
			members++
			if id, _ := strconv.Atoi(rep); id/60 != i/60 || id >= i {
				t.Errorf("member %d names representative %s outside its batch", i, rep)
			}
		}
	}
	if members == 0 {
		t.Log("no class members drawn; provenance shifting unexercised")
	}

	resumed := cfg
	resumed.Campaign.Resume = full.Records[:100]
	var reused, emitted int
	resumed.Campaign.OnResume = func(recs []Record) {
		for _, rec := range recs {
			if rec.ID >= 100 {
				t.Errorf("resumed record with ID %d beyond the resume set", rec.ID)
			}
		}
		reused += len(recs)
	}
	resumed.Campaign.OnRecord = func(rec Record) {
		if rec.ID < 100 {
			t.Errorf("experiment %d re-emitted despite a resume record", rec.ID)
		}
		emitted++
	}
	again, err := RunUntilPrecision(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if reused != 100 || emitted != 50 || again.Faults.Resumed != 100 {
		t.Errorf("reused %d, emitted %d, Faults.Resumed %d; want 100, 50, 100", reused, emitted, again.Faults.Resumed)
	}
	if len(again.Records) != len(full.Records) {
		t.Fatalf("resumed run has %d records, want %d", len(again.Records), len(full.Records))
	}
	for i := range full.Records {
		if again.Records[i] != full.Records[i] {
			t.Fatalf("record %d differs after resume: %+v vs %+v", i, again.Records[i], full.Records[i])
		}
	}
}

// TestRunUntilPrecisionBatchRunner: a custom batch runner sees each
// batch as the fixed-count campaign Batch(b) describes and, returning
// batch-local records, yields the default runner's campaign exactly.
func TestRunUntilPrecisionBatchRunner(t *testing.T) {
	cfg := PrecisionConfig{
		Campaign:        Config{Variant: workload.AlgorithmI, Seed: 13},
		TargetHalfWidth: 1e-9,
		BatchSize:       40,
		MaxExperiments:  100,
	}
	want, err := RunUntilPrecision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	cfg.RunBatch = func(ctx context.Context, b int, batch Config) (*Result, error) {
		if ref := cfg.Batch(b); batch.Experiments != ref.Experiments || batch.Seed != ref.Seed {
			t.Errorf("batch %d runs n=%d seed=%d, want n=%d seed=%d", b, batch.Experiments, batch.Seed, ref.Experiments, ref.Seed)
		}
		sizes = append(sizes, batch.Experiments)
		return RunContext(ctx, batch)
	}
	got, err := RunUntilPrecision(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sizes, []int{40, 40, 20}) {
		t.Errorf("batch sizes %v, want [40 40 20]", sizes)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatal("records differ between the default and a custom batch runner")
	}
}
