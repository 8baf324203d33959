package goofi

import (
	"context"
	"errors"
	"testing"

	"ctrlguard/internal/workload"
)

func swifiPilot(t *testing.T) *Result {
	t.Helper()
	spec := workload.PaperRunSpec()
	spec.Iterations = 120 // image faults show their nature quickly
	res, err := RunSWIFI(context.Background(), Config{
		Variant:     workload.AlgorithmI,
		Experiments: 300,
		Seed:        9,
		Spec:        spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSWIFIRejectsZeroExperiments(t *testing.T) {
	if _, err := RunSWIFI(context.Background(), Config{Variant: workload.AlgorithmI}); err == nil {
		t.Error("expected error for zero experiments")
	}
}

// TestSWIFICancel: cancelling stops a SWIFI campaign at an experiment
// boundary with ctx's error and the completed records in ID order, the
// way RunContext stops — before the first experiment when ctx is
// already cancelled.
func TestSWIFICancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunSWIFI(ctx, Config{Variant: workload.AlgorithmI, Experiments: 50, Seed: 9})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Records) != 0 {
		t.Fatalf("pre-cancelled: expected an empty partial result, got %+v", res)
	}

	full := swifiPilot(t)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cfg := full.Config
	cfg.Workers = 2
	cfg.Progress = func(done, _ int) {
		if done == 20 {
			cancel()
		}
	}
	res, err = RunSWIFI(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run: err = %v, want context.Canceled", err)
	}
	if len(res.Records) < 20 || len(res.Records) >= cfg.Experiments {
		t.Fatalf("mid-run: %d partial records, want in [20, %d)", len(res.Records), cfg.Experiments)
	}
	for i, r := range res.Records {
		if i > 0 && res.Records[i-1].ID >= r.ID {
			t.Fatalf("partial records not ordered by ID: %d then %d", res.Records[i-1].ID, r.ID)
		}
		if r != full.Records[r.ID] {
			t.Fatalf("partial record %d differs from the full campaign's", r.ID)
		}
	}
}

func TestSWIFIRecordsShape(t *testing.T) {
	res := swifiPilot(t)
	if len(res.Records) != 300 {
		t.Fatalf("records = %d", len(res.Records))
	}
	regions := map[string]int{}
	for i, r := range res.Records {
		if r.ID != i {
			t.Errorf("record %d has ID %d", i, r.ID)
		}
		if r.At != 0 {
			t.Errorf("SWIFI record %d has At = %d, want 0 (pre-runtime)", i, r.At)
		}
		regions[r.Region]++
	}
	if regions["image-code"] == 0 {
		t.Error("no code-image faults sampled")
	}
	// The workload's code is far larger than its data, so code faults
	// must dominate under uniform sampling.
	if regions["image-code"] <= regions["image-data"] {
		t.Errorf("regions = %v, expected code to dominate", regions)
	}
}

func TestSWIFIDeterministic(t *testing.T) {
	spec := workload.PaperRunSpec()
	spec.Iterations = 30
	run := func() []Record {
		res, err := RunSWIFI(context.Background(), Config{
			Variant: workload.AlgorithmI, Experiments: 40, Seed: 4, Spec: spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Records
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records diverge at %d", i)
		}
	}
}

func TestSWIFIDetectsMoreThanSCIFI(t *testing.T) {
	// A permanent image fault is exercised on every iteration; the
	// detected share must clearly exceed the transient campaign's.
	res := swifiPilot(t)
	a := AnalyzeSWIFI(res.Records)
	det := DetectedProportion(a.Total)
	if det.P() < 0.10 {
		t.Errorf("SWIFI detected share = %v, expected well above the SCIFI ~4%%", det)
	}
	if a.Cache.Total()+a.Regs.Total() != a.Total.Total() {
		t.Error("region split does not add up")
	}
}

func TestSWIFISomeFaultsAreMasked(t *testing.T) {
	// Bit flips in unreachable code or dead fields must stay
	// non-effective even though they are permanent.
	res := swifiPilot(t)
	a := AnalyzeSWIFI(res.Records)
	if NonEffectiveProportion(a.Total).Count == 0 {
		t.Error("expected some masked image faults")
	}
}

func TestSWIFIAnalysisRenders(t *testing.T) {
	res := swifiPilot(t)
	a := AnalyzeSWIFI(res.Records)
	out := a.RenderRegionTable("SWIFI results")
	if len(out) == 0 {
		t.Fatal("empty table")
	}
	if a.Summary() == "" {
		t.Fatal("empty summary")
	}
}
