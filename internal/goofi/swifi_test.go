package goofi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ctrlguard/internal/detect"
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

// TestSWIFIRecordDigests pins SWIFI record files byte for byte: the
// SHA-256 of the record file of Algorithm I and II campaigns, bit-flip
// and burst, 300 image faults, two seeds. The digests were recorded
// when SWIFI still ran its own engine over a mutated program copy per
// experiment, so they prove the unified campaign loop reproduces it.
func TestSWIFIRecordDigests(t *testing.T) {
	want := map[string]string{
		"alg1/bitflip/2001": "4d48169c5cfc4e9aad96a4f1dc18896892263daa972a5f91c11401255a658e24",
		"alg1/bitflip/13":   "8e65f5eed4b31ee90dab9e7d87c2ba4dc60dea895bb6445cc5ac4490f22e3cb1",
		"alg1/burst/2001":   "4c6f5aea4c3c81a3e4295eb411d96905380a9c8608d40eb461da1bcd8469d226",
		"alg1/burst/13":     "251bf22b25ad350e8fcc7be982d1269c4b5a55fbb5900e2a1d11f190aedfa6c0",
		"alg2/bitflip/2001": "77684da5c7b338c809b5b91f5ea046492bb3187e65b4a1949ac4f87632fd1610",
		"alg2/bitflip/13":   "85385f6c19e45ec62301b14475dd3334c3fc8d436a6c0f043787bb26cd6d2ac7",
		"alg2/burst/2001":   "33c9e8b6c1a707f02cd7ddfa8b41e3f080a2abc3dd2f1b9e32498be4e97a6b11",
		"alg2/burst/13":     "31a5308f50f621d9a3ac29346604f70c96b60cda967a67d1dfa56ff8600e51bc",
	}
	for _, v := range []workload.Variant{workload.AlgorithmI, workload.AlgorithmII} {
		for _, m := range []workload.FaultModel{workload.ModelBitFlip, workload.ModelBurst} {
			for _, seed := range []uint64{2001, 13} {
				res, err := RunSWIFI(context.Background(), Config{
					Variant: v, Experiments: 300, Seed: seed, Model: m, Workers: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteRecords(&buf, res.Records); err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%s/%d", v, m, seed)
				got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
				if got != want[key] {
					t.Errorf("%s: record file SHA-256 %s, want %s", key, got, want[key])
				}
			}
		}
	}
}

// TestSWIFIMIMO: SWIFI campaigns run the variant's own spec, so the
// two-loop workloads' golden runs complete (under the SISO spec they
// trapped the watchdog) and their faults land in both image regions.
func TestSWIFIMIMO(t *testing.T) {
	for _, v := range []workload.Variant{workload.MIMOAlgorithmI, workload.MIMOAlgorithmII} {
		res, err := RunSWIFI(context.Background(), Config{Variant: v, Experiments: 200, Seed: 2001})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		regions := map[string]int{}
		for _, r := range res.Records {
			regions[r.Region]++
		}
		if len(res.Records) != 200 || regions["image-code"] == 0 || regions["image-data"] == 0 ||
			regions["image-code"]+regions["image-data"] != 200 {
			t.Errorf("%s: %d records over regions %v, want 200 over image-code and image-data", v, len(res.Records), regions)
		}
	}
}

// TestSWIFIRunsTheCampaignLoop: a SWIFI campaign is RunContext's loop
// with every fast path declined for one reason; it hands each record to
// OnRecord, resumes from persisted records to the same result, and
// refuses detectors, which would monitor the runtime loop.
func TestSWIFIRunsTheCampaignLoop(t *testing.T) {
	const whyImage = "image faults precede instruction 0, and a code flip sits outside the state digest and the def-use index"
	cfg := Config{Variant: workload.AlgorithmII, Experiments: 60, Seed: 5, Workers: 2}
	seen := 0
	cfg.OnRecord = func(Record) { seen++ }
	full, err := RunSWIFI(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantPlan(false, map[Layer]string{LayerWarmStart: whyImage, LayerPrune: whyImage}); !reflect.DeepEqual(full.Plan, want) {
		t.Errorf("plan = %+v, want %+v", full.Plan, want)
	}
	if seen != cfg.Experiments {
		t.Errorf("OnRecord saw %d records, want %d", seen, cfg.Experiments)
	}

	cfg.OnRecord = nil
	cfg.Resume = full.Records[:25]
	resumed, err := RunSWIFI(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Faults.Resumed != 25 || !reflect.DeepEqual(resumed.Records, full.Records) {
		t.Errorf("resumed campaign reused %d records and differs: %v", resumed.Faults.Resumed,
			!reflect.DeepEqual(resumed.Records, full.Records))
	}

	cfg.Resume = nil
	cfg.Detect = detect.Spec{CFE: true}
	if _, err := RunSWIFI(context.Background(), cfg); err == nil {
		t.Error("RunSWIFI armed detectors on image faults")
	}
}
