package goofi

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"ctrlguard/internal/workload"
)

func TestResolveVariant(t *testing.T) {
	cases := []struct {
		alg     int
		variant string
		want    workload.Variant
		errPart string // "" = no error, otherwise a substring of it
	}{
		{0, "", workload.AlgorithmI, ""},
		{1, "", workload.AlgorithmI, ""},
		{2, "", workload.AlgorithmII, ""},
		{0, "alg2", workload.AlgorithmII, ""},
		{0, "alg2-failstop", workload.Variant("alg2-failstop"), ""},
		{1, "alg2", "", "not both"},
		{3, "", "", "unknown algorithm"},
		{0, "no-such-variant", "", "unknown variant"},
	}
	for _, c := range cases {
		got, err := ResolveVariant(c.alg, c.variant)
		if c.errPart != "" {
			if err == nil || !strings.Contains(err.Error(), c.errPart) {
				t.Errorf("ResolveVariant(%d, %q) err = %v, want containing %q", c.alg, c.variant, err, c.errPart)
			}
			continue
		}
		if err != nil {
			t.Errorf("ResolveVariant(%d, %q): %v", c.alg, c.variant, err)
		} else if got != c.want {
			t.Errorf("ResolveVariant(%d, %q) = %q, want %q", c.alg, c.variant, got, c.want)
		}
	}
}

func TestCampaignSpecResolveInvalid(t *testing.T) {
	cases := []struct {
		name    string
		spec    CampaignSpec
		errPart string
	}{
		{"unknown variant", CampaignSpec{Variant: "bogus", Experiments: 10}, "unknown variant"},
		{"zero experiments", CampaignSpec{Variant: "alg1"}, "positive experiment count"},
		{"negative experiments", CampaignSpec{Alg: 1, Experiments: -5}, "positive experiment count"},
		{"negative precision", CampaignSpec{Alg: 1, Precision: -0.01}, "precision"},
		{"precision too large", CampaignSpec{Alg: 1, Precision: 1.5}, "precision"},
		{"negative workers", CampaignSpec{Alg: 1, Experiments: 10, Workers: -1}, "workers"},
		{"negative budget", CampaignSpec{Alg: 1, Precision: 0.01, MaxExperiments: -1}, "maxExperiments"},
		{"experiments past limit", CampaignSpec{Alg: 1, Experiments: ExperimentLimit + 1}, "experiment count"},
		{"experiments overflow", CampaignSpec{Alg: 1, Experiments: 1 << 62}, "experiment count"},
		{"precision with oversized n", CampaignSpec{Alg: 1, Precision: 0.01, Experiments: 1 << 62}, "experiment count"},
		{"budget past limit", CampaignSpec{Alg: 1, Precision: 0.01, MaxExperiments: ExperimentLimit + 1}, "maxExperiments"},
		{"workers past limit", CampaignSpec{Alg: 1, Experiments: 10, Workers: WorkerLimit + 1}, "workers"},
	}
	for _, c := range cases {
		if _, err := c.spec.Resolve(); err == nil || !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: Resolve() err = %v, want containing %q", c.name, err, c.errPart)
		}
	}
}

func TestCampaignSpecResolveValid(t *testing.T) {
	cfg, err := CampaignSpec{Alg: 2, Experiments: 42, Seed: 7, Workers: 3}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Variant != workload.AlgorithmII || cfg.Experiments != 42 || cfg.Seed != 7 || cfg.Workers != 3 {
		t.Errorf("Resolve() = %+v", cfg)
	}

	// Each size bound is inclusive.
	for _, spec := range []CampaignSpec{
		{Alg: 1, Experiments: ExperimentLimit, Workers: WorkerLimit},
		{Alg: 1, Precision: 0.01, MaxExperiments: ExperimentLimit},
	} {
		if _, err := spec.Resolve(); err != nil {
			t.Errorf("spec at the size limits rejected: %+v: %v", spec, err)
		}
	}

	// Precision-driven specs don't need an experiment count.
	if _, err := (CampaignSpec{Variant: "alg1", Precision: 0.005}).Resolve(); err != nil {
		t.Errorf("precision spec rejected: %v", err)
	}
	if !(CampaignSpec{Precision: 0.005}).Sequential() {
		t.Error("Sequential() = false for a precision spec")
	}
}

// FuzzCampaignSpecResolve decodes arbitrary bytes the way ctrlguardd
// decodes a submission and resolves them: Resolve must never panic, and
// every spec it accepts must be within the size bounds.
func FuzzCampaignSpecResolve(f *testing.F) {
	for _, seed := range []string{
		`{"variant":"alg1","n":300,"seed":2001,"workers":4}`,
		`{"alg":2,"n":150,"seed":9,"detector":"cfe+automaton"}`,
		`{"variant":"alg1","precision":0.001,"maxExperiments":1500,"seed":7}`,
		`{"alg":1,"n":100,"model":"burst","burstWidth":3}`,
		`{"n":4611686018427387904}`,
		`{"n":10,"workers":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CampaignSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		cfg, err := spec.Resolve()
		if err != nil {
			return
		}
		if spec.Experiments > ExperimentLimit || spec.MaxExperiments < 0 || spec.MaxExperiments > ExperimentLimit ||
			spec.Workers < 0 || spec.Workers > WorkerLimit {
			t.Fatalf("Resolve accepted an out-of-bounds spec %+v", spec)
		}
		if cfg.Experiments != spec.Experiments || cfg.Workers != spec.Workers {
			t.Fatalf("Resolve(%+v) = %+v: sizes not carried over", spec, cfg)
		}
	})
}

// Cancelling mid-campaign must stop at an experiment boundary and hand
// back the completed records with ctx's error.
func TestRunContextCancelReturnsPartialRecords(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 400
	stopAt := 20
	cfg := Config{Variant: workload.AlgorithmI, Experiments: n, Seed: 2001, Workers: 2}
	cfg.OnRecord = func(Record) {
		stopAt--
		if stopAt == 0 {
			cancel()
		}
	}
	res, err := RunContext(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("expected a partial result alongside the cancellation error")
	}
	if len(res.Records) == 0 || len(res.Records) >= n {
		t.Fatalf("partial records = %d, want in (0, %d)", len(res.Records), n)
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i-1].ID >= res.Records[i].ID {
			t.Fatalf("partial records not ordered by ID: %d then %d", res.Records[i-1].ID, res.Records[i].ID)
		}
	}
	// The partial prefix must match an uncancelled run of the same
	// seed: determinism survives cancellation.
	full := pilot(t, workload.AlgorithmI, n)
	for _, r := range res.Records {
		if r != full.Records[r.ID] {
			t.Fatalf("partial record %d differs from the full campaign's", r.ID)
		}
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, Config{Variant: workload.AlgorithmI, Experiments: 50, Seed: 1})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Records) != 0 {
		t.Fatalf("expected an empty partial result, got %+v", res)
	}
}

func TestRunUntilPrecisionContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	cfg := PrecisionConfig{
		Campaign: Config{Variant: workload.AlgorithmI, Seed: 11, OnRecord: func(Record) {
			seen++
			if seen == 30 {
				cancel()
			}
		}},
		TargetHalfWidth: 1e-9, // unreachable: only cancellation ends it
		BatchSize:       100,
		MaxExperiments:  400,
	}
	res, err := RunUntilPrecisionContext(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Records) == 0 || len(res.Records) >= 400 {
		t.Fatalf("expected partial records, got %v", res)
	}
	if res.Converged {
		t.Error("cancelled campaign reported convergence")
	}
}
