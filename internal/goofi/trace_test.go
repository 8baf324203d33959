package goofi

import (
	"bytes"
	"context"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/trace"
	"ctrlguard/internal/workload"
)

// traceCampaignConfig is a deliberately small campaign for the tracing
// tests.
func traceCampaignConfig() Config {
	spec := workload.PaperRunSpec()
	spec.Iterations = 80
	return Config{
		Variant:     workload.AlgorithmI,
		Experiments: 6,
		Seed:        2001,
		Spec:        spec,
		Workers:     2,
	}
}

// TestTraceExperimentReplaysCampaign: replaying an experiment from
// nothing but the campaign config and its index must reproduce, byte
// for byte, a direct capture of the fault its campaign record logged.
func TestTraceExperimentReplaysCampaign(t *testing.T) {
	cfg := traceCampaignConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const target = 3
	rec := res.Records[target]
	inj := workload.Injection{
		At:  rec.At,
		Bit: cpu.StateBit{Region: cpu.Region(rec.Region), Element: rec.Element, Bit: rec.Bit},
	}
	direct, err := trace.Capture(context.Background(), cfg.Variant, cfg.Spec, inj, cfg.Classify)
	if err != nil {
		t.Fatal(err)
	}
	direct.Header.Experiment, direct.Header.Seed = target, cfg.Seed

	replayed, err := TraceExperiment(context.Background(), cfg, target)
	if err != nil {
		t.Fatalf("TraceExperiment: %v", err)
	}
	if !bytes.Equal(trace.Encode(direct), trace.Encode(replayed)) {
		t.Error("replayed trace differs from a direct capture of the recorded fault")
	}
}

func TestTraceExperimentRejectsBadIndex(t *testing.T) {
	cfg := traceCampaignConfig()
	if _, err := TraceExperiment(context.Background(), cfg, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := TraceExperiment(context.Background(), cfg, cfg.Experiments); err == nil {
		t.Error("out-of-range index accepted")
	}
}
