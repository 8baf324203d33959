package main

import (
	"context"
	"flag"
	"strings"
	"testing"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/workload"
)

func TestExperimentFlags(t *testing.T) {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	e := experimentFlags(fs)
	if err := parseArgs(fs, []string{"-variant", "alg2", "-exp", "3", "-seed", "9", "-n", "6"}); err != nil {
		t.Fatal(err)
	}
	want := experiment{variant: "alg2", exp: 3, seed: 9, n: 6}
	if *e != want {
		t.Errorf("parsed %+v, want %+v", *e, want)
	}

	fs = flag.NewFlagSet("show", flag.ContinueOnError)
	experimentFlags(fs)
	if err := parseArgs(fs, []string{"f7.trace"}); err == nil || !strings.Contains(err.Error(), "f7.trace") {
		t.Errorf("a trace file argument was not refused: %v", err)
	}
}

func TestReplayNeedsAnExperiment(t *testing.T) {
	for name, e := range map[string]experiment{
		"neither -fault nor -exp": {exp: -1},
		"unknown variant":         {variant: "alg9", exp: 0},
		"malformed fault":         {fault: "line0.data0:28", exp: -1},
		"unknown element":         {fault: "foo:3:10", exp: -1},
		"cache line out of range": {fault: "line9.data0:3:10", exp: -1},
		"bit past the word":       {fault: "r5:32:10", exp: -1},
		"bit past a flag":         {fault: "flagZ:1:10", exp: -1},
		"index past the limit":    {exp: goofi.ExperimentLimit},
	} {
		if _, err := e.replay(context.Background()); err == nil {
			t.Errorf("%s: replay succeeded", name)
		}
	}
}

// TestReplayFault: -fault element:bit:iteration names a flip of that
// bit early in that iteration of the variant's reference run.
func TestReplayFault(t *testing.T) {
	e := experiment{variant: "alg2", fault: "line0.data0:28:300", exp: -1}
	got, err := e.replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.InjectionIteration != 300 || got.Header.Injection.Element != "line0.data0" ||
		got.Header.Injection.Bit != 28 {
		t.Fatalf("replayed %+v, want line0.data0 bit 28 in iteration 300", got.Header.Injection)
	}
	if got.Header.Variant != string(workload.AlgorithmII) {
		t.Errorf("variant %q, want alg2", got.Header.Variant)
	}
}

// TestReplayCampaignFlags: -model, -burst-width and -detector name the
// campaign goofi ran with the same flags, so experiment N replays the
// fault its record logged under the same detectors and reaches the
// same verdict. They name a campaign's experiments, so -fault refuses
// them.
func TestReplayCampaignFlags(t *testing.T) {
	const n = 30
	for _, flags := range [][]string{
		{"-model", "pc"},
		{"-detector", "cfe"},
		{"-model", "burst", "-burst-width", "3"},
	} {
		t.Run(strings.Join(flags, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("show", flag.ContinueOnError)
			e := experimentFlags(fs)
			if err := parseArgs(fs, append([]string{"-variant", "alg1", "-seed", "23", "-n", "30"}, flags...)); err != nil {
				t.Fatal(err)
			}
			// goofi's flags go through CampaignSpec.Resolve.
			cfg, err := goofi.CampaignSpec{Variant: "alg1", Experiments: n, Seed: 23,
				Model: e.model, BurstWidth: e.burstWidth, Detector: e.detector}.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			res, err := goofi.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, 11, n - 1} {
				e.exp = i
				tr, err := e.replay(context.Background())
				if err != nil {
					t.Fatalf("experiment %d: %v", i, err)
				}
				rec, h := res.Records[i], tr.Header
				if inj := h.Injection; inj.Region != rec.Region || inj.Element != rec.Element ||
					inj.Bit != rec.Bit || inj.At != rec.At || inj.Model != rec.Model || inj.Width != rec.Width {
					t.Errorf("experiment %d: trace injects %+v, record logged %s/%s[%d]@%d model %q width %d",
						i, inj, rec.Region, rec.Element, rec.Bit, rec.At, rec.Model, rec.Width)
				}
				if h.Outcome != rec.Outcome || h.Mechanism != rec.Mechanism {
					t.Errorf("experiment %d: trace %s/%q, record %s/%q", i, h.Outcome, h.Mechanism, rec.Outcome, rec.Mechanism)
				}
			}
		})
	}

	for name, e := range map[string]experiment{
		"-model with -fault":        {fault: "line0.data0:28:300", exp: -1, model: "pc"},
		"-detector with -fault":     {fault: "line0.data0:28:300", exp: -1, detector: "cfe"},
		"-burst-width with -fault":  {fault: "line0.data0:28:300", exp: -1, burstWidth: 2},
		"unknown model":             {exp: 0, model: "gamma-ray"},
		"unknown detector":          {exp: 0, detector: "oracle"},
		"burst width without burst": {exp: 0, burstWidth: 2},
	} {
		if _, err := e.replay(context.Background()); err == nil {
			t.Errorf("%s: replay succeeded", name)
		}
	}
}
