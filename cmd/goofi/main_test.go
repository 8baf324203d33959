package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"ctrlguard/internal/detect"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/workload"
)

func statsOutput(t *testing.T, cfg goofi.Config) string {
	t.Helper()
	cfg.Variant, cfg.Experiments, cfg.Seed, cfg.Workers = workload.AlgorithmII, 30, 11, 2
	res, err := goofi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printStats(&buf, "alg2: ", res.Plan, res.WarmStart, res.Prune, res.Lockstep, res.Detect)
	return buf.String()
}

// TestPrintStatsDetectorCampaign: a detector campaign shows its warm
// start's counters, the planner's reasons for the layers it declined,
// and the detector line, every line behind the prefix.
func TestPrintStatsDetectorCampaign(t *testing.T) {
	out := statsOutput(t, goofi.Config{Model: workload.ModelPC, Detect: detect.Spec{CFE: true, Automaton: true}})
	warm := regexp.MustCompile(`(?m)^alg2: warm-start: (\d+) resumed, \d+ full replays, \d+ early exits, \d+ checkpoints$`)
	if m := warm.FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Errorf("no warm-start line with resumed experiments in:\n%s", out)
	}
	for _, want := range []string{
		"alg2: prune: declined (monitor peeks are not def-use events",
		"alg2: lockstep: declined (lockstep lanes do not fork monitor state)",
		"alg2: detectors (cfe+automaton): ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "warm-start: declined") {
		t.Errorf("detector campaign declined the warm start:\n%s", out)
	}
}

// TestPrintStatsDeclinedWarmStart: an ablated warm start prints its
// decline reason and no counters.
func TestPrintStatsDeclinedWarmStart(t *testing.T) {
	out := statsOutput(t, goofi.Config{Ablate: goofi.LayerWarmStart})
	if !strings.Contains(out, "alg2: warm-start: declined (ablated by Config.Ablate)\n") {
		t.Errorf("missing the warm-start decline in:\n%s", out)
	}
	if strings.Contains(out, "resumed") {
		t.Errorf("declined warm start printed counters:\n%s", out)
	}
}
