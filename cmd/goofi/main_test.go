package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
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
	printStats(&buf, "alg2: ", res.Plan, res.WarmStart, res.Prune, res.Detect)
	return buf.String()
}

// TestPrintStatsDetectorCampaign: a detector campaign shows its warm
// start's counters, the planner's reasons for the layers it declined,
// and the detector line, every line behind the prefix.
func TestPrintStatsDetectorCampaign(t *testing.T) {
	out := statsOutput(t, goofi.Config{Model: workload.ModelPC, Detect: detect.Spec{CFE: true, Automaton: true}})
	warm := regexp.MustCompile(`(?m)^alg2: warm-start: (\d+) forked, \d+ full replays, \d+ early exits, \d+ cursors$`)
	if m := warm.FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Errorf("no warm-start line with forked experiments in:\n%s", out)
	}
	for _, want := range []string{
		"alg2: prune: declined (monitor peeks are not def-use events",
		"alg2: detectors (cfe+automaton): ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "warm-start: declined") || strings.Contains(out, "lockstep") {
		t.Errorf("detector campaign declined the warm start or printed a lockstep line:\n%s", out)
	}
}

// TestPrintStatsDeclinedWarmStart: an ablated warm start prints its
// decline reason and no counters.
func TestPrintStatsDeclinedWarmStart(t *testing.T) {
	out := statsOutput(t, goofi.Config{Ablate: goofi.LayerWarmStart})
	if !strings.Contains(out, "alg2: warm-start: declined (ablated by Config.Ablate)\n") {
		t.Errorf("missing the warm-start decline in:\n%s", out)
	}
	if strings.Contains(out, "forked") {
		t.Errorf("declined warm start printed counters:\n%s", out)
	}
}

// TestMain runs the command itself when GOOFI_RUN_MAIN is set, so tests
// can drive the real flag handling in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("GOOFI_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSWIFIRejectsSCIFIOnlyFlags: -swifi with -precision, -compare or
// -detector fails instead of silently running something else, writes
// no records, and prints its error with one "goofi:" prefix.
func TestSWIFIRejectsSCIFIOnlyFlags(t *testing.T) {
	for _, extra := range [][]string{
		{"-precision", "0.05"},
		{"-compare"},
		{"-detector", "cfe"},
	} {
		out := filepath.Join(t.TempDir(), "r.jsonl")
		args := append([]string{"-swifi", "-n", "20", "-q", "-out", out}, extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "GOOFI_RUN_MAIN=1")
		stderr, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("goofi %s succeeded", strings.Join(args, " "))
		}
		if !strings.Contains(string(stderr), "goofi:") {
			t.Errorf("goofi %s: no error message in %q", strings.Join(args, " "), stderr)
		}
		if strings.Contains(string(stderr), "goofi: goofi:") {
			t.Errorf("goofi %s: doubled prefix in %q", strings.Join(args, " "), stderr)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("goofi %s wrote records", strings.Join(args, " "))
		}
	}
}
