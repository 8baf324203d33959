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
