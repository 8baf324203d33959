package goofi

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/workload"
)

// cursorModels spans the default bit-flip plus every extended model:
// unlike pruning, the prefix engine is valid for all of them.
var cursorModels = []inject.FaultModel{
	"", workload.ModelPC, workload.ModelTransient, workload.ModelBurst,
}

// recordBytes renders a campaign's records exactly as the record file
// would persist them.
func recordBytes(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cursorIdentityCheck runs one campaign four ways — the production
// default (experiments forked off each worker's golden cursor over the
// predecoded engine), the warm start ablated (predecoded runs from
// instruction 0), cursors on the classic interpreter, and the classic
// interpreter with every run from instruction 0 — and requires
// byte-identical record files. This is the cross-validation property
// CI's lockstep-crossval job sweeps.
func cursorIdentityCheck(t *testing.T, v workload.Variant, m inject.FaultModel, d detect.Spec, n, workers int, seed uint64) {
	t.Helper()
	label := fmt.Sprintf("%s/%q/%s n=%d workers=%d seed=%d", v, m, d, n, workers, seed)
	base := Config{Variant: v, Experiments: n, Seed: seed, Model: m, Detect: d, Workers: workers}
	forked, err := Run(base)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if forked.WarmStart == nil || forked.WarmStart.Resumed == 0 {
		t.Errorf("%s: no experiment forked off a cursor: %+v", label, forked.WarmStart)
	}
	want := recordBytes(t, forked.Records)

	// The other arms keep the same prune setting — pruning stamps
	// provenance into the records, so toggling it is a wire difference,
	// not an engine one.
	for _, arm := range []struct {
		name      string
		ablate    Layer
		interpret bool
	}{
		{"predecoded from instruction 0", LayerWarmStart, false},
		{"interpreted cursors", 0, true},
		{"interpreted from instruction 0", LayerWarmStart, true},
	} {
		cfg := base
		cfg.Ablate = arm.ablate
		if arm.interpret {
			cfg.Spec = workload.SpecFor(v)
			cfg.Spec.Interpret = true
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", label, arm.name, err)
		}
		if !bytes.Equal(recordBytes(t, res.Records), want) {
			t.Errorf("%s: records forked off cursors differ from %s", label, arm.name)
		}
	}
}

// TestCursorCampaignByteIdentical is the fixed-seed smoke version of
// the cursor cross-validation property, always on.
func TestCursorCampaignByteIdentical(t *testing.T) {
	for _, m := range cursorModels {
		cursorIdentityCheck(t, workload.AlgorithmI, m, detect.Spec{}, 48, 2, 707)
	}
	cursorIdentityCheck(t, workload.AlgorithmII, "", detect.Spec{CFE: true, Automaton: true}, 40, 3, 708)
	cursorIdentityCheck(t, workload.MIMOAlgorithmI, workload.ModelTransient, detect.Spec{CFE: true}, 24, 1, 709)
}

// TestCursorCrossVal is the randomized cross-validation job: CI sets
// CURSOR_CROSSVAL_TRIALS (and optionally CURSOR_CROSSVAL_SEED) to sweep
// random (variant, model, detectors, n, workers, seed) points; locally
// it defaults to a handful of trials.
func TestCursorCrossVal(t *testing.T) {
	trials := 3
	if s := os.Getenv("CURSOR_CROSSVAL_TRIALS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("CURSOR_CROSSVAL_TRIALS=%q: %v", s, err)
		}
		trials = v
	}
	seed := int64(20260808)
	if s := os.Getenv("CURSOR_CROSSVAL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CURSOR_CROSSVAL_SEED=%q: %v", s, err)
		}
		seed = v
	}
	rng := rand.New(rand.NewSource(seed))
	variants := workload.Variants()
	for i := 0; i < trials; i++ {
		v := variants[rng.Intn(len(variants))]
		m := cursorModels[rng.Intn(len(cursorModels))]
		d := detectorSpecs[rng.Intn(len(detectorSpecs))]
		n := 20 + rng.Intn(40)
		workers := 1 + rng.Intn(3)
		cursorIdentityCheck(t, v, m, d, n, workers, rng.Uint64())
	}
}

// TestLockstepStatsReported pins the accounting that replaced the
// lockstep engine's: Result.Lockstep, still read by the benchmark
// module, is nil on every campaign, and with pruning off every
// experiment lands either as a lane forked off a cursor or as a run
// from instruction 0 — nothing double-counted, nothing lost.
func TestLockstepStatsReported(t *testing.T) {
	res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 60, Seed: 11,
		Ablate: LayerPrune, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lockstep != nil {
		t.Errorf("Result.Lockstep = %+v, want nil", res.Lockstep)
	}
	ws := res.WarmStart
	if ws == nil || ws.Resumed == 0 {
		t.Fatalf("prefix engine idle: %+v", ws)
	}
	if ws.Resumed+ws.FullReplays != 60 {
		t.Fatalf("forked %d + full replays %d != 60 experiments", ws.Resumed, ws.FullReplays)
	}
	if ws.Checkpoints < 1 || ws.Checkpoints > 4 {
		t.Fatalf("%d cursors for 4 workers", ws.Checkpoints)
	}
}

// TestWarmStartWorkPinned pins the prefix engine's work as exact
// numbers on the 300-experiment bench campaign (Alg I, seed 2001), with
// pruning ablated and on: how many experiments forked off a cursor, how
// many ran from instruction 0, how many spliced the golden remainder,
// and the prefix instructions the forks skipped. The counts are a pure
// function of spec and plan, so one worker and two give the same ones.
func TestWarmStartWorkPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		ablate Layer
		want   WarmStartStats
	}{
		{"prune-ablated", LayerPrune, WarmStartStats{Resumed: 300, EarlyExits: 75, SkippedInstructions: 45053272}},
		{"pruned", 0, WarmStartStats{Resumed: 57, EarlyExits: 1, SkippedInstructions: 9138557}},
	} {
		for _, workers := range []int{1, 2} {
			res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 300, Seed: 2001,
				Ablate: c.ablate, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got := *res.WarmStart
			got.Checkpoints = 0 // one cursor per worker
			if got != c.want {
				t.Errorf("%s, %d workers: %+v, want %+v", c.name, workers, got, c.want)
			}
			if res.WarmStart.Checkpoints != workers {
				t.Errorf("%s: %d cursors for %d workers", c.name, res.WarmStart.Checkpoints, workers)
			}
		}
	}
}

// TestCampaignHotPathZeroDecode is the regression pin for the predecode
// tentpole: once a variant's program is predecoded (and its golden
// outputs cached by an earlier campaign of this test), a whole
// default-config campaign must execute without a single Decode call —
// the hot path dispatches predecoded slots only.
func TestCampaignHotPathZeroDecode(t *testing.T) {
	cfg := Config{Variant: workload.AlgorithmI, Experiments: 30, Seed: 4}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err) // prewarm: assembly + predecode of the program
	}
	before := cpu.DecodeCalls()
	cfg.Seed = 5 // different plan, same program
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if delta := cpu.DecodeCalls() - before; delta != 0 {
		t.Fatalf("campaign hot path made %d Decode calls, want 0", delta)
	}
}
