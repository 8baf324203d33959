package goofi

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/workload"
)

// nonDefaultModels are the extended fault models: the ones the
// equivalence-class pruner does not understand and must cleanly
// decline.
var nonDefaultModels = []inject.FaultModel{
	workload.ModelPC, workload.ModelTransient, workload.ModelBurst,
}

// TestModelCampaignDeclinesPrune pins the decline contract: a campaign
// under any non-default fault model runs without the pruner, whose
// def-use reasoning is calibrated for single persistent bit flips, but
// keeps the warm start, whose golden splice is sound for every model.
// Transients mostly wash out, so some of them must take the splice.
func TestModelCampaignDeclinesPrune(t *testing.T) {
	for _, m := range nonDefaultModels {
		res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 40, Seed: 5, Model: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Prune != nil {
			t.Errorf("%s: pruner ran on an unsupported model", m)
		}
		if res.WarmStart == nil {
			t.Fatalf("%s: warm-start fast path declined", m)
		}
		if m == workload.ModelTransient && res.WarmStart.EarlyExits == 0 {
			t.Errorf("%s: no experiment re-converged: %+v", m, res.WarmStart)
		}
		for i, rec := range res.Records {
			if rec.Model != string(m) {
				t.Fatalf("%s: record %d stamped model %q", m, i, rec.Model)
			}
		}
	}
}

// TestDefaultModelRecordsUnstamped pins the wire-compatibility side:
// default-model campaigns leave Model/Width zero so historical record
// files stay byte-identical.
func TestDefaultModelRecordsUnstamped(t *testing.T) {
	res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Records {
		if rec.Model != "" || rec.Width != 0 {
			t.Fatalf("record %d stamped %q/%d on the default model", i, rec.Model, rec.Width)
		}
	}
}

// modelIdentityCheck runs one campaign four ways — solo; with the warm
// start and pruning ablated, i.e. plain simulation; on one worker, so a
// single golden cursor forks every experiment; and as a random shard
// partition merged in order — and requires byte-identical record files.
// The warm-start runs fork their experiments off each worker's golden
// cursor and splice the golden remainder on re-convergence. This is the
// cross-validation property the distributed coordinator and the resume
// machinery rest on for the extended fault models. With detectors armed
// every cursor runs under its own monitor stack and hands its state to
// the lanes, and the plain simulation runs every experiment under fresh
// monitors from instruction 0. Armed campaigns also run a fifth way, on
// the classic interpreter with the warm start ablated: the predecoded
// arms all fast-forward the idle poll loop under the monitors alike, and
// only the interpreter steps every trip. The whole-campaign arms must
// report the solo run's detector stats too.
func modelIdentityCheck(t *testing.T, rng *rand.Rand, v workload.Variant, m inject.FaultModel, d detect.Spec, n int, seed uint64) {
	t.Helper()
	base := Config{Variant: v, Experiments: n, Seed: seed, Model: m, Detect: d}
	solo, err := Run(base)
	if err != nil {
		t.Fatalf("%s/%s/%s solo: %v", v, m, d, err)
	}
	if d.Enabled() && (solo.WarmStart == nil || solo.WarmStart.Resumed == 0) {
		t.Errorf("%s/%s/%s: detector campaign forked no experiment: %+v", v, m, d, solo.WarmStart)
	}
	var want bytes.Buffer
	if err := WriteRecords(&want, solo.Records); err != nil {
		t.Fatal(err)
	}

	wantDetect, err := json.Marshal(solo.Detect)
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	for _, arm := range []struct {
		name      string
		ablate    Layer
		workers   int
		interpret bool
	}{
		{"warm-start/prune-ablated", LayerWarmStart | LayerPrune, 0, false},
		{"one-worker", 0, 1, false},
		{"interpreted", LayerWarmStart, 0, true},
	} {
		if arm.interpret && !d.Enabled() {
			continue
		}
		cfg := base
		cfg.Ablate = arm.ablate
		cfg.Workers = arm.workers
		if arm.interpret {
			cfg.Spec = workload.SpecFor(v)
			cfg.Spec.Interpret = true
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s/%s %s: %v", v, m, d, arm.name, err)
		}
		got.Reset()
		if err := WriteRecords(&got, res.Records); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s/%s/%s: %s run differs from the solo run", v, m, d, arm.name)
		}
		if gotDetect, err := json.Marshal(res.Detect); err != nil || !bytes.Equal(gotDetect, wantDetect) {
			t.Errorf("%s/%s/%s: %s run reports detector stats %s, solo run %s (%v)",
				v, m, d, arm.name, gotDetect, wantDetect, err)
		}
	}

	// Sharded execution in a random partition, merged in shard order.
	got.Reset()
	var merged []Record
	for _, sh := range randomPartition(rng, n, 6) {
		cfg := base
		cfg.Shard = &Shard{Start: sh.Start, End: sh.End}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s/%s shard %+v: %v", v, m, d, sh, err)
		}
		merged = append(merged, res.Records...)
	}
	if err := WriteRecords(&got, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("%s/%s/%s: sharded merge differs from solo run", v, m, d)
	}
}

// detectorSpecs are the detector selections, unarmed included.
var detectorSpecs = []detect.Spec{{}, {CFE: true}, {Automaton: true}, {CFE: true, Automaton: true}}

// TestModelShardMergeByteIdentical is the fixed-seed smoke version of
// the cross-validation property, always on: every extended model, and
// every detector family, each under its own model.
func TestModelShardMergeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8822))
	for _, m := range nonDefaultModels {
		modelIdentityCheck(t, rng, workload.AlgorithmI, m, detect.Spec{}, 48, 321)
	}
	for i, d := range detectorSpecs[1:] {
		m := []inject.FaultModel{workload.ModelPC, workload.ModelBitFlip, workload.ModelTransient}[i]
		modelIdentityCheck(t, rng, workload.AlgorithmII, m, d, 48, 654)
	}
}

// TestModelCrossVal is the randomized cross-validation job: CI sets
// MODEL_CROSSVAL_TRIALS (and optionally MODEL_CROSSVAL_SEED) to sweep
// random (variant, model, detectors, n, seed) points; locally it
// defaults to a handful of trials.
func TestModelCrossVal(t *testing.T) {
	trials := 3
	if s := os.Getenv("MODEL_CROSSVAL_TRIALS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("MODEL_CROSSVAL_TRIALS=%q: %v", s, err)
		}
		trials = v
	}
	seed := int64(20260808)
	if s := os.Getenv("MODEL_CROSSVAL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("MODEL_CROSSVAL_SEED=%q: %v", s, err)
		}
		seed = v
	}
	rng := rand.New(rand.NewSource(seed))
	variants := workload.Variants()
	for i := 0; i < trials; i++ {
		v := variants[rng.Intn(len(variants))]
		m := nonDefaultModels[rng.Intn(len(nonDefaultModels))]
		d := detectorSpecs[rng.Intn(len(detectorSpecs))]
		n := 20 + rng.Intn(40)
		campaignSeed := rng.Uint64()
		t.Logf("trial %d: %s/%s/%s n=%d seed=%d", i, v, m, d, n, campaignSeed)
		modelIdentityCheck(t, rng, v, m, d, n, campaignSeed)
	}
}

// TestDetectorCampaign pins the detector integration end to end: a
// PC-model campaign with both families armed classifies some faults as
// detector catches, reports verdict counts, and stamps the model on
// every record.
func TestDetectorCampaign(t *testing.T) {
	res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 200, Seed: 9,
		Model: workload.ModelPC, Detect: detect.Spec{CFE: true, Automaton: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detect == nil {
		t.Fatal("Result.Detect is nil with detectors armed")
	}
	d := res.Detect
	if d.CFEDetected == 0 {
		t.Error("signature monitoring caught nothing across 200 PC faults")
	}
	if d.BlockEntries == 0 || d.Overhead <= 0 {
		t.Errorf("overhead model not populated: %+v", d)
	}
	cfe, auto := tallyDetect(res.Records)
	if cfe != d.CFEDetected || auto != d.AutomatonDetected {
		t.Errorf("tallyDetect (%d, %d) disagrees with stats (%d, %d)",
			cfe, auto, d.CFEDetected, d.AutomatonDetected)
	}
	if res.Prune != nil {
		t.Error("pruning ran with detectors armed")
	}
	if res.WarmStart == nil || res.WarmStart.Resumed == 0 {
		t.Errorf("detector campaign resumed no experiment: %+v", res.WarmStart)
	}
}

// TestDetectorCampaignDeterministic pins that armed detectors keep the
// campaign deterministic: same config, identical record bytes.
func TestDetectorCampaignDeterministic(t *testing.T) {
	cfg := Config{Variant: workload.AlgorithmII, Experiments: 60, Seed: 13,
		Model: workload.ModelPC, Detect: detect.Spec{CFE: true}}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := WriteRecords(&ab, a.Records); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecords(&bb, b.Records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Error("detector campaign is not deterministic")
	}
}

// TestSWIFIRejectsRuntimeModels pins that image-level injection refuses
// the runtime-only models instead of silently running default flips.
func TestSWIFIRejectsRuntimeModels(t *testing.T) {
	for _, m := range []inject.FaultModel{workload.ModelPC, workload.ModelTransient} {
		_, err := RunSWIFI(context.Background(), Config{Variant: workload.AlgorithmI, Experiments: 10, Seed: 3,
			Model: m})
		if err == nil {
			t.Errorf("SWIFI accepted runtime-only model %s", m)
		}
	}
	if _, err := RunSWIFI(context.Background(), Config{Variant: workload.AlgorithmI, Experiments: 10, Seed: 3,
		Model: workload.ModelBurst, BurstWidth: 2}); err != nil {
		t.Errorf("SWIFI rejected the burst model: %v", err)
	}
}

// TestTraceExperimentMatchesDetectorRecords: a detector campaign's
// experiment replays in detail mode under a fresh stack of the
// campaign's detectors, so every trace reaches its record's outcome and
// mechanism, a detector's alarm included.
func TestTraceExperimentMatchesDetectorRecords(t *testing.T) {
	spec := workload.PaperRunSpec()
	spec.Iterations = 80
	for _, d := range []detect.Spec{{CFE: true}, {Automaton: true}, {CFE: true, Automaton: true}} {
		t.Run(d.String(), func(t *testing.T) {
			cfg := Config{Variant: workload.AlgorithmI, Experiments: 40, Seed: 2001,
				Spec: spec, Model: workload.ModelPC, Detect: d}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			alarms := 0
			for _, rec := range res.Records {
				tr, err := TraceExperiment(context.Background(), cfg, rec.ID)
				if err != nil {
					t.Fatalf("experiment %d: %v", rec.ID, err)
				}
				if h := tr.Header; h.Outcome != rec.Outcome || h.Mechanism != rec.Mechanism {
					t.Errorf("experiment %d: trace %s/%q, record %s/%q",
						rec.ID, h.Outcome, h.Mechanism, rec.Outcome, rec.Mechanism)
				}
				if rec.Mechanism == string(cpu.MechSignature) || rec.Mechanism == string(cpu.MechAutomaton) {
					alarms++
				}
			}
			if alarms == 0 {
				t.Error("no record carries a detector's mechanism, so no alarm was traced")
			}
		})
	}
}

// TestTraceExperimentMatchesModelRecords: replaying experiment n of a
// campaign under any fault model, the default "" included, injects the
// very fault its record logged, names that experiment and seed in the
// header, and reaches the same verdict.
func TestTraceExperimentMatchesModelRecords(t *testing.T) {
	spec := workload.PaperRunSpec()
	spec.Iterations = 80
	for _, m := range append([]inject.FaultModel{"", workload.ModelBitFlip}, nonDefaultModels...) {
		name := string(m)
		if m == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Variant: workload.AlgorithmI, Experiments: 12, Seed: 23, Spec: spec, Model: m}
			if m == workload.ModelBurst {
				cfg.BurstWidth = 3
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{0, 7, 11} {
				tr, err := TraceExperiment(nil, cfg, n)
				if err != nil {
					t.Fatalf("experiment %d: %v", n, err)
				}
				rec, h := res.Records[n], tr.Header
				if h.Experiment != rec.ID || h.Seed != cfg.Seed {
					t.Errorf("experiment %d: trace header identifies %d/seed %d", n, h.Experiment, h.Seed)
				}
				if inj := h.Injection; inj.Region != rec.Region || inj.Element != rec.Element ||
					inj.Bit != rec.Bit || inj.At != rec.At || inj.Model != rec.Model || inj.Width != rec.Width {
					t.Errorf("experiment %d: trace injects %+v, record logged %s/%s[%d]@%d model %q width %d",
						n, inj, rec.Region, rec.Element, rec.Bit, rec.At, rec.Model, rec.Width)
				}
				if h.Outcome != rec.Outcome {
					t.Errorf("experiment %d: trace outcome %q, record %q", n, h.Outcome, rec.Outcome)
				}
			}
		})
	}
}
