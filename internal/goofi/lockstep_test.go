package goofi

import (
	"bytes"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/workload"
)

// lockstepModels spans the default bit-flip plus every extended model:
// unlike prune and warm start, the lockstep batcher is valid for all of
// them.
var lockstepModels = []inject.FaultModel{
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

// lockstepIdentityCheck runs one campaign three ways — the production
// default (lockstep batching over the predecoded engine), lockstep
// disabled (predecoded solo runs), and the classic interpreter with
// every fast path off — and requires byte-identical record files. This
// is the cross-validation property CI's lockstep-crossval job sweeps.
func lockstepIdentityCheck(t *testing.T, v workload.Variant, m inject.FaultModel, n int, seed uint64, k int) {
	t.Helper()
	base := Config{Variant: v, Experiments: n, Seed: seed, Model: m, lockstepK: k}
	batched, err := Run(base)
	if err != nil {
		t.Fatalf("%s/%s lockstep: %v", v, m, err)
	}
	want := recordBytes(t, batched.Records)

	solo := base
	solo.Ablate = LayerLockstep
	plain, err := Run(solo)
	if err != nil {
		t.Fatalf("%s/%s solo: %v", v, m, err)
	}
	if !bytes.Equal(recordBytes(t, plain.Records), want) {
		t.Errorf("%s/%s n=%d seed=%d k=%d: lockstep records differ from predecoded solo runs",
			v, m, n, seed, k)
	}

	// The interpreted reference keeps the same prune setting — pruning
	// stamps provenance into the records, so toggling it is a wire
	// difference, not an engine one. Warm start is byte-identical by its
	// own pinned invariant, and disabling it forces the interpreter to
	// execute full replays.
	interp := base
	interp.Ablate = LayerLockstep | LayerWarmStart
	interp.Spec = workload.SpecFor(v)
	interp.Spec.Interpret = true
	classic, err := Run(interp)
	if err != nil {
		t.Fatalf("%s/%s interpreted: %v", v, m, err)
	}
	if !bytes.Equal(recordBytes(t, classic.Records), want) {
		t.Errorf("%s/%s n=%d seed=%d k=%d: lockstep records differ from the classic interpreter",
			v, m, n, seed, k)
	}
}

// TestLockstepCampaignByteIdentical is the fixed-seed smoke version of
// the lockstep cross-validation property, always on.
func TestLockstepCampaignByteIdentical(t *testing.T) {
	for _, m := range lockstepModels {
		lockstepIdentityCheck(t, workload.AlgorithmI, m, 48, 707, 0)
	}
	// A tiny K exercises many batches; an oversized one a single batch.
	lockstepIdentityCheck(t, workload.AlgorithmII, "", 40, 708, 3)
	lockstepIdentityCheck(t, workload.MIMOAlgorithmI, workload.ModelTransient, 24, 709, 64)
}

// TestLockstepCrossVal is the randomized cross-validation job: CI sets
// LOCKSTEP_CROSSVAL_TRIALS (and optionally LOCKSTEP_CROSSVAL_SEED) to
// sweep random (variant, model, n, seed, K) points; locally it defaults
// to a handful of trials.
func TestLockstepCrossVal(t *testing.T) {
	trials := 3
	if s := os.Getenv("LOCKSTEP_CROSSVAL_TRIALS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("LOCKSTEP_CROSSVAL_TRIALS=%q: %v", s, err)
		}
		trials = v
	}
	seed := int64(20260808)
	if s := os.Getenv("LOCKSTEP_CROSSVAL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("LOCKSTEP_CROSSVAL_SEED=%q: %v", s, err)
		}
		seed = v
	}
	rng := rand.New(rand.NewSource(seed))
	variants := workload.Variants()
	for i := 0; i < trials; i++ {
		v := variants[rng.Intn(len(variants))]
		m := lockstepModels[rng.Intn(len(lockstepModels))]
		n := 20 + rng.Intn(40)
		k := rng.Intn(12) // 0 = auto
		campaignSeed := rng.Uint64()
		t.Logf("trial %d: %s/%q n=%d seed=%d k=%d", i, v, m, n, campaignSeed, k)
		lockstepIdentityCheck(t, v, m, n, campaignSeed, k)
	}
}

// TestLockstepStatsReported pins the accounting: with pruning off every
// experiment simulates, and each lands either as a lockstep lane or as
// a solo run — nothing double-counted, nothing lost.
func TestLockstepStatsReported(t *testing.T) {
	res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 60, Seed: 11,
		Ablate: LayerPrune, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ls := res.Lockstep
	if ls == nil {
		t.Fatal("Result.Lockstep is nil on a default campaign")
	}
	if ls.Batches == 0 || ls.Lanes == 0 {
		t.Fatalf("lockstep engine idle: %+v", ls)
	}
	if ls.Lanes+ls.Solo != 60 {
		t.Fatalf("lanes %d + solo %d != 60 experiments", ls.Lanes, ls.Solo)
	}
	if ls.K <= 0 {
		t.Fatalf("derived K = %d", ls.K)
	}

	disabled, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 60, Seed: 11,
		Ablate: LayerPrune | LayerLockstep})
	if err != nil {
		t.Fatal(err)
	}
	if disabled.Lockstep != nil {
		t.Error("Result.Lockstep reported with lockstep disabled")
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
