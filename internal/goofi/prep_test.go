package goofi

import (
	"bytes"
	"sync"
	"testing"

	"ctrlguard/internal/detect"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/workload"
)

// clearPreps empties the golden set-up memo (go 1.22 has no
// sync.Map.Clear).
func clearPreps() {
	preps.Range(func(k, _ any) bool {
		preps.Delete(k)
		return true
	})
}

func prepCount() int {
	n := 0
	preps.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

func campaignBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return recordBytes(t, res.Records)
}

// TestGoldenMemoRecordsByteIdentical pins that the memoised golden
// set-up is the one every campaign would compute itself: a cold memo, a
// warm memo and an explicit spec (which bypasses the memo) write the
// same record file.
func TestGoldenMemoRecordsByteIdentical(t *testing.T) {
	v := workload.AlgorithmII
	cfg := Config{Variant: v, Experiments: 300, Seed: 4242, Workers: 2}
	explicit := cfg
	explicit.Spec = workload.SpecFor(v)

	clearPreps()
	bypass := campaignBytes(t, explicit)
	if n := prepCount(); n != 0 {
		t.Fatalf("explicit-spec campaign filled the memo (%d entries)", n)
	}
	cold := campaignBytes(t, cfg)
	if n := prepCount(); n != 1 {
		t.Fatalf("default-spec campaign left %d memo entries, want 1", n)
	}
	warm := campaignBytes(t, cfg)

	if !bytes.Equal(cold, bypass) {
		t.Error("cold-memo records differ from the explicit-spec campaign")
	}
	if !bytes.Equal(warm, bypass) {
		t.Error("warm-memo records differ from the explicit-spec campaign")
	}
}

// TestGoldenMemoComputedOnce: concurrent campaigns of one variant on a
// cold memo share a single golden run.
func TestGoldenMemoComputedOnce(t *testing.T) {
	clearPreps()
	const campaigns = 4
	goldens := make([]*workload.Outcome, campaigns)
	errs := make([]error, campaigns)
	var wg sync.WaitGroup
	for c := 0; c < campaigns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 20, Seed: uint64(c + 1), Workers: 1})
			if err != nil {
				errs[c] = err
				return
			}
			goldens[c] = res.Golden
		}(c)
	}
	wg.Wait()
	for c := 0; c < campaigns; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		if goldens[c] != goldens[0] {
			t.Fatalf("campaign %d got its own golden run", c)
		}
	}
}

// TestGoldenMemoDeclines: campaigns that run no annotated golden run
// (detectors, both fast paths off) must not fill the memo, and
// campaigns that warm-start without pruning (the non-default fault
// models) must fill only the hashed-golden entry: a transient-only or
// burst-only process never runs the pruner's capture nor keeps an
// index.
func TestGoldenMemoDeclines(t *testing.T) {
	base := Config{Variant: workload.AlgorithmI, Experiments: 10, Seed: 5, Workers: 1}
	cases := map[string]struct {
		mod      func(*Config)
		warmOnly bool // one entry, without the prune index
	}{
		"transient":     {func(c *Config) { c.Model = inject.ModelTransient }, true},
		"burst":         {func(c *Config) { c.Model = inject.ModelBurst }, true},
		"detector":      {func(c *Config) { c.Detect = detect.Spec{CFE: true} }, false},
		"no-fast-paths": {func(c *Config) { c.Ablate = LayerWarmStart | LayerPrune }, false},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			clearPreps()
			cfg := base
			tc.mod(&cfg)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if !tc.warmOnly {
				if n := prepCount(); n != 0 {
					t.Fatalf("memo holds %d entries", n)
				}
				return
			}
			preps.Range(func(k, e any) bool {
				if key := k.(prepKey); key.capture {
					t.Errorf("memo holds a prune-capture entry for %s", key.variant)
				}
				if e.(*goldenPrep).idx != nil {
					t.Error("memo holds a prune index")
				}
				return true
			})
			if n := prepCount(); n != 1 {
				t.Fatalf("memo holds %d entries, want the hashed golden run only", n)
			}
		})
	}
}

func TestLockstepKFromSimulatedCount(t *testing.T) {
	cases := []struct {
		name               string
		override           int
		workers, sim, want int
	}{
		{"nothing to simulate", 0, 2, 0, 4},
		{"small floor", 0, 2, 20, 4},
		{"four batches per worker", 0, 2, 57, 8},
		{"exact multiple", 0, 1, 64, 16},
		{"more workers, smaller batches", 0, 8, 300, 10},
		{"ceiling", 0, 1, 9290, 64},
		{"override wins", 3, 2, 1000, 3},
	}
	for _, c := range cases {
		if got := lockstepBatchK(Config{lockstepK: c.override}, c.workers, c.sim); got != c.want {
			t.Errorf("%s: lockstepBatchK(workers=%d, sim=%d) = %d, want %d", c.name, c.workers, c.sim, got, c.want)
		}
	}
}

// TestLockstepBatchesFromPostPruneCount pins the batch sizing on the
// paper workload: pruning leaves a few dozen of 300 experiments, which
// must still spread over several batches per worker rather than one.
func TestLockstepBatchesFromPostPruneCount(t *testing.T) {
	res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: 300, Seed: 2001, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lockstep == nil || res.Prune == nil {
		t.Fatalf("default campaign reported no lockstep/prune stats: %+v %+v", res.Lockstep, res.Prune)
	}
	if res.Lockstep.Batches < 4 {
		t.Fatalf("Alg I n=300 ran %d lockstep batches (K=%d, %d simulated), want >= 4",
			res.Lockstep.Batches, res.Lockstep.K, res.Prune.Simulated)
	}
}
