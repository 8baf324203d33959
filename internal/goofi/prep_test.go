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
// (both fast paths off, a detector campaign without the warm start)
// must not fill the memo; campaigns that warm-start without pruning
// (the non-default fault models) must fill only the hashed-golden
// entry, so a transient-only or burst-only process never runs the
// pruner's capture nor keeps an index; and a detector campaign fills
// only its detector selection's monitored entry.
func TestGoldenMemoDeclines(t *testing.T) {
	v := workload.AlgorithmI
	base := Config{Variant: v, Experiments: 10, Seed: 5, Workers: 1}
	cfe := detect.Spec{CFE: true}
	cases := map[string]struct {
		mod  func(*Config)
		want []prepKey
	}{
		"transient":        {func(c *Config) { c.Model = inject.ModelTransient }, []prepKey{{variant: v}}},
		"burst":            {func(c *Config) { c.Model = inject.ModelBurst }, []prepKey{{variant: v}}},
		"detector":         {func(c *Config) { c.Detect = cfe }, []prepKey{{variant: v, detect: cfe}}},
		"detector-no-warm": {func(c *Config) { c.Detect, c.Ablate = cfe, LayerWarmStart }, nil},
		"no-fast-paths":    {func(c *Config) { c.Ablate = LayerWarmStart | LayerPrune }, nil},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			clearPreps()
			cfg := base
			tc.mod(&cfg)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if n := prepCount(); n != len(tc.want) {
				t.Fatalf("memo holds %d entries, want %d", n, len(tc.want))
			}
			for _, key := range tc.want {
				e, ok := preps.Load(key)
				if !ok {
					t.Fatalf("memo lacks entry %+v", key)
				}
				p := e.(*goldenPrep)
				if p.idx != nil {
					t.Error("memo holds a prune index")
				}
				if (p.det != nil) != key.detect.Enabled() {
					t.Errorf("entry %+v: detector state %v", key, p.det != nil)
				}
			}
		})
	}
}

// TestDetectorMemoMatchesCampaignLocal: the memoised monitored golden
// set-up reports the same detector statistics and writes the same
// records as one each campaign computes itself (an explicit spec
// bypasses the memo).
func TestDetectorMemoMatchesCampaignLocal(t *testing.T) {
	v := workload.AlgorithmII
	for _, ds := range []detect.Spec{{CFE: true}, {Automaton: true}, {CFE: true, Automaton: true}} {
		clearPreps()
		cfg := Config{Variant: v, Experiments: 40, Seed: 77, Workers: 2, Detect: ds, Model: workload.ModelPC}
		explicit := cfg
		explicit.Spec = workload.SpecFor(v)
		memo, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		local, err := Run(explicit)
		if err != nil {
			t.Fatal(err)
		}
		if !memo.Plan.memo || local.Plan.memo {
			t.Fatalf("%s: memo bits %v/%v", ds, memo.Plan.memo, local.Plan.memo)
		}
		if *memo.Detect != *local.Detect {
			t.Errorf("%s: memoised stats %+v, campaign-local %+v", ds, *memo.Detect, *local.Detect)
		}
		if !bytes.Equal(recordBytes(t, memo.Records), recordBytes(t, local.Records)) {
			t.Errorf("%s: memoised set-up changed the records", ds)
		}
	}
}
