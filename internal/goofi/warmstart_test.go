package goofi

import (
	"reflect"
	"testing"
	"time"

	"ctrlguard/internal/trace"
	"ctrlguard/internal/workload"
)

// warmTestConfig returns a campaign small enough to full-replay in a
// test, but with enough experiments on enough workers to exercise
// several cursors, forks in iteration 0 and early exits.
func warmTestConfig(v workload.Variant) Config {
	spec := workload.SpecFor(v)
	spec.Iterations = 150
	return Config{
		Variant:     v,
		Experiments: 150,
		Seed:        2001,
		Spec:        spec,
		Workers:     4,
		// These tests pin warm-start bookkeeping exactly (forked vs
		// full replays); pruning would skip some experiments entirely.
		Ablate: LayerPrune,
	}
}

// TestWarmStartRecordsByteIdentical is the pinned correctness contract
// of the fast path: for a fixed seed, the campaign forking off golden
// cursors and the full-replay campaign must produce identical records,
// field for field, for both of the paper's algorithms.
func TestWarmStartRecordsByteIdentical(t *testing.T) {
	for _, v := range []workload.Variant{workload.AlgorithmI, workload.AlgorithmII} {
		t.Run(string(v), func(t *testing.T) {
			warm := warmTestConfig(v)
			res, err := Run(warm)
			if err != nil {
				t.Fatal(err)
			}
			cold := warmTestConfig(v)
			cold.Ablate |= LayerWarmStart
			ref, err := Run(cold)
			if err != nil {
				t.Fatal(err)
			}

			if len(res.Records) != len(ref.Records) {
				t.Fatalf("%d records, want %d", len(res.Records), len(ref.Records))
			}
			for i := range ref.Records {
				if !reflect.DeepEqual(res.Records[i], ref.Records[i]) {
					t.Fatalf("record %d differs:\nwarm: %+v\nfull: %+v",
						i, res.Records[i], ref.Records[i])
				}
			}

			if res.WarmStart == nil {
				t.Fatal("warm-start campaign reported no stats")
			}
			if res.WarmStart.Resumed == 0 {
				t.Error("no experiment forked off a cursor; the fast path is dead code")
			}
			if res.WarmStart.Checkpoints == 0 {
				t.Error("no cursor was started")
			}
			if got := res.WarmStart.Resumed + res.WarmStart.FullReplays; got != cold.Experiments {
				t.Errorf("stats cover %d experiments, want %d", got, cold.Experiments)
			}
			if ref.WarmStart != nil {
				t.Error("disabled campaign reported warm-start stats")
			}
		})
	}
}

// TestWarmStartTraceByteIdentical pins the other half of the contract:
// detail-mode traces re-derived from a warm-started campaign's
// configuration match bit for bit those from a full-replay campaign
// (traces always replay in full; warm start must not leak into them).
func TestWarmStartTraceByteIdentical(t *testing.T) {
	warm := warmTestConfig(workload.AlgorithmII)
	cold := warmTestConfig(workload.AlgorithmII)
	cold.Ablate |= LayerWarmStart
	for _, n := range []int{0, 7, 42} {
		a, err := TraceExperiment(nil, warm, n)
		if err != nil {
			t.Fatalf("experiment %d (warm config): %v", n, err)
		}
		b, err := TraceExperiment(nil, cold, n)
		if err != nil {
			t.Fatalf("experiment %d (cold config): %v", n, err)
		}
		if !trace.Equal(a, b) {
			t.Errorf("experiment %d: traces differ between warm and cold configs", n)
		}
	}
}

func TestWarmStartSequentialCampaignIdentical(t *testing.T) {
	base := warmTestConfig(workload.AlgorithmI)
	pcfg := PrecisionConfig{
		Campaign:        base,
		TargetHalfWidth: 0.5, // generous: a couple of batches suffice
		BatchSize:       60,
		MaxExperiments:  180,
	}
	res, err := RunUntilPrecision(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	cold := pcfg
	cold.Campaign.Ablate |= LayerWarmStart
	ref, err := RunUntilPrecision(cold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, ref.Records) {
		t.Fatal("sequential campaign records differ between warm start and full replay")
	}
}

// TestWarmStartForksUnderIsolation: chaos hooks and per-experiment
// deadlines keep the warm start. An attempt whose hook panics leaves
// the worker's cursor where it was, the retry forks off it, and the
// records equal a clean campaign's.
func TestWarmStartForksUnderIsolation(t *testing.T) {
	cfg := warmTestConfig(workload.AlgorithmI)
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ExperimentTimeout = time.Minute
	cfg.RetryBackoff = time.Microsecond
	cfg.Chaos = func(id, attempt int) {
		if id%5 == 0 && attempt == 0 {
			panic("chaos")
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, clean.Records) {
		t.Fatal("records differ from the clean campaign's")
	}
	if want := cfg.Experiments / 5; res.Faults.Retried != want || res.Faults.Panicked != want {
		t.Errorf("faults %+v, want %d retried panics", res.Faults, want)
	}
	got, want := *res.WarmStart, *clean.WarmStart
	got.Checkpoints, want.Checkpoints = 0, 0 // cursors follow the scheduling
	if got != want || got.FullReplays != 0 {
		t.Errorf("warm start %+v under isolation, clean %+v", got, want)
	}
}
