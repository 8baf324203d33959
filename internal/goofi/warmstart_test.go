package goofi

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ctrlguard/internal/trace"
	"ctrlguard/internal/workload"
)

// warmTestConfig returns a campaign small enough to full-replay in a
// test, but with enough experiments to exercise checkpoints, cache
// reuse, early exits and the iteration-0 fallback.
func warmTestConfig(v workload.Variant) Config {
	spec := workload.SpecFor(v)
	spec.Iterations = 150
	return Config{
		Variant:     v,
		Experiments: 150,
		Seed:        2001,
		Spec:        spec,
		Workers:     4,
		// These tests pin warm-start bookkeeping exactly (resumed vs
		// full replays); pruning would skip some experiments entirely.
		Ablate: LayerPrune,
	}
}

// TestWarmStartRecordsByteIdentical is the pinned correctness contract
// of the fast path: for a fixed seed, the checkpointed campaign and
// the full-replay campaign must produce identical records, field for
// field, for both of the paper's algorithms.
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
				t.Error("no experiment resumed from a checkpoint; the fast path is dead code")
			}
			if res.WarmStart.Checkpoints == 0 {
				t.Error("no checkpoint was captured")
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
// configuration encode byte-for-byte like those from a full-replay
// campaign (traces always replay in full; warm start must not leak
// into them).
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
		if !bytes.Equal(trace.Encode(a), trace.Encode(b)) {
			t.Errorf("experiment %d: trace bytes differ between warm and cold configs", n)
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

// TestWarmStateIterationZeroFallsBack covers the edge the cache must
// not mishandle: injections during iteration 0 have no earlier
// boundary to resume from and must run as full replays.
func TestWarmStateIterationZeroFallsBack(t *testing.T) {
	v := workload.AlgorithmI
	spec := workload.SpecFor(v)
	spec.Iterations = 50
	prog := workload.Program(v)
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	golden := workload.Run(prog, goldenSpec)

	w := newWarmState(prog, spec, golden, nil, checkpointCap)
	if ck := w.checkpointFor(0); ck != nil {
		t.Error("instruction 0 yielded a checkpoint")
	}
	if at := golden.IterationStarts[1] - 1; w.checkpointFor(at) != nil {
		t.Errorf("instruction %d (iteration 0) yielded a checkpoint", at)
	}
	if ck := w.checkpointFor(golden.IterationStarts[1]); ck == nil {
		t.Error("iteration 1 should be checkpointable")
	} else if ck.Iteration() != 1 {
		t.Errorf("checkpoint at iteration %d, want 1", ck.Iteration())
	}
}

// TestCheckpointCacheConcurrent hammers one small cache from many
// goroutines; run with -race this checks the singleflight and LRU
// locking, and it verifies every returned checkpoint matches its
// requested iteration even while eviction churns the map.
func TestCheckpointCacheConcurrent(t *testing.T) {
	v := workload.AlgorithmI
	spec := workload.SpecFor(v)
	spec.Iterations = 60
	prog := workload.Program(v)
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	golden := workload.Run(prog, goldenSpec)

	w := newWarmState(prog, spec, golden, nil, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				k := 1 + rng.Intn(spec.Iterations-1)
				ck := w.get(k)
				if ck == nil {
					t.Errorf("iteration %d: capture failed", k)
					return
				}
				if ck.Iteration() != k {
					t.Errorf("asked for iteration %d, got %d", k, ck.Iteration())
					return
				}
				if ck.Instructions() != golden.IterationStarts[k] {
					t.Errorf("iteration %d: checkpoint at instruction %d, want %d",
						k, ck.Instructions(), golden.IterationStarts[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	s := w.stats()
	if s.Evictions == 0 {
		t.Error("a 4-entry cache under 320 mixed requests never evicted")
	}
	w.mu.Lock()
	size := len(w.entries)
	w.mu.Unlock()
	if size > w.cap {
		t.Errorf("cache holds %d entries, cap is %d", size, w.cap)
	}
}

func TestInjectionIteration(t *testing.T) {
	starts := []uint64{0, 100, 250, 400}
	cases := []struct {
		at   uint64
		want int
	}{
		{0, 0}, {99, 0}, {100, 1}, {249, 1}, {250, 2}, {399, 2}, {400, 3}, {100000, 3},
	}
	for _, c := range cases {
		if got := injectionIteration(starts, c.at); got != c.want {
			t.Errorf("injectionIteration(%d) = %d, want %d", c.at, got, c.want)
		}
	}
}
