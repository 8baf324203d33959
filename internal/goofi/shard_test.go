package goofi

import (
	"bytes"
	"math/rand"
	"testing"

	"ctrlguard/internal/workload"
)

func TestSplitShards(t *testing.T) {
	cases := []struct {
		total, size int
		want        []Shard
	}{
		{0, 10, nil},
		{10, 0, []Shard{{0, 10}}},
		{10, 20, []Shard{{0, 10}}},
		{10, 10, []Shard{{0, 10}}},
		{10, 4, []Shard{{0, 4}, {4, 8}, {8, 10}}},
		{9, 3, []Shard{{0, 3}, {3, 6}, {6, 9}}},
	}
	for _, c := range cases {
		got := SplitShards(c.total, c.size)
		if len(got) != len(c.want) {
			t.Fatalf("SplitShards(%d, %d) = %v, want %v", c.total, c.size, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitShards(%d, %d)[%d] = %v, want %v", c.total, c.size, i, got[i], c.want[i])
			}
		}
	}
}

func TestShardValidation(t *testing.T) {
	base := Config{Variant: workload.AlgorithmI, Experiments: 10, Seed: 1}
	bad := []Shard{{-1, 5}, {5, 5}, {6, 4}, {0, 11}}
	for _, s := range bad {
		cfg := base
		cfg.Shard = &Shard{Start: s.Start, End: s.End}
		if _, err := Run(cfg); err == nil {
			t.Errorf("shard %+v accepted, want error", s)
		}
	}
}

// randomPartition cuts [0, total) into contiguous shards at random
// boundaries.
func randomPartition(rng *rand.Rand, total, maxShards int) []Shard {
	n := 2 + rng.Intn(maxShards-1)
	cuts := map[int]bool{}
	for len(cuts) < n-1 {
		cuts[1+rng.Intn(total-1)] = true
	}
	bounds := []int{0}
	for c := 1; c < total; c++ {
		if cuts[c] {
			bounds = append(bounds, c)
		}
	}
	bounds = append(bounds, total)
	shards := make([]Shard, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		shards = append(shards, Shard{Start: bounds[i], End: bounds[i+1]})
	}
	return shards
}

// TestShardPartitionMergeByteIdentical is the property distributed
// campaigns rest on: for ANY contiguous partition of the plan, running
// each shard independently and concatenating the shards' records in
// shard order serializes to the byte-identical record file of the
// unsharded run — pruning classes spanning shards, warm start, and all.
func TestShardPartitionMergeByteIdentical(t *testing.T) {
	variants := []struct {
		v workload.Variant
		n int
	}{
		{workload.AlgorithmI, 90},
		{workload.AlgorithmII, 70},
		{workload.MIMOAlgorithmII, 50},
	}
	rng := rand.New(rand.NewSource(20260808))
	for _, tc := range variants {
		solo, err := Run(Config{Variant: tc.v, Experiments: tc.n, Seed: 4242})
		if err != nil {
			t.Fatalf("%s solo: %v", tc.v, err)
		}
		var want bytes.Buffer
		if err := WriteRecords(&want, solo.Records); err != nil {
			t.Fatal(err)
		}

		partitions := [][]Shard{
			{{0, tc.n}},                               // trivial
			{{0, tc.n / 2}, {tc.n / 2, tc.n}},         // halves
			{{0, 1}, {1, tc.n - 1}, {tc.n - 1, tc.n}}, // singleton edges
			randomPartition(rng, tc.n, 6),             // random
			randomPartition(rng, tc.n, 9),             // random, finer
		}
		for pi, shards := range partitions {
			var merged []Record
			for _, sh := range shards {
				cfg := Config{Variant: tc.v, Experiments: tc.n, Seed: 4242,
					Shard: &Shard{Start: sh.Start, End: sh.End}}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s partition %d shard %+v: %v", tc.v, pi, sh, err)
				}
				if len(res.Records) != sh.Size() {
					t.Fatalf("%s partition %d shard %+v: %d records, want %d",
						tc.v, pi, sh, len(res.Records), sh.Size())
				}
				for j, rec := range res.Records {
					if rec.ID != sh.Start+j {
						t.Fatalf("%s partition %d shard %+v: record %d has ID %d",
							tc.v, pi, sh, j, rec.ID)
					}
				}
				merged = append(merged, res.Records...)
			}
			var got bytes.Buffer
			if err := WriteRecords(&got, merged); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s partition %d (%v): merged records differ from solo run", tc.v, pi, shards)
			}
		}
	}
}

// TestShardDisabledPruneMerge pins the same merge property with the
// pruner (and its cross-shard representative machinery) switched off.
func TestShardDisabledPruneMerge(t *testing.T) {
	const n = 40
	solo, err := Run(Config{Variant: workload.AlgorithmI, Experiments: n, Seed: 7, Ablate: LayerPrune})
	if err != nil {
		t.Fatal(err)
	}
	var merged []Record
	for _, sh := range SplitShards(n, 17) {
		res, err := Run(Config{Variant: workload.AlgorithmI, Experiments: n, Seed: 7,
			Ablate: LayerPrune, Shard: &Shard{Start: sh.Start, End: sh.End}})
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, res.Records...)
	}
	if len(merged) != len(solo.Records) {
		t.Fatalf("merged %d records, want %d", len(merged), len(solo.Records))
	}
	for i := range merged {
		if merged[i] != solo.Records[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, merged[i], solo.Records[i])
		}
	}
}

// TestShardResumeWithinShard proves a re-leased shard resumes from its
// salvaged segment records: a shard run fed the first half of its own
// records via Resume re-executes only the missing tail and still
// matches the fresh shard run record-for-record.
func TestShardResumeWithinShard(t *testing.T) {
	const n = 60
	sh := &Shard{Start: 20, End: 45}
	fresh, err := Run(Config{Variant: workload.AlgorithmI, Experiments: n, Seed: 11, Shard: sh})
	if err != nil {
		t.Fatal(err)
	}
	salvaged := append([]Record(nil), fresh.Records[:10]...)
	resumed, err := Run(Config{Variant: workload.AlgorithmI, Experiments: n, Seed: 11, Shard: sh,
		Resume: salvaged})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Faults.Resumed != len(salvaged) {
		t.Errorf("resumed %d records, want %d", resumed.Faults.Resumed, len(salvaged))
	}
	if len(resumed.Records) != len(fresh.Records) {
		t.Fatalf("resumed run has %d records, want %d", len(resumed.Records), len(fresh.Records))
	}
	for i := range fresh.Records {
		if resumed.Records[i] != fresh.Records[i] {
			t.Fatalf("record %d differs after resume:\n%+v\n%+v", i, resumed.Records[i], fresh.Records[i])
		}
	}
}
