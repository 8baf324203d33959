package bench

import (
	"reflect"
	"testing"
)

func keys(workload string, seed uint64) [][]string {
	var out [][]string
	for _, op := range workloadOps(workload, seed) {
		var ks []string
		for _, sp := range op {
			ks = append(ks, specKey(sp))
		}
		out = append(out, ks)
	}
	return out
}

func TestWorkloadOpsAreDeterministic(t *testing.T) {
	for _, w := range Workloads {
		if !reflect.DeepEqual(keys(w, 7), keys(w, 7)) {
			t.Errorf("%s: the same seed drew different specs", w)
		}
		if reflect.DeepEqual(keys(w, 7), keys(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 drew the same specs", w)
		}
		if got, want := len(keys(w, 7)), opCount[w]; got != want {
			t.Errorf("%s: %d operations, want %d", w, got, want)
		}
	}
}

// TestServiceMix checks the service streams' composition for many seeds:
// a quarter of the submissions repeat an earlier one, and sizes and
// algorithms are dealt evenly. A repeat placed before the spec it
// repeats would count as fresh and break the counts.
func TestServiceMix(t *testing.T) {
	for _, w := range []string{Service, ServiceDist} {
		n := opCount[w]
		for seed := uint64(1); seed <= 50; seed++ {
			seen := make(map[string]bool)
			fresh := make(map[[2]any]int)
			repeats := make(map[int]int)
			for _, op := range workloadOps(w, seed) {
				sp := op[0]
				k := specKey(sp)
				if seen[k] {
					repeats[sp.Experiments]++
				} else {
					fresh[[2]any{sp.Variant, sp.Experiments}]++
				}
				seen[k] = true
			}
			for _, size := range serviceSizes {
				if got, want := repeats[size], n/4/len(serviceSizes); got != want {
					t.Errorf("%s seed %d: %d repeats of n=%d, want %d", w, seed, got, size, want)
				}
				for _, v := range []string{"alg1", "alg2"} {
					if got, want := fresh[[2]any{v, size}], (n-n/4)/6; got != want {
						t.Errorf("%s seed %d: %d fresh %s n=%d, want %d", w, seed, got, v, size, want)
					}
				}
			}
		}
	}
}
