package bench

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"ctrlguard/internal/goofi"
)

// Workload names, as BENCHMARK.json and the -workload flag spell them.
const (
	PaperTables = "paper-tables"
	FaultModels = "fault-models"
	Service     = "service"
	ServiceDist = "service-dist"
)

// Workloads lists every workload in the order a full run executes them.
var Workloads = []string{PaperTables, FaultModels, Service, ServiceDist}

// warmupSpec is the campaign every cold start runs before it counts as
// set up; it is never part of a measured sequence.
var warmupSpec = goofi.CampaignSpec{Variant: "alg1", Experiments: 50, Seed: 1}

// opCount is the fixed number of operations of each workload. A run
// performs exactly these, so the parent and a change do identical work
// for a seed; --seconds only caps a run far slower than usual. Each count
// fills about 20 s of measured run on a 2-core machine.
var opCount = map[string]int{PaperTables: 16, FaultModels: 48, Service: 72, ServiceDist: 48}

// workloadOps returns a workload's operations for a seed, each a list of
// campaign specs run in order. They are a pure function of (workload,
// seed): the program under test only ever sees the generated specs.
// service-dist draws its submissions the way service does, but fewer of
// them, so its specs are not the same as service's.
func workloadOps(workload string, seed uint64) [][]goofi.CampaignSpec {
	var salt uint64
	for _, c := range workload {
		salt = salt*131 + uint64(c)
	}
	rng := rand.New(rand.NewPCG(seed, salt))
	newSeed := func() uint64 { return rng.Uint64N(1<<32) + 1 }

	ops := make([][]goofi.CampaignSpec, opCount[workload])
	switch workload {
	case PaperTables:
		// The paper's two campaigns, at the paper's sample sizes.
		for i := range ops {
			ops[i] = []goofi.CampaignSpec{
				{Variant: "alg1", Experiments: 9290, Seed: newSeed()},
				{Variant: "alg2", Experiments: 2372, Seed: newSeed()},
			}
		}
	case FaultModels:
		for i := range ops {
			switch i % 3 {
			case 0:
				ops[i] = []goofi.CampaignSpec{{Variant: "alg1", Experiments: 300, Seed: newSeed(), Model: "transient"}}
			case 1:
				ops[i] = []goofi.CampaignSpec{{Variant: "alg2", Experiments: 300, Seed: newSeed(), Model: "burst"}}
			default:
				ops[i] = []goofi.CampaignSpec{{Variant: "alg2", Experiments: 60, Seed: newSeed(), Detector: "cfe+automaton"}}
			}
		}
	default:
		for i, sp := range serviceSpecs(rng, newSeed, len(ops)) {
			ops[i] = []goofi.CampaignSpec{sp}
		}
	}
	return ops
}

// serviceSizes are the experiment counts service submissions draw from.
var serviceSizes = []int{300, 1000, 3000}

// serviceSpecs draws n service submissions. Three quarters are fresh
// specs, Alg I or Alg II with a size from serviceSizes, in a random
// order. One quarter repeat an earlier fresh spec, each placed at a
// random point after the spec it repeats. Sizes and algorithms are
// dealt evenly rather than drawn independently, in the fresh specs and
// in the repeats: a run's throughput depends mostly on how many n=3000
// campaigns it holds, and with independent draws that count would have
// a standard deviation of about 20% of its mean from seed to seed.
func serviceSpecs(rng *rand.Rand, newSeed func() uint64, n int) []goofi.CampaignSpec {
	fresh := make([]goofi.CampaignSpec, n-n/4)
	for i := range fresh {
		fresh[i] = goofi.CampaignSpec{Variant: fmt.Sprintf("alg%d", i%2+1), Experiments: serviceSizes[i/2%len(serviceSizes)]}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	bySize := make(map[int][]int)
	for i := range fresh {
		fresh[i].Seed = newSeed()
		bySize[fresh[i].Experiments] = append(bySize[fresh[i].Experiments], i)
	}

	// Fresh spec i sorts at i; a repeat of it at a random point in
	// (i, len(fresh)], so after the spec it repeats.
	type slot struct {
		at   float64
		spec goofi.CampaignSpec
	}
	slots := make([]slot, 0, n)
	for i, sp := range fresh {
		slots = append(slots, slot{float64(i), sp})
	}
	for r := 0; len(slots) < n; r++ {
		same := bySize[serviceSizes[r%len(serviceSizes)]]
		i := same[rng.IntN(len(same))]
		slots = append(slots, slot{float64(i) + (1-rng.Float64())*float64(len(fresh)-i), fresh[i]})
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	out := make([]goofi.CampaignSpec, n)
	for i, s := range slots {
		out[i] = s.spec
	}
	return out
}

// specKey names a campaign spec canonically, for digests and repeats.
func specKey(s goofi.CampaignSpec) string {
	return fmt.Sprintf("%s/n=%d/seed=%d/model=%s/detector=%s", s.Variant, s.Experiments, s.Seed, s.Model, s.Detector)
}

// specKind names the campaign kind for per-kind layer metrics.
func specKind(s goofi.CampaignSpec) string {
	switch {
	case s.Detector != "":
		return "detector"
	case s.Model != "":
		return s.Model
	default:
		return s.Variant
	}
}

// experiments is the number of planned experiments across specs.
func experiments(specs []goofi.CampaignSpec) int {
	n := 0
	for _, s := range specs {
		n += s.Experiments
	}
	return n
}
