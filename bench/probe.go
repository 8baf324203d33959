package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/journal"
	"ctrlguard/internal/prune"
	"ctrlguard/internal/workload"
)

// soloInjections is how many of a campaign's planned faults the solo-run
// and classification probes execute.
const soloInjections = 32

// probeSpecs picks the workload's own inputs for the layer probes: the
// first campaign of each kind its operations ran.
func probeSpecs(ops [][]goofi.CampaignSpec) []goofi.CampaignSpec {
	seen := make(map[string]bool)
	var out []goofi.CampaignSpec
	for _, op := range ops {
		for _, sp := range op {
			k := specKind(sp) + fmt.Sprint(sp.Experiments)
			if !seen[k] {
				seen[k] = true
				out = append(out, sp)
			}
		}
	}
	return out
}

// probeLayers calls each lower layer directly on the workload's own
// inputs and times it: the interpreter, the workload harness, the
// pruner, the fault sampler, the classifier and the journal.
func probeLayers(specs []goofi.CampaignSpec, tmp string) ([]Metric, error) {
	var predecode, nsPerInstr, golden, stateHash, capture []float64
	variants := make(map[string]bool)
	for _, sp := range specs {
		if variants[sp.Variant] {
			continue
		}
		variants[sp.Variant] = true
		v := workload.Variant(sp.Variant)
		prog, spec := workload.Program(v), workload.SpecFor(v)

		predecode = append(predecode, us(timeIt(50, func() { cpu.Predecode(prog) })))

		var out *workload.Outcome
		plain := timeIt(5, func() { out = workload.Run(prog, spec) })
		nsPerInstr = append(nsPerInstr, float64(plain)/float64(out.Instructions))

		hashed := spec
		hashed.RecordStateHashes = true
		g := timeIt(5, func() { workload.Run(prog, hashed) })
		golden = append(golden, ms(g))
		stateHash = append(stateHash, ms(g-plain))

		c := timeIt(3, func() {
			cp := prune.NewCapture()
			observed := spec
			observed.Observer = cp.Observer()
			o := workload.Run(prog, observed)
			cp.Finish(o.Instructions)
		})
		capture = append(capture, ms(c-plain))
	}

	var sample, fate, solo, classifyUS []float64
	for _, sp := range specs {
		v := workload.Variant(sp.Variant)
		prog, spec := workload.Program(v), workload.SpecFor(v)
		cp := prune.NewCapture()
		observed := spec
		observed.Observer = cp.Observer()
		gold := workload.Run(prog, observed)
		ix := cp.Finish(gold.Instructions)
		if ix == nil {
			return nil, fmt.Errorf("bench: prune capture declined %s", sp.Variant)
		}

		model, err := inject.ParseModel(sp.Model)
		if err != nil {
			return nil, err
		}
		sampler, err := inject.NewModelSampler(sp.Seed, gold.Instructions, model, sp.BurstWidth)
		if err != nil {
			return nil, err
		}
		plan := make([]workload.Injection, sp.Experiments)
		t := time.Now()
		for i := range plan {
			plan[i] = sampler.Next()
		}
		sample = append(sample, float64(time.Since(t))/float64(len(plan)))

		t = time.Now()
		for _, inj := range plan {
			ix.Fate(inj.Bit, inj.At)
		}
		fate = append(fate, float64(time.Since(t))/float64(len(plan)))

		var outs []*workload.Outcome
		for _, inj := range plan[:min(soloInjections, len(plan))] {
			run := spec
			run.Injection = &inj
			t := time.Now()
			outs = append(outs, workload.Run(prog, run))
			solo = append(solo, ms(time.Since(t)))
		}
		cfg := classify.DefaultConfig()
		for _, o := range outs {
			if o.Detected() {
				continue
			}
			differs := !cpu.StatesEqual(gold.FinalState, o.FinalState)
			classifyUS = append(classifyUS, us(timeIt(3, func() {
				classify.RunMulti(gold.MultiOutputs, o.MultiOutputs, differs, cfg)
			})))
		}
	}

	appendMS, err := probeJournal(filepath.Join(tmp, "probe.wal"))
	if err != nil {
		return nil, err
	}
	return []Metric{
		{Name: "cpu.predecode_us", Value: median(predecode), Unit: "us", N: len(predecode)},
		{Name: "cpu.ns_per_instr", Value: median(nsPerInstr), Unit: "ns", N: len(nsPerInstr)},
		{Name: "workload.golden_ms", Value: median(golden), Unit: "ms", N: len(golden)},
		{Name: "workload.state_hash_ms", Value: median(stateHash), Unit: "ms", N: len(stateHash)},
		{Name: "workload.solo_run_ms", Value: median(solo), Unit: "ms", N: len(solo)},
		{Name: "prune.capture_ms", Value: median(capture), Unit: "ms", N: len(capture)},
		{Name: "prune.fate_ns", Value: median(fate), Unit: "ns", N: len(fate)},
		{Name: "inject.sample_ns", Value: median(sample), Unit: "ns", N: len(sample)},
		{Name: "classify.run_us", Value: median(classifyUS), Unit: "us", N: len(classifyUS)},
		{Name: "journal.append_ms", Value: appendMS, Unit: "ms", N: journalProbeAppends},
	}, nil
}

// journalProbeAppends is how many fsync'd entries the journal probe
// appends.
const journalProbeAppends = 50

// probeJournal opens a fresh journal and returns the median time of one
// fsync'd Append, in ms.
func probeJournal(path string) (float64, error) {
	j, _, err := journal.Open(path)
	if err != nil {
		return 0, err
	}
	defer j.Close()
	spec := []byte(`{"variant":"alg1","n":300,"seed":1}`)
	ds := make([]float64, journalProbeAppends)
	for i := range ds {
		t := time.Now()
		if err := j.Append(journal.Entry{Job: fmt.Sprintf("c%06d", i+1), Type: journal.EventSubmitted, Spec: spec}); err != nil {
			return 0, err
		}
		ds[i] = ms(time.Since(t))
	}
	return median(ds), nil
}
