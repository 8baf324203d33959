package goofi

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/stats"
	"ctrlguard/internal/workload"
)

// RunSWIFI executes a pre-runtime SWIFI campaign: each experiment runs
// the workload from a program image with one bit inverted (§3.3.1 of
// the paper — GOOFI's second injection technique). Unlike the transient
// SCIFI faults, an image fault is permanent for the whole run, so the
// outcome distribution skews towards detections and gross failures.
//
// Records use Region "image-code" / "image-data" and Element "wordN";
// At is always zero (the fault exists before the first instruction).
//
// Cancelling ctx stops the campaign at the next experiment boundary, as
// RunContext does: the result holds the completed records in ID order
// and the error is ctx's. A nil ctx behaves like context.Background.
func RunSWIFI(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Experiments <= 0 {
		return nil, fmt.Errorf("goofi: campaign needs a positive experiment count, got %d", cfg.Experiments)
	}
	if cfg.Spec.Iterations == 0 {
		cfg.Spec = workload.PaperRunSpec()
	}
	if cfg.Classify == (classify.Config{}) {
		cfg.Classify = classify.DefaultConfig()
	}
	prog := workload.Program(cfg.Variant)

	// SWIFI mutates the stored image before the run, so only the
	// permanent models apply: single bit-flips and bursts. The runtime
	// models (pc, transient) decline explicitly.
	model := workload.FaultModel(cfg.Model).Canonical()
	switch model {
	case workload.ModelBitFlip, workload.ModelBurst:
	default:
		return nil, fmt.Errorf("goofi: SWIFI supports the %q and %q fault models, not %q (runtime-only)",
			workload.ModelBitFlip, workload.ModelBurst, model)
	}

	golden := workload.Run(prog, cfg.Spec)
	if golden.Detected() {
		return nil, fmt.Errorf("goofi: reference execution trapped: %v", golden.Trap)
	}

	sampler := inject.NewImageSampler(cfg.Seed, prog)
	if model == workload.ModelBurst {
		w := cfg.BurstWidth
		if w <= 0 {
			w = workload.DefaultBurstWidth
		}
		sampler.SetBurstWidth(w)
	}
	flips := make([]inject.ImageFlip, cfg.Experiments)
	for i := range flips {
		flips[i] = sampler.Next()
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Experiments {
		workers = cfg.Experiments
	}

	records := make([]Record, cfg.Experiments)
	completed := make([]bool, cfg.Experiments)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				records[i] = runSWIFIExperiment(prog, cfg, golden, i, flips[i])
				completed[i] = true
				if cfg.Progress != nil {
					mu.Lock()
					done++
					cfg.Progress(done, cfg.Experiments)
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for i := 0; i < cfg.Experiments && ctx.Err() == nil; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		kept := records[:0] // compacts in place: kept never overtakes i
		for i, ok := range completed {
			if ok {
				kept = append(kept, records[i])
			}
		}
		return &Result{Config: cfg, Golden: golden, Records: kept}, err
	}
	return &Result{Config: cfg, Golden: golden, Records: records}, nil
}

func runSWIFIExperiment(prog *cpu.Program, cfg Config, golden *workload.Outcome, id int, flip inject.ImageFlip) Record {
	rec := Record{
		ID:         id,
		Variant:    string(cfg.Variant),
		Region:     "image-" + flip.Target.String(),
		Element:    "word" + strconv.Itoa(flip.Word),
		Bit:        flip.Bit,
		Provenance: ProvenanceSimulated,
	}
	if flip.Width > 1 {
		rec.Model = string(workload.ModelBurst)
		rec.Width = flip.Width
	}
	mutated, err := flip.Apply(prog)
	if err != nil {
		// Cannot happen for sampler-produced flips; record it as a
		// detected configuration error rather than dropping data.
		rec.Outcome = classify.Detected.String()
		rec.Mechanism = "CAMPAIGN ERROR"
		return rec
	}
	out := workload.Run(mutated, cfg.Spec)

	var verdict classify.Verdict
	if out.Detected() {
		verdict = classify.DetectedVerdict(string(out.Trap.Mech))
	} else {
		stateDiffers := !statesEqualIgnoringImage(golden, out, flip)
		verdict = classify.Run(golden.Outputs, out.Outputs, stateDiffers, cfg.Classify)
	}
	rec.Outcome = verdict.Outcome.String()
	rec.Mechanism = verdict.Mechanism
	rec.FirstDev = verdict.FirstDeviation
	rec.StrongIts = verdict.StrongIterations
	rec.MaxDev = verdict.MaxDeviation
	return rec
}

// statesEqualIgnoringImage compares final states; the injected image
// bit itself necessarily differs, so a single-word difference at the
// injected location does not count as divergence (the fault would
// otherwise always be classified latent even when nothing consumed it).
func statesEqualIgnoringImage(golden, faulty *workload.Outcome, flip inject.ImageFlip) bool {
	a, b := golden.FinalState, faulty.FinalState
	if len(a) != len(b) {
		return false
	}
	diffs := 0
	for i := range a {
		if a[i] != b[i] {
			if a[i]^b[i] != flip.Mask() {
				return false
			}
			diffs++
		}
	}
	return diffs <= 1
}

// AnalyzeSWIFI tallies a SWIFI campaign. The two image regions take
// the place of the cache/register columns: image-code faults populate
// the Cache counter's slot and image-data faults the Regs slot; the
// region table renderer then shows code/data/total columns.
func AnalyzeSWIFI(recs []Record) *Analysis {
	a := &Analysis{
		Cache: counterForRegion(recs, "image-code"),
		Regs:  counterForRegion(recs, "image-data"),
		Total: counterForRegion(recs, ""),
	}
	if len(recs) > 0 {
		a.Variant = recs[0].Variant
	}
	return a
}

// counterForRegion tallies outcome categories for one region ("" = all).
func counterForRegion(recs []Record, region string) *stats.Counter {
	c := stats.NewCounter()
	for _, r := range recs {
		if region != "" && r.Region != region {
			continue
		}
		cat := r.Outcome
		if r.Outcome == classify.Detected.String() {
			cat = detectedPrefix + r.Mechanism
		}
		c.Add(cat)
	}
	return c
}
