package goofi

import (
	"context"
	"fmt"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/stats"
)

// RunSWIFI executes a pre-runtime SWIFI campaign: each experiment runs
// the workload from a program image with one bit (or, under the burst
// model, a few adjacent bits) inverted (§3.3.1 of the paper — GOOFI's
// second injection technique). Unlike the transient SCIFI faults, an
// image fault is permanent for the whole run, so the outcome
// distribution skews towards detections and gross failures.
//
// An image fault is an ordinary injection at instruction 0 on region
// "image-code" or "image-data", element "wordN", so the campaign runs
// through RunContext's loop, with its cancellation, resume, OnRecord
// and fault isolation. Only the bit-flip and burst models apply, and
// detectors, which monitor the runtime loop, are refused.
func RunSWIFI(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Detect.Enabled() {
		return nil, fmt.Errorf("goofi: detectors do not apply to SWIFI campaigns (they monitor the runtime loop)")
	}
	cfg.image = true
	return RunContext(ctx, cfg)
}

// statesEqualIgnoringImage compares final states; the injected image
// word necessarily differs, so a single-word difference by exactly the
// injected mask does not count as divergence (the fault would
// otherwise always be classified latent even when nothing consumed it).
func statesEqualIgnoringImage(a, b []uint32, mask uint32) bool {
	if len(a) != len(b) {
		return false
	}
	diffs := 0
	for i := range a {
		if a[i] != b[i] {
			if a[i]^b[i] != mask {
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
