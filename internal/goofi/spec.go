package goofi

import (
	"fmt"

	"ctrlguard/internal/detect"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/workload"
)

// EngineVersion names the current record-producing behavior of the
// engine. Two runs of the same resolved spec under the same
// EngineVersion produce byte-identical record files, so the pair
// (EngineVersion, canonical spec) is a sound content address for
// campaign results. Bump it whenever a change alters the records a
// spec produces — new fields, reordered experiments, different
// outcome classification — and stale cache entries simply stop being
// addressable.
const EngineVersion = "goofi/1"

// Size bounds on a CampaignSpec. Specs arrive from untrusted front ends
// and the engine allocates per experiment and per worker up front, so
// Resolve rejects anything larger instead of letting an allocation
// panic take the process down.
const (
	// ExperimentLimit bounds n and maxExperiments (about 100x the paper's
	// largest campaign).
	ExperimentLimit = 1_000_000
	// WorkerLimit bounds workers.
	WorkerLimit = 1024
)

// CampaignSpec is the external, serialisable description of a campaign,
// shared by cmd/goofi's flag parsing and ctrlguardd's JSON API so both
// front ends validate requests identically.
type CampaignSpec struct {
	// Alg is shorthand for the paper's algorithms: 1 or 2. Mutually
	// exclusive with Variant; 0 means unset.
	Alg int `json:"alg,omitempty"`

	// Variant names the workload variant (alg1, alg2, ...). Empty with
	// Alg == 0 defaults to Algorithm I.
	Variant string `json:"variant,omitempty"`

	// Experiments is the number of faults to inject (ignored when
	// Precision is set).
	Experiments int `json:"n"`

	// Seed makes the campaign reproducible.
	Seed uint64 `json:"seed"`

	// Workers bounds parallel experiments (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`

	// Precision, if positive, runs a sequential campaign until the
	// severe-rate 95% CI half-width is at or below this value instead
	// of a fixed experiment count. Must be below 1.
	Precision float64 `json:"precision,omitempty"`

	// MaxExperiments bounds a precision-driven campaign's total effort
	// (0 = the sequential campaign's default).
	MaxExperiments int `json:"maxExperiments,omitempty"`

	// Model selects the fault model ("" or "bitflip" = the paper's
	// permanent single bit-flip; "pc", "transient", "burst" are the
	// attack-style extensions — see inject.Models).
	Model string `json:"model,omitempty"`

	// BurstWidth is the adjacent-bit span of the burst model (0 =
	// workload.DefaultBurstWidth); it only applies to Model "burst".
	BurstWidth int `json:"burstWidth,omitempty"`

	// Detector arms in-loop detectors for every experiment: "cfe",
	// "automaton", or "cfe+automaton" (see detect.Families).
	Detector string `json:"detector,omitempty"`
}

// Sequential reports whether the spec asks for a precision-driven
// (sequential) campaign rather than a fixed experiment count.
func (s CampaignSpec) Sequential() bool { return s.Precision > 0 }

// Resolve validates the spec and turns it into a campaign Config.
func (s CampaignSpec) Resolve() (Config, error) {
	v, err := ResolveVariant(s.Alg, s.Variant)
	if err != nil {
		return Config{}, err
	}
	if s.Precision < 0 || s.Precision >= 1 {
		return Config{}, fmt.Errorf("goofi: precision target must be in (0, 1), got %v", s.Precision)
	}
	if !s.Sequential() && s.Experiments <= 0 {
		return Config{}, fmt.Errorf("goofi: campaign needs a positive experiment count, got %d", s.Experiments)
	}
	if s.Experiments > ExperimentLimit {
		return Config{}, fmt.Errorf("goofi: experiment count must be at most %d, got %d", ExperimentLimit, s.Experiments)
	}
	if s.Workers < 0 || s.Workers > WorkerLimit {
		return Config{}, fmt.Errorf("goofi: workers must be in [0, %d], got %d", WorkerLimit, s.Workers)
	}
	if s.MaxExperiments < 0 || s.MaxExperiments > ExperimentLimit {
		return Config{}, fmt.Errorf("goofi: maxExperiments must be in [0, %d], got %d", ExperimentLimit, s.MaxExperiments)
	}
	model, err := inject.ParseModel(s.Model)
	if err != nil {
		return Config{}, err
	}
	if s.BurstWidth < 0 || s.BurstWidth > 32 {
		return Config{}, fmt.Errorf("goofi: burstWidth must be in [0, 32], got %d", s.BurstWidth)
	}
	if s.BurstWidth != 0 && model != inject.ModelBurst {
		return Config{}, fmt.Errorf("goofi: burstWidth only applies to the %q fault model, not %q",
			inject.ModelBurst, model)
	}
	det, err := detect.ParseSpec(s.Detector)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Variant:     v,
		Experiments: s.Experiments,
		Seed:        s.Seed,
		Workers:     s.Workers,
		Model:       model,
		BurstWidth:  s.BurstWidth,
		Detect:      det,
	}, nil
}

// ResolveVariant maps the two ways of naming a workload — the -alg
// shorthand (1 or 2) or an explicit variant name — onto a validated
// workload.Variant. Both unset defaults to Algorithm I.
func ResolveVariant(alg int, variant string) (workload.Variant, error) {
	switch {
	case variant != "" && alg != 0:
		return "", fmt.Errorf("goofi: use either alg or variant, not both")
	case alg == 1:
		return workload.AlgorithmI, nil
	case alg == 2:
		return workload.AlgorithmII, nil
	case alg != 0:
		return "", fmt.Errorf("goofi: unknown algorithm %d (want 1 or 2)", alg)
	case variant != "":
		v := workload.Variant(variant)
		if _, ok := workload.Source(v); !ok {
			return "", fmt.Errorf("goofi: unknown variant %q (have %v)", variant, workload.Variants())
		}
		return v, nil
	default:
		return workload.AlgorithmI, nil
	}
}
