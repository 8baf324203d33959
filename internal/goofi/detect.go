package goofi

import (
	"fmt"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/workload"
)

// Detector integration: an armed campaign derives the program's
// basic-block graph, runs the golden execution under the detectors
// (signature monitoring enforcing, the automaton family collecting the
// state series it then mines), and arms a fresh monitor stack on every
// experiment. Detector verdicts arrive as cpu.TrapError with the
// detect mechanisms and classify as detections like any EDM trap. Both
// monitor families are workload.StatefulMonitors, so armed campaigns
// keep the warm start: a lane forked off a worker's golden cursor
// inherits the cursor's monitor state, and the golden splice requires
// it to match. They are
// workload.IdleMonitors too, so armed runs keep the idle fast-forward,
// the monitors accounting for the poll-loop trips it skips.

// DetectStats reports a campaign's detector configuration and results.
type DetectStats struct {
	// CFE and Automaton mirror the armed families.
	CFE       bool `json:"cfe,omitempty"`
	Automaton bool `json:"automaton,omitempty"`

	// BlockEntries is the golden run's basic-block entry count (the
	// cost basis of signature monitoring); Elements is the number of
	// state doubles the automaton watches.
	BlockEntries uint64 `json:"blockEntries,omitempty"`
	Elements     int    `json:"elements,omitempty"`

	// CFEDetected and AutomatonDetected count the campaign's records
	// whose detection verdict came from each family.
	CFEDetected       int `json:"cfeDetected"`
	AutomatonDetected int `json:"automatonDetected"`

	// FalsePositives counts golden iterations the armed detectors
	// reject — the mined automaton validated against its own training
	// series (zero by construction; non-zero would mean the miner
	// produced an unsound envelope).
	FalsePositives int `json:"falsePositives"`

	// Overhead is the modeled relative instruction-count overhead of
	// the armed detectors on the golden run (see detect.CFEOverhead
	// and detect.AutomatonOverhead).
	Overhead float64 `json:"overhead"`
}

// detectState is the shared, immutable-after-setup detector state of
// one campaign: built once from the golden run, reused by every
// experiment and, for a variant's default spec, by every campaign of
// the process that arms the same detectors (setupFor).
type detectState struct {
	spec      detect.Spec
	graph     *detect.BlockGraph
	automaton *detect.Automaton
	golden    *workload.Outcome
	stats     DetectStats
}

// newDetectState runs the monitored golden execution and prepares the
// per-experiment detector factories. The golden run must be clean under
// the armed detectors: a signature-monitor trap on the fault-free
// reference means the block graph disagrees with the real control flow
// — a bug, not a detection — and fails the campaign loudly.
//
// With hashes set, the golden run is then repeated under the
// experiments' own monitor stack with state digests recorded: that
// outcome, whose monitor state at every iteration boundary is the one
// an experiment re-converging there must hold, is the warm start's
// reference. It is the same fault-free execution, so it also serves
// classification.
func newDetectState(prog *cpu.Program, spec workload.RunSpec, ds detect.Spec, hashes bool) (*detectState, error) {
	d := &detectState{spec: ds}
	var stack detect.Stack
	var cf *detect.CFMonitor
	var coll *detect.Collector
	if ds.CFE {
		d.graph = detect.NewBlockGraph(prog)
		cf = detect.NewCFMonitor(d.graph)
		stack = append(stack, cf)
	}
	if ds.Automaton {
		coll = detect.NewCollector(prog)
		stack = append(stack, coll)
	}

	goldenSpec := spec
	goldenSpec.Monitor = stack
	golden := workload.Run(prog, goldenSpec)
	if golden.Detected() {
		return nil, fmt.Errorf("goofi: detectors rejected the fault-free reference execution: %v", golden.Trap)
	}
	d.golden = golden

	d.stats = DetectStats{CFE: ds.CFE, Automaton: ds.Automaton}
	if cf != nil {
		d.stats.BlockEntries = cf.Entries
		d.stats.Overhead += detect.CFEOverhead(cf.Entries, golden.Instructions)
	}
	if coll != nil {
		d.automaton = detect.MineSeries(coll.Series, detect.MineOptions{})
		d.stats.Elements = len(d.automaton.Elems)
		d.stats.FalsePositives = d.automaton.Violations(coll.Series)
		d.stats.Overhead += detect.AutomatonOverhead(
			len(d.automaton.Elems), len(coll.Series), golden.Instructions)
	}

	if hashes {
		goldenSpec.Monitor = d.newMonitor(prog)
		goldenSpec.RecordStateHashes = true
		// An automaton that rejects its own golden run (FalsePositives
		// > 0) leaves the warm start without a reference; experiments
		// then replay in full.
		if ref := workload.Run(prog, goldenSpec); !ref.Detected() {
			d.golden = ref
		}
	}
	return d, nil
}

// newMonitor builds a fresh monitor stack for one experiment run, or
// none without detectors (a nil d).
func (d *detectState) newMonitor(prog *cpu.Program) workload.Monitor {
	if d == nil {
		return nil
	}
	var stack detect.Stack
	if d.spec.CFE {
		stack = append(stack, detect.NewCFMonitor(d.graph))
	}
	if d.spec.Automaton {
		stack = append(stack, detect.NewAutomatonMonitor(prog, d.automaton))
	}
	return stack
}

// tally counts detector verdicts over the campaign's emitted records
// and returns the campaign-level stats.
func (d *detectState) tally(records []Record) *DetectStats {
	s := d.stats
	s.CFEDetected, s.AutomatonDetected = tallyDetect(records)
	return &s
}

// tallyDetect counts records whose detection verdict came from each
// detector family.
func tallyDetect(records []Record) (cfe, automaton int) {
	for _, rec := range records {
		switch rec.Mechanism {
		case string(cpu.MechSignature):
			cfe++
		case string(cpu.MechAutomaton):
			automaton++
		}
	}
	return cfe, automaton
}
