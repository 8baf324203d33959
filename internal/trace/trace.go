// Package trace is the fault-forensics subsystem: it turns one
// fault-injection experiment into explainable evidence. A traced
// experiment re-executes deterministically in detail mode and records,
// for every control iteration from the injection until the run's
// classification, a snapshot of the quantities the paper's causal
// argument rests on — the controller state variable x, its backup, the
// delivered output against the fault-free output, which registers and
// cache words the iteration touched, how many instructions diverged
// architecturally from the reference execution, and whether an
// executable assertion fired and recovered. A propagation analyzer
// reduces the raw trace to a causal chain (fault site → first
// architectural deviation → state corruption → output deviation →
// recovery/detection/end).
//
// A trace is a pure function of (variant, fault): it is replayed on
// demand and never stored. JSON (json.go) is its one wire format.
package trace

import (
	"fmt"
	"math"
)

// Injection names the injected fault in serialisable form (a served
// trace must be self-contained; workload/cpu types stay internal).
type Injection struct {
	Region  string `json:"region"`
	Element string `json:"element"`
	Bit     uint   `json:"bit"`
	At      uint64 `json:"at"`

	// Model and Width name the fault model as goofi records do; both
	// are empty/zero for the default single bit-flip.
	Model string `json:"model,omitempty"`
	Width int    `json:"width,omitempty"`
}

// String renders the fault site like cpu.StateBit does.
func (i Injection) String() string {
	return fmt.Sprintf("%s/%s[%d]@%d", i.Region, i.Element, i.Bit, i.At)
}

// Header describes the traced experiment.
type Header struct {
	// Variant is the workload program the experiment ran.
	Variant string `json:"variant"`

	// Experiment is the campaign experiment ID the trace replays, or
	// -1 for a standalone (explicitly specified) fault.
	Experiment int `json:"experiment"`

	// Seed is the campaign seed the injection was re-derived from
	// (0 for standalone faults).
	Seed uint64 `json:"seed,omitempty"`

	// Injection is the injected fault.
	Injection Injection `json:"injection"`

	// InjectionIteration is the control iteration during which the
	// fault was injected.
	InjectionIteration int `json:"injectionIteration"`

	// Iterations is the length of the reference run's window.
	Iterations int `json:"iterations"`

	// Outcome and Mechanism are the experiment's ordinary
	// classification (the same strings goofi.Record carries).
	Outcome   string `json:"outcome"`
	Mechanism string `json:"mechanism,omitempty"`

	// FirstArchDivergence is the global instruction index at which the
	// faulty run's architectural state (registers or cache) first
	// differed from the reference run, or -1 when it never did.
	FirstArchDivergence int64 `json:"firstArchDivergence"`

	// TrapIteration is the iteration during which an error-detection
	// mechanism terminated the run, or -1.
	TrapIteration int `json:"trapIteration"`

	// HasState reports that the workload's state variable could be
	// located (data label x or x1); X/XGolden are meaningful only then.
	HasState bool `json:"hasState"`

	// HasBackup reports that the workload keeps a recovery backup of
	// the state (Algorithm II family); Backup is meaningful only then.
	HasBackup bool `json:"hasBackup"`
}

// Per-iteration event bits.
const (
	// EventInjected marks the iteration during which the bit flipped.
	EventInjected uint8 = 1 << iota

	// EventStateAssertFailed marks an executable assertion on the
	// controller state failing (the recovery block was entered).
	EventStateAssertFailed

	// EventOutputAssertFailed marks the output assertion failing.
	EventOutputAssertFailed

	// EventTrapped marks the iteration an EDM terminated the run; its
	// Output/GoldenOutput are zero because no output was delivered.
	EventTrapped
)

// Iteration is one per-iteration snapshot of a traced experiment,
// taken at the end of control iteration K (after the state store, at
// the iteration's last executed instruction for a trapped iteration).
type Iteration struct {
	// K is the control iteration index.
	K int

	// X and XGolden are the effective value of the controller state
	// variable at the end of the iteration, in the faulty and the
	// reference run.
	X       float64
	XGolden float64

	// Backup is the effective value of the state's recovery backup
	// (x_old) at the end of the iteration; zero when !Header.HasBackup.
	Backup float64

	// Output and GoldenOutput are the delivered first-port outputs.
	// Both are zero for a trapped iteration (EventTrapped).
	Output       float64
	GoldenOutput float64

	// RegsTouched has bit r set when register r was written during the
	// iteration (r1..r15).
	RegsTouched uint32

	// CacheTouched has bit line*WordsPerLine+word set when that cache
	// data word changed during the iteration.
	CacheTouched uint32

	// RegDivergent and CacheDivergent count the iteration's
	// instructions at which the register file (resp. cache state)
	// differed from the reference run at the same global instruction
	// index.
	RegDivergent   uint32
	CacheDivergent uint32

	// Events is a bitmask of Event* flags.
	Events uint8
}

// StateError returns |X − XGolden|, the state corruption magnitude.
func (it Iteration) StateError() float64 {
	return math.Abs(it.X - it.XGolden)
}

// Deviation returns |Output − GoldenOutput|, the output deviation.
func (it Iteration) Deviation() float64 {
	return math.Abs(it.Output - it.GoldenOutput)
}

// Recovered reports whether best effort recovery ran this iteration.
func (it Iteration) Recovered() bool {
	return it.Events&(EventStateAssertFailed|EventOutputAssertFailed) != 0
}

// Trace is one experiment's propagation record: the header plus the
// per-iteration snapshots from the injection iteration to the end of
// the run (or the trap).
type Trace struct {
	Header     Header      `json:"header"`
	Iterations []Iteration `json:"iterations"`
}

// Find returns the snapshot of iteration k, or nil.
func (t *Trace) Find(k int) *Iteration {
	for i := range t.Iterations {
		if t.Iterations[i].K == k {
			return &t.Iterations[i]
		}
	}
	return nil
}

// Equal reports whether a and b are the same trace: equal headers and
// iterations whose floats match bit for bit, so a NaN equals only a NaN
// with the same payload. It is the replay-determinism check.
func Equal(a, b *Trace) bool {
	if a.Header != b.Header || len(a.Iterations) != len(b.Iterations) {
		return false
	}
	for i, x := range a.Iterations {
		y := b.Iterations[i]
		if x.K != y.K || x.RegsTouched != y.RegsTouched || x.CacheTouched != y.CacheTouched ||
			x.RegDivergent != y.RegDivergent || x.CacheDivergent != y.CacheDivergent ||
			x.Events != y.Events ||
			!sameBits(x.X, y.X) || !sameBits(x.XGolden, y.XGolden) || !sameBits(x.Backup, y.Backup) ||
			!sameBits(x.Output, y.Output) || !sameBits(x.GoldenOutput, y.GoldenOutput) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
