package goofi

import (
	"errors"
	"fmt"
	"time"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// Worker fault isolation: the campaign engine applies the paper's
// recovery discipline to itself. An experiment that panics or hangs
// must cost one retry, not a worker or the campaign — so every
// experiment attempt runs panic-recovered under an optional wall-clock
// deadline, is retried a bounded number of times with exponential
// backoff, and, if it keeps failing, is recorded with the distinct
// OutcomeAbandoned instead of poisoning the campaign.

// OutcomeAbandoned marks an experiment that exhausted its retry budget
// (repeated panics or deadline expiries). It is outside the paper's
// classification taxonomy on purpose: analysis code counts it as its
// own bucket and never mistakes it for a real fault outcome.
const OutcomeAbandoned = "abandoned"

// DefaultExperimentRetries is how many times a failing experiment is
// re-attempted before being abandoned.
const DefaultExperimentRetries = 2

// DefaultRetryBackoff is the sleep before the first retry; it doubles
// per subsequent attempt.
const DefaultRetryBackoff = 10 * time.Millisecond

// errExperimentDeadline reports an attempt stopped by the
// per-experiment deadline.
var errExperimentDeadline = errors.New("goofi: experiment deadline exceeded")

// FaultStats counts the campaign engine's own fault handling: how often
// worker isolation intervened and how much work a resume reused.
type FaultStats struct {
	// Retried counts re-attempts after a panic or deadline expiry.
	Retried int `json:"retried,omitempty"`
	// Panicked counts attempts that ended in a recovered panic.
	Panicked int `json:"panicked,omitempty"`
	// TimedOut counts attempts stopped by the per-experiment deadline.
	TimedOut int `json:"timedOut,omitempty"`
	// Abandoned counts experiments recorded as OutcomeAbandoned after
	// exhausting their retry budget.
	Abandoned int `json:"abandoned,omitempty"`
	// Resumed counts experiments whose records were reused from a
	// previous interrupted run (Config.Resume) instead of re-executed.
	Resumed int `json:"resumed,omitempty"`
}

// Add accumulates another tally (a later batch or another shard).
func (s *FaultStats) Add(o FaultStats) {
	s.Retried += o.Retried
	s.Panicked += o.Panicked
	s.TimedOut += o.TimedOut
	s.Abandoned += o.Abandoned
	s.Resumed += o.Resumed
}

// Zero reports whether isolation never had to intervene.
func (s FaultStats) Zero() bool { return s == FaultStats{} }

// retryBudget resolves the configured retry knobs.
func (cfg *Config) retryBudget() (retries int, backoff time.Duration) {
	retries = cfg.ExperimentRetries
	if retries == 0 {
		retries = DefaultExperimentRetries
	} else if retries < 0 {
		retries = 0
	}
	backoff = cfg.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	return retries, backoff
}

// runExperimentIsolated runs one experiment under fault isolation:
// panic-recovered, deadline-bounded, retried with exponential backoff,
// and finally abandoned with a distinct outcome rather than failing the
// campaign.
func runExperimentIsolated(prog *cpu.Program, cfg Config, golden *workload.Outcome, warm *warmState, det *detectState, id int, inj workload.Injection) (Record, FaultStats) {
	retries, backoff := cfg.retryBudget()
	var stats FaultStats
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			stats.Retried++
			time.Sleep(backoff)
			backoff *= 2
		}
		rec, err := runAttempt(prog, cfg, golden, warm, det, id, inj, attempt)
		if err == nil {
			return rec, stats
		}
		if errors.Is(err, errExperimentDeadline) {
			stats.TimedOut++
		} else {
			stats.Panicked++
		}
		lastErr = err
	}
	stats.Abandoned++
	rec := verdictRecord(cfg, id, inj, classify.Verdict{}, ProvenanceSimulated)
	rec.Outcome, rec.Mechanism = OutcomeAbandoned, lastErr.Error()
	return rec, stats
}

// runAttempt is one panic-recovered, deadline-bounded attempt at an
// experiment.
func runAttempt(prog *cpu.Program, cfg Config, golden *workload.Outcome, warm *warmState, det *detectState, id int, inj workload.Injection, attempt int) (rec Record, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("goofi: experiment %d panicked: %v", id, p)
		}
	}()
	var deadline time.Time
	if cfg.ExperimentTimeout > 0 {
		deadline = time.Now().Add(cfg.ExperimentTimeout)
	}
	if cfg.Chaos != nil {
		// The hook may sleep (a hung worker) or panic (a crashed one);
		// its time counts against the attempt's deadline.
		cfg.Chaos(id, attempt)
		if !deadline.IsZero() && time.Now().After(deadline) {
			return Record{}, errExperimentDeadline
		}
	}
	return runExperiment(prog, cfg, golden, warm, det, id, inj, deadline)
}

// resumable reports whether a persisted record can stand in for
// experiment id of this campaign: same variant and exactly the fault
// the campaign's deterministic sampler drew for that id. Records from a
// different seed or spec therefore never leak into a resumed campaign,
// and abandoned records are always re-run.
func resumable(rec Record, variant string, inj workload.Injection) bool {
	return rec.Outcome != OutcomeAbandoned &&
		rec.Variant == variant &&
		rec.Region == string(inj.Bit.Region) &&
		rec.Element == inj.Bit.Element &&
		rec.Bit == inj.Bit.Bit &&
		rec.At == inj.At &&
		rec.Model == string(inj.Model) &&
		rec.Width == inj.Width
}
