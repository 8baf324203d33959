package goofi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ctrlguard/internal/workload"
)

// Worker fault isolation: the campaign engine applies the paper's
// recovery discipline to itself. An experiment that panics or hangs
// must cost one retry, not a worker or the campaign — so every
// experiment attempt runs panic-recovered under an optional wall-clock
// deadline, is retried a bounded number of times with exponential
// backoff, and, if it keeps failing, is recorded with the distinct
// OutcomeAbandoned instead of poisoning the campaign. The one worker
// pool, campaignLoop, runs every campaign kind's experiments this way.

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

// campaignLoop is the campaign engine's one worker pool, shared by
// every campaign kind. It owns the records of the experiments it runs,
// indexed by ID; a worker keeps a slot of type S across experiments
// (its golden cursor) and runs each experiment off it under isolation.
type campaignLoop[S any] struct {
	records   []Record
	completed []bool
	onRecord  func(Record)

	// The isolation knobs, resolved from a Config.
	retries          int
	backoff, timeout time.Duration
	chaos            func(id, attempt int)

	// run is one attempt at experiment id off the worker's slot; an
	// attempt that abort (nil without a deadline) stops returns
	// errExperimentDeadline. blank is id's record with a zero
	// verdict, which an abandoned experiment keeps. settle books a
	// finished experiment (see book) with the isolation tally fs; it
	// runs under the loop's lock.
	run    func(slot *S, id int, abort func() bool) (Record, error)
	blank  func(id int) Record
	settle func(id int, rec Record, fs FaultStats)

	mu sync.Mutex
}

// newCampaignLoop returns a loop over experiment IDs [0, n) that
// isolates experiments and reports records as cfg configures.
func newCampaignLoop[S any](n int, cfg *Config) *campaignLoop[S] {
	l := &campaignLoop[S]{
		records: make([]Record, n), completed: make([]bool, n), onRecord: cfg.OnRecord,
		retries: cfg.ExperimentRetries, backoff: cfg.RetryBackoff, timeout: cfg.ExperimentTimeout, chaos: cfg.Chaos,
	}
	if l.retries == 0 {
		l.retries = DefaultExperimentRetries
	} else if l.retries < 0 {
		l.retries = 0
	}
	if l.backoff <= 0 {
		l.backoff = DefaultRetryBackoff
	}
	return l
}

// book stores experiment id's record and, when emit, hands it to
// onRecord. Callers hold the lock (settle) or run outside the workers.
func (l *campaignLoop[S]) book(id int, rec Record, emit bool) {
	l.records[id], l.completed[id] = rec, true
	if emit && l.onRecord != nil {
		l.onRecord(rec)
	}
}

// runAll runs the experiments ids on workers goroutines, fed in the
// given order. When ctx is cancelled the feed stops and the workers
// drain what was handed out without running it.
func (l *campaignLoop[S]) runAll(ctx context.Context, workers int, ids []int) {
	workers = min(workers, len(ids))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var slot S // this worker's golden cursor
			for id := range next {
				if ctx.Err() == nil {
					l.runOne(&slot, id)
				}
			}
		}()
	}
feed:
	for _, id := range ids {
		select {
		case next <- id:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
}

// runOne runs experiment id under fault isolation — panic-recovered,
// deadline-bounded, retried with exponential backoff, and finally
// abandoned with a distinct outcome rather than failing the campaign —
// and settles its record.
func (l *campaignLoop[S]) runOne(slot *S, id int) {
	backoff := l.backoff
	var fs FaultStats
	var rec Record
	var err error
	for attempt := 0; attempt <= l.retries; attempt++ {
		if attempt > 0 {
			fs.Retried++
			time.Sleep(backoff)
			backoff *= 2
		}
		if rec, err = l.attempt(slot, id, attempt); err == nil {
			break
		}
		if errors.Is(err, errExperimentDeadline) {
			fs.TimedOut++
		} else {
			fs.Panicked++
		}
	}
	if err != nil {
		fs.Abandoned++
		rec = l.blank(id)
		rec.Outcome, rec.Mechanism = OutcomeAbandoned, err.Error()
	}
	l.mu.Lock()
	l.settle(id, rec, fs)
	l.mu.Unlock()
}

// attempt is one panic-recovered, deadline-bounded attempt at an
// experiment.
func (l *campaignLoop[S]) attempt(slot *S, id, attempt int) (rec Record, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("goofi: experiment %d panicked: %v", id, p)
		}
	}()
	var abort func() bool // reports the attempt's deadline passed
	if l.timeout > 0 {
		deadline := time.Now().Add(l.timeout)
		abort = func() bool { return time.Now().After(deadline) }
	}
	if l.chaos != nil {
		// The hook may sleep (a hung worker) or panic (a crashed one);
		// its time counts against the attempt's deadline.
		l.chaos(id, attempt)
		if abort != nil && abort() {
			return Record{}, errExperimentDeadline
		}
	}
	return l.run(slot, id, abort)
}

// partial returns the completed records with IDs in [lo, hi), in ID
// order: a shard's range, a cancelled run's finished experiments, or
// one campaign of a batch.
func (l *campaignLoop[S]) partial(lo, hi int) []Record {
	recs := make([]Record, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if l.completed[i] {
			recs = append(recs, l.records[i])
		}
	}
	return recs
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
