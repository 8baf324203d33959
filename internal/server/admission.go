package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
	"ctrlguard/internal/tenant"
	"ctrlguard/internal/tune"
)

// This file is the admission-control layer of the tentpole: every
// submission passes, in order, the tenant's token-bucket rate limit
// (429 + Retry-After), the content-addressed cache (duplicate specs
// are served without queueing), the tenant's quotas on outstanding
// work (429), and the bounded fair-share queue (503 + Retry-After).
// Nothing here ever blocks the request: overload answers are
// immediate — the paper's "acceptable service under stress" applied
// to the service itself.

// RateLimitError reports a submission rejected by its tenant's token
// bucket, carrying the wait until a token accrues.
type RateLimitError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("server: tenant %s is over its submission rate limit (retry in %s)", e.Tenant, e.RetryAfter.Round(time.Millisecond))
}

// QuotaError reports a submission rejected because the tenant is at a
// quota on outstanding work (queued or running jobs, or their total
// experiments). Unlike a rate limit it clears only when jobs finish.
type QuotaError struct {
	Tenant string
	Reason string
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("server: tenant %s is over quota: %s", e.Tenant, e.Reason)
}

// Registry exposes the manager's tenant registry for request
// authentication.
func (m *Manager) Registry() *tenant.Registry { return m.tenants }

// SubmitAs validates a spec and admits a campaign for the tenant:
// rate limit, then cache, then quota, then the bounded fair queue.
func (m *Manager) SubmitAs(ten tenant.Tenant, spec goofi.CampaignSpec) (*Campaign, error) {
	if err := m.allow(ten); err != nil {
		return nil, err
	}
	if _, err := spec.Resolve(); err != nil {
		return nil, err
	}
	c := &Campaign{
		Kind:     KindCampaign,
		Spec:     spec,
		Tenant:   ten.Name,
		Created:  time.Now(),
		state:    StateQueued,
		total:    spec.Experiments,
		outcomes: make(map[string]int),
		subs:     make(map[chan Event]struct{}),
		doneCh:   make(chan struct{}),
	}
	if spec.Sequential() {
		c.total = cmp.Or(spec.MaxExperiments, goofi.DefaultMaxExperiments) // upper bound
	}
	if hit, err := m.serveFromCache(ten, c); hit {
		return c, err
	}
	return m.enqueue(ten, c)
}

// SubmitTuneAs validates a tuning spec and admits a design-space
// search job for the tenant. Tune jobs pass the same rate limit,
// quota, and queue gates; they are never memoized.
func (m *Manager) SubmitTuneAs(ten tenant.Tenant, spec tune.Spec) (*Campaign, error) {
	if err := m.allow(ten); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Campaign{
		Kind:     KindTune,
		TuneSpec: &spec,
		Tenant:   ten.Name,
		Created:  time.Now(),
		state:    StateQueued,
		total:    spec.PlannedEvaluations(),
		outcomes: make(map[string]int),
		subs:     make(map[chan Event]struct{}),
		doneCh:   make(chan struct{}),
	}
	return m.enqueue(ten, c)
}

// allow charges the tenant's token bucket for one submission.
func (m *Manager) allow(ten tenant.Tenant) error {
	if ten.RatePerSec <= 0 {
		return nil
	}
	m.mu.Lock()
	b := m.buckets[ten.Name]
	if b == nil {
		b = tenant.NewBucket(ten.RatePerSec, ten.Burst)
		m.buckets[ten.Name] = b
	}
	m.mu.Unlock()
	if ok, retry := b.Allow(time.Now()); !ok {
		m.metrics.RequestsThrottled.Add(1)
		return &RateLimitError{Tenant: ten.Name, RetryAfter: retry}
	}
	return nil
}

// enqueue checks the tenant's quotas, assigns an ID, charges usage,
// pushes the job onto the fair-share queue, and journals the
// submission — all but the journal write under the manager lock so a
// runner cannot observe the job half-admitted. A runner may pick the
// job up the moment it is pushed, and a tune job's runner rewrites
// c.total, so the charge and the journal entry read it before the push.
func (m *Manager) enqueue(ten tenant.Tenant, c *Campaign) (*Campaign, error) {
	e := journal.Entry{
		Type: journal.EventSubmitted, Kind: string(c.Kind), State: string(StateQueued),
		Total: c.total, Tenant: c.Tenant,
	}
	if c.Kind == KindTune {
		e.TuneSpec, _ = json.Marshal(c.TuneSpec)
	} else {
		e.Spec, _ = json.Marshal(c.Spec)
	}
	m.mu.Lock()
	u := m.usageLocked(ten.Name)
	// The usage record is shared with finishing runners: read it only
	// under m.mu, messages included.
	if ten.MaxQueuedJobs > 0 && u.QueuedJobs >= ten.MaxQueuedJobs {
		reason := fmt.Sprintf("%d outstanding jobs (max %d)", u.QueuedJobs, ten.MaxQueuedJobs)
		m.mu.Unlock()
		m.metrics.RequestsQuotaRejected.Add(1)
		return nil, &QuotaError{Tenant: ten.Name, Reason: reason}
	}
	if ten.MaxQueuedExperiments > 0 && u.QueuedExperiments+c.total > ten.MaxQueuedExperiments {
		reason := fmt.Sprintf("%d outstanding experiments + %d requested (max %d)", u.QueuedExperiments, c.total, ten.MaxQueuedExperiments)
		m.mu.Unlock()
		m.metrics.RequestsQuotaRejected.Add(1)
		return nil, &QuotaError{Tenant: ten.Name, Reason: reason}
	}
	c.ID = fmt.Sprintf("c%06d", m.nextID+1)
	e.Job = c.ID
	m.chargeUsageLocked(c)
	if err := m.queue.Push(ten.Name, ten.FairWeight(), c); err != nil {
		m.releaseUsageLocked(c)
		m.mu.Unlock()
		m.metrics.RequestsShed.Add(1)
		return nil, ErrQueueFull // shed without consuming an ID
	}
	m.nextID++
	m.jobs[c.ID] = c
	m.order = append(m.order, c.ID)
	m.mu.Unlock()
	m.appendJournal(e)
	return c, nil
}

// usageLocked returns (creating if needed) the tenant's usage record;
// m.mu must be held.
func (m *Manager) usageLocked(name string) *tenant.Usage {
	u := m.usage[name]
	if u == nil {
		u = &tenant.Usage{}
		m.usage[name] = u
	}
	return u
}

// chargeUsage charges a job against its tenant's quota accounting.
// The charge is held from admission until the job reaches a terminal
// state — queued and running jobs both count as outstanding work.
func (m *Manager) chargeUsage(c *Campaign) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.chargeUsageLocked(c)
}

func (m *Manager) chargeUsageLocked(c *Campaign) {
	if c.usageHeld {
		return
	}
	c.usageHeld = true
	c.usageN = c.total
	u := m.usageLocked(c.Tenant)
	u.QueuedJobs++
	u.QueuedExperiments += c.usageN
}

// releaseUsage returns a job's quota charge when it reaches a
// terminal state. Idempotent; called outside c.mu (lock order is
// m.mu before or independent of c.mu, never nested inside it).
func (m *Manager) releaseUsage(c *Campaign) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseUsageLocked(c)
}

func (m *Manager) releaseUsageLocked(c *Campaign) {
	if !c.usageHeld {
		return
	}
	c.usageHeld = false
	u := m.usageLocked(c.Tenant)
	u.QueuedJobs--
	u.QueuedExperiments -= c.usageN
}

// UsageSnapshot reports every tenant's current quota accounting,
// omitting idle tenants — the /readyz payload, and the thing the
// restart test compares byte-for-byte across a journal replay.
func (m *Manager) UsageSnapshot() map[string]tenant.Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]tenant.Usage)
	for name, u := range m.usage {
		if !u.Zero() {
			out[name] = *u
		}
	}
	return out
}

// fairWeight resolves a tenant name to its configured fair-share
// weight (1 for unknown or unconfigured tenants).
func (m *Manager) fairWeight(name string) int {
	if t, ok := m.tenants.Lookup(name); ok {
		return t.FairWeight()
	}
	return 1
}

// QueueLen is the number of jobs waiting in the fair-share queue.
func (m *Manager) QueueLen() int { return m.queue.Len() }

// QueueDepth is the queue's admission capacity.
func (m *Manager) QueueDepth() int { return m.opts.QueueDepth }

// Draining reports whether the manager is in graceful shutdown.
func (m *Manager) Draining() bool { return m.closing.Load() }
