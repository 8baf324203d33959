package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"ctrlguard/internal/castore"
	"ctrlguard/internal/fsatomic"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
	"ctrlguard/internal/tenant"
)

// Campaign memoization: a fixed-count campaign's records are a pure
// function of (goofi.EngineVersion, canonical spec), so a completed
// run's canonical JSONL can be filed in the content-addressed store
// and replayed verbatim for any later submission of the same spec —
// the duplicate costs a hash and a file copy instead of thousands of
// simulated experiments.
//
// What is deliberately NOT part of the key: Workers, which the engine
// guarantees leaves the record bytes unchanged. What is deliberately
// NOT cached: precision-driven (sequential) campaigns, whose experiment
// count is data-dependent and whose point is the fresh stopping
// decision; runs under a test ConfigHook, which mutates the engine
// config after spec resolution; and runs that abandoned experiments,
// whose records are incomplete by definition.

// memoSpec is the canonical, order-stable projection of a spec that
// determines its record bytes.
type memoSpec struct {
	Variant     string `json:"variant"`
	Experiments int    `json:"n"`
	Seed        uint64 `json:"seed"`
	Model       string `json:"model"`
	BurstWidth  int    `json:"burstWidth"`
	Detector    string `json:"detector"`
}

// memoKey derives the content address for a spec's results.
func memoKey(s goofi.CampaignSpec) (string, error) {
	v, err := goofi.ResolveVariant(s.Alg, s.Variant)
	if err != nil {
		return "", err
	}
	return castore.Key(goofi.EngineVersion, memoSpec{
		Variant:     string(v),
		Experiments: s.Experiments,
		Seed:        s.Seed,
		Model:       s.Model,
		BurstWidth:  s.BurstWidth,
		Detector:    s.Detector,
	})
}

// memoizable reports whether a job's results may flow through the
// cache at all. A tenant's NoCache opt-out additionally blocks being
// *served* from the cache (checked in serveFromCache) but not
// contributing to it — a fresh run's bytes are correct for everyone.
func (m *Manager) memoizable(c *Campaign) bool {
	return m.cache != nil && c.Kind == KindCampaign && !c.Spec.Sequential() &&
		m.hook == nil
}

// serveFromCache checks the content-addressed store for the spec's
// results and, on a hit, completes the campaign immediately: it is
// registered, journaled, and visible like any other job, but reaches
// StateDone without ever touching the queue. Returns false on any
// miss or cache trouble — the caller then runs the campaign for real.
func (m *Manager) serveFromCache(ten tenant.Tenant, c *Campaign) (bool, error) {
	if !m.memoizable(c) || ten.NoCache {
		return false, nil
	}
	key, err := memoKey(c.Spec)
	if err != nil {
		return false, nil
	}
	data, ok, err := m.cache.Get(key)
	if err != nil || !ok {
		metrics.CacheMisses.Add(1)
		return false, nil
	}
	recs, err := goofi.ReadRecords(bytes.NewReader(data))
	if err != nil { // corrupt entry: run for real rather than serve garbage
		m.logger.Printf("cache entry %s unreadable, ignoring: %v", key[:12], err)
		metrics.CacheMisses.Add(1)
		return false, nil
	}

	now := time.Now()
	m.mu.Lock()
	m.nextID++
	c.ID = fmt.Sprintf("c%06d", m.nextID)
	m.jobs[c.ID] = c
	m.order = append(m.order, c.ID)
	m.mu.Unlock()

	// Materialize the canonical record file so /records, /report, and
	// /trace serve the memoized job exactly like a freshly run one.
	path := ""
	if m.dataDir != "" {
		path = filepath.Join(m.dataDir, c.ID+".jsonl")
		if werr := fsatomic.WriteFile(path, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}); werr != nil {
			m.logger.Printf("campaign %s: cache materialization failed (serving in memory): %v", c.ID, werr)
			path = ""
		}
	}

	outcomes := make(map[string]int, 4)
	for _, r := range recs {
		outcomes[r.Outcome]++
	}
	c.mu.Lock()
	c.state = StateDone
	c.started = now
	c.finished = time.Now()
	c.cacheHit = true
	c.done = len(recs)
	c.records = recs
	c.outcomes = outcomes
	c.dataPath = path
	c.broadcastLocked(c.eventLocked(string(StateDone)))
	close(c.doneCh)
	c.mu.Unlock()
	metrics.CacheHits.Add(1)
	metrics.CampaignsDone.Add(1)

	spec, _ := json.Marshal(c.Spec)
	m.appendJournal(journal.Entry{
		Job: c.ID, Type: journal.EventSubmitted,
		Kind: string(c.Kind), State: string(StateQueued), Total: c.total,
		Spec: spec, Tenant: c.Tenant,
	})
	m.journalTerminal(c)
	m.logger.Printf("campaign %s served from result cache (%d records, key %s)", c.ID, len(recs), key[:12])
	return true, nil
}

// cachePut memoizes a cleanly completed campaign: from its canonical
// record file when one was written, else straight from memory (no data
// directory configured).
func (m *Manager) cachePut(c *Campaign, faults goofi.FaultStats, recs []goofi.Record, path string) {
	if len(recs) == 0 || faults.Abandoned > 0 || !m.memoizable(c) {
		return
	}
	key, err := memoKey(c.Spec)
	if err != nil {
		return
	}
	if path != "" {
		err = m.cache.PutFile(key, path)
	} else {
		var buf bytes.Buffer
		if err = goofi.WriteRecords(&buf, recs); err == nil {
			err = m.cache.Put(key, buf.Bytes())
		}
	}
	if err != nil {
		m.logger.Printf("campaign %s: memoization failed (continuing): %v", c.ID, err)
	}
}
