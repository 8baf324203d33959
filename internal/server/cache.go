package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"ctrlguard/internal/castore"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/fsatomic"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/journal"
	"ctrlguard/internal/tenant"
)

// Campaign memoization: a campaign's records are a pure function of
// (goofi.EngineVersion, canonical spec), so a completed run's canonical
// JSONL can be filed in the content-addressed store and replayed
// verbatim for any later submission of the same spec — the duplicate
// costs a hash and a file copy instead of thousands of simulated
// experiments. That holds for precision-driven campaigns too: their
// batches, and so their stopping point, are fixed by the spec.
//
// What is deliberately NOT part of the key: Workers, which the engine
// guarantees leaves the record bytes unchanged. What is deliberately
// NOT cached: runs under a test ConfigHook, which mutates the engine
// config after spec resolution; and runs that abandoned experiments,
// whose records are incomplete by definition.

// memoSpec is the canonical, order-stable projection of a spec that
// determines its record bytes. The precision fields are omitted for
// fixed-count specs, whose keys they leave unchanged.
type memoSpec struct {
	Variant        string  `json:"variant"`
	Experiments    int     `json:"n"`
	Seed           uint64  `json:"seed"`
	Model          string  `json:"model"`
	BurstWidth     int     `json:"burstWidth"`
	Detector       string  `json:"detector"`
	Precision      float64 `json:"precision,omitempty"`
	MaxExperiments int     `json:"maxExperiments,omitempty"`
}

// memoKey derives the content address for a spec's results. Model and
// detector are keyed in their parsed forms, so every spelling of one
// campaign ("BitFlip", "bitflip" and ""; "cfe+automaton" and
// "automaton+cfe") shares an entry. The defaults key as "", as they
// always have.
func memoKey(s goofi.CampaignSpec) (string, error) {
	v, err := goofi.ResolveVariant(s.Alg, s.Variant)
	if err != nil {
		return "", err
	}
	model, err := inject.ParseModel(s.Model)
	if err != nil {
		return "", err
	}
	if model == inject.ModelBitFlip {
		model = ""
	}
	det, err := detect.ParseSpec(s.Detector)
	if err != nil {
		return "", err
	}
	detector := ""
	if det.Enabled() {
		detector = det.String()
	}
	n, budget := s.Experiments, 0
	if s.Sequential() { // the budget, not n, bounds a precision-driven campaign
		n, budget = 0, cmp.Or(s.MaxExperiments, goofi.DefaultMaxExperiments)
	}
	return castore.Key(goofi.EngineVersion, memoSpec{
		Variant:        string(v),
		Experiments:    n,
		Seed:           s.Seed,
		Model:          string(model),
		BurstWidth:     s.BurstWidth,
		Detector:       detector,
		Precision:      s.Precision,
		MaxExperiments: budget,
	})
}

// memoizable reports whether a job's results may flow through the
// cache at all. A tenant's NoCache opt-out additionally blocks being
// *served* from the cache (checked in serveFromCache) but not
// contributing to it — a fresh run's bytes are correct for everyone.
func (m *Manager) memoizable(c *Campaign) bool {
	return m.cache != nil && c.Kind == KindCampaign && m.opts.ConfigHook == nil
}

// serveFromCache checks the content-addressed store for the spec's
// results and, on a hit, completes the campaign immediately: it is
// registered, journaled, and visible like any other job, but reaches
// StateDone without ever touching the queue. Returns false on any
// miss or cache trouble, an entry that is not a whole campaign among
// them — the caller then runs the campaign for real.
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
		m.metrics.CacheMisses.Add(1)
		return false, nil
	}
	// The one decode of the entry checks it, counts its outcomes and
	// computes its report; then the bytes become the campaign's
	// canonical record file, so /records, /report and /trace serve the
	// memoized job exactly like a freshly run one.
	recs, err := goofi.ReadRecords(bytes.NewReader(data))
	if err == nil {
		err = wholeCampaign(recs, c.Spec)
	}
	var file *recordFile
	if err == nil {
		file, err = indexRecordFile("", bytes.NewReader(data), recs)
	}
	if err != nil { // corrupt or cut-short entry: run for real rather than serve garbage
		m.opts.Logger.Printf("cache entry %s unreadable, ignoring: %v", key[:12], err)
		m.metrics.CacheMisses.Add(1)
		return false, nil
	}
	// The ID is taken before the file is written under it. A write that
	// fails sends the submission to run for real under the next ID.
	m.mu.Lock()
	m.nextID++
	id := fmt.Sprintf("c%06d", m.nextID)
	m.mu.Unlock()
	file.path = filepath.Join(m.opts.DataDir, id+".jsonl")
	if err := fsatomic.WriteFile(file.path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		m.opts.Logger.Printf("campaign %s: cache entry %s not materialized, running for real: %v", id, key[:12], err)
		m.metrics.CacheMisses.Add(1)
		return false, nil
	}

	now := time.Now()
	c.mu.Lock()
	c.ID = id
	c.state = StateDone
	c.started = now
	c.finished = now
	c.cacheHit = true
	c.done = file.total()
	c.outcomes = copyCounts(file.summary.Outcomes)
	c.dataPath, c.file = file.path, file
	c.broadcastLocked(c.eventLocked(string(StateDone)))
	close(c.doneCh)
	c.mu.Unlock()
	m.mu.Lock()
	m.jobs[c.ID] = c
	m.order = append(m.order, c.ID)
	m.mu.Unlock()
	m.metrics.CacheHits.Add(1)
	m.metrics.CampaignsDone.Add(1)

	spec, _ := json.Marshal(c.Spec)
	m.appendJournal(journal.Entry{
		Job: c.ID, Type: journal.EventSubmitted,
		Kind: string(c.Kind), State: string(StateQueued), Total: c.total,
		Spec: spec, Tenant: c.Tenant,
	})
	m.journalTerminal(c)
	m.opts.Logger.Printf("campaign %s served from result cache (%d records, key %s)", c.ID, file.total(), key[:12])
	return true, nil
}

// wholeCampaign checks that recs, a cache entry's records, are a whole
// campaign of spec: experiment IDs 0, 1, 2, ... in order, and exactly n
// of them for a fixed-count spec. A precision-driven campaign's
// stopping point is not checked.
func wholeCampaign(recs []goofi.Record, spec goofi.CampaignSpec) error {
	if len(recs) == 0 {
		return errors.New("no records")
	}
	if !spec.Sequential() && len(recs) != spec.Experiments {
		return fmt.Errorf("%d records, want %d", len(recs), spec.Experiments)
	}
	for i, rec := range recs {
		if rec.ID != i {
			return fmt.Errorf("record %d has ID %d", i, rec.ID)
		}
	}
	return nil
}

// cachePut memoizes a cleanly completed campaign from its canonical
// record file, replacing any entry under its key: an entry
// serveFromCache rejected is repaired by the run it caused.
func (m *Manager) cachePut(c *Campaign, faults goofi.FaultStats, path string) {
	if faults.Abandoned > 0 || !m.memoizable(c) {
		return
	}
	key, err := memoKey(c.Spec)
	if err != nil {
		return
	}
	if err := m.cache.PutFile(key, path); err != nil {
		m.opts.Logger.Printf("campaign %s: memoization failed (continuing): %v", c.ID, err)
	}
}
