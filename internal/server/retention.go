package server

import (
	"os"
	"sort"
	"time"
)

// Retention keeps the data directory bounded on long-lived servers.
// The sweep only ever touches campaigns in a genuinely terminal state
// (done, failed, cancelled) — never interrupted jobs, whose record
// files are the resume source for the next start — and deletes their
// persisted records oldest-finished-first, either past a configured
// age or to fit a byte budget. The jobs themselves stay listed; only
// their record files and segments are reclaimed.

// retentionInterval paces the background sweep. Tests call
// retentionSweep directly instead of waiting it out.
const retentionInterval = 30 * time.Second

func (m *Manager) retentionLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(retentionInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-ticker.C:
			m.retentionSweep(time.Now())
		}
	}
}

// retainable is one terminal campaign's on-disk footprint.
type retainable struct {
	c        *Campaign
	finished time.Time
	dataPath string
	segDir   string
	bytes    int64
}

// retentionSweep applies the age and byte policies once. It is safe
// to call concurrently with running campaigns: only terminal
// non-interrupted jobs are considered, and their paths are cleared
// under the campaign lock before the files go away.
func (m *Manager) retentionSweep(now time.Time) (deleted int) {
	if m.opts.RetainAge <= 0 && m.opts.RetainBytes <= 0 {
		return 0
	}
	var items []retainable
	for _, c := range m.List() {
		c.mu.Lock()
		state := c.state
		r := retainable{c: c, finished: c.finished, dataPath: c.dataPath, segDir: c.segDir}
		c.mu.Unlock()
		if state != StateDone && state != StateFailed && state != StateCancelled {
			continue
		}
		if r.dataPath == "" && r.segDir == "" {
			continue
		}
		if r.dataPath != "" {
			if fi, err := os.Stat(r.dataPath); err == nil {
				r.bytes += fi.Size()
			}
		}
		if r.segDir != "" {
			if ents, err := os.ReadDir(r.segDir); err == nil {
				for _, e := range ents {
					if fi, err := e.Info(); err == nil {
						r.bytes += fi.Size()
					}
				}
			}
		}
		items = append(items, r)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].finished.Before(items[j].finished) })

	var total int64
	for _, r := range items {
		total += r.bytes
	}
	for _, r := range items {
		expired := m.opts.RetainAge > 0 && !r.finished.IsZero() && now.Sub(r.finished) > m.opts.RetainAge
		overBudget := m.opts.RetainBytes > 0 && total > m.opts.RetainBytes
		if !expired && !overBudget {
			continue
		}
		m.reclaim(r)
		total -= r.bytes
		deleted++
	}
	return deleted
}

// reclaim removes one campaign's records, detaching the paths and the
// file's index from the job first so readers see "records gone" rather
// than a dangling file reference, exactly as after a restart.
func (m *Manager) reclaim(r retainable) {
	r.c.mu.Lock()
	r.c.dataPath, r.c.file, r.c.segDir = "", nil, ""
	r.c.mu.Unlock()
	if r.dataPath != "" {
		if err := os.Remove(r.dataPath); err != nil && !os.IsNotExist(err) {
			m.opts.Logger.Printf("retention: remove %s: %v", r.dataPath, err)
		}
	}
	if r.segDir != "" {
		if err := os.RemoveAll(r.segDir); err != nil {
			m.opts.Logger.Printf("retention: remove %s: %v", r.segDir, err)
		}
	}
	m.metrics.RetentionDeleted.Add(1)
	m.metrics.RetentionBytes.Add(r.bytes)
	m.opts.Logger.Printf("retention: reclaimed %s (%d bytes)", r.c.ID, r.bytes)
}
