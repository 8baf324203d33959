package server

import (
	"expvar"
	"reflect"
	"time"
)

// counters are one Manager's monotonic counts, each served on /metrics
// under its tag. The gauges are not kept here: metricsPage derives them
// from the job table and the options whenever /metrics is read.
type counters struct {
	CampaignsDone        expvar.Int `metric:"campaigns_done"`
	CampaignsFailed      expvar.Int `metric:"campaigns_failed"`
	CampaignsCancelled   expvar.Int `metric:"campaigns_cancelled"`
	CampaignsInterrupted expvar.Int `metric:"campaigns_interrupted"`
	CampaignsResumed     expvar.Int `metric:"campaigns_resumed"`
	ExperimentsTotal     expvar.Int `metric:"experiments_total"`
	ExperimentsRetried   expvar.Int `metric:"experiments_retried"`
	ExperimentsPanicked  expvar.Int `metric:"experiments_panicked"`
	ExperimentsAbandoned expvar.Int `metric:"experiments_abandoned"`
	ExperimentsResumed   expvar.Int `metric:"experiments_resumed"`

	// Fault-space pruning work avoidance, accumulated over completed
	// campaigns (see goofi.PruneStats).
	ExperimentsPlanned    expvar.Int `metric:"experiments_planned"`
	ExperimentsSimulated  expvar.Int `metric:"experiments_simulated"`
	ExperimentsPrunedDead expvar.Int `metric:"experiments_pruned_dead"`
	ExperimentsCollapsed  expvar.Int `metric:"experiments_collapsed"`

	// Distributed-campaign scheduling: shard lease lifecycle counts and
	// remote-executor registrations (each heartbeat re-POST counts).
	ShardsLeased        expvar.Int `metric:"shards_leased"`
	ShardsCompleted     expvar.Int `metric:"shards_completed"`
	ShardsExpired       expvar.Int `metric:"shards_expired"`
	ExecutorsRegistered expvar.Int `metric:"executors_registered"`

	// Overload admission: submissions bounced by a tenant's token
	// bucket, by a tenant quota, or shed by the bounded fair queue.
	RequestsThrottled     expvar.Int `metric:"requests_throttled"`
	RequestsQuotaRejected expvar.Int `metric:"requests_quota_rejected"`
	RequestsShed          expvar.Int `metric:"requests_shed"`

	// Content-addressed memoization: duplicate campaigns served from
	// the cache versus submissions that had to run.
	CacheHits   expvar.Int `metric:"cache_hits"`
	CacheMisses expvar.Int `metric:"cache_misses"`

	// Housekeeping: automatic journal compactions and record files
	// removed by the retention sweep.
	JournalCompactions expvar.Int `metric:"journal_compactions"`
	RetentionDeleted   expvar.Int `metric:"retention_deleted"`
	RetentionBytes     expvar.Int `metric:"retention_bytes"`

	// Detector verdicts, accumulated over completed campaigns with
	// in-loop detectors armed (see goofi.DetectStats): experiments
	// caught by signature monitoring / the behavior automaton, and
	// golden iterations the armed detectors rejected (detector noise).
	DetectorCFEDetected       expvar.Int `metric:"detector_cfe_detected"`
	DetectorAutomatonDetected expvar.Int `metric:"detector_automaton_detected"`
	DetectorFalsePositives    expvar.Int `metric:"detector_false_positives"`
}

// metricsPage builds the /metrics map: every counter under its tag,
// plus the gauges derived from the job table (queued and running
// campaigns; a running campaign occupies one worker) and the worker
// count, and the experiment rate since the manager started.
func (m *Manager) metricsPage() *expvar.Map {
	page := new(expvar.Map).Init()
	v := reflect.ValueOf(&m.metrics).Elem()
	for i := 0; i < v.NumField(); i++ {
		page.Set(v.Type().Field(i).Tag.Get("metric"), v.Field(i).Addr().Interface().(*expvar.Int))
	}
	var queued, running int
	for _, c := range m.List() {
		c.mu.Lock()
		switch c.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
		c.mu.Unlock()
	}
	rate := 0.0
	if secs := time.Since(m.started).Seconds(); secs > 0 {
		rate = float64(m.metrics.ExperimentsTotal.Value()) / secs
	}
	gauge := func(name string, value any) { page.Set(name, expvar.Func(func() any { return value })) }
	gauge("campaigns_queued", queued)
	gauge("campaigns_running", running)
	gauge("campaign_workers", m.opts.Workers)
	gauge("campaign_workers_busy", running)
	gauge("worker_utilization", float64(running)/float64(m.opts.Workers))
	gauge("experiments_per_sec", rate)
	return page
}
