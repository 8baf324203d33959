package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"
)

// metricKeys is every key /metrics serves.
var metricKeys = []string{
	"cache_hits", "cache_misses",
	"campaign_workers", "campaign_workers_busy",
	"campaigns_cancelled", "campaigns_done", "campaigns_failed",
	"campaigns_interrupted", "campaigns_queued", "campaigns_resumed", "campaigns_running",
	"detector_automaton_detected", "detector_cfe_detected", "detector_false_positives",
	"executors_registered",
	"experiments_abandoned", "experiments_collapsed", "experiments_panicked",
	"experiments_per_sec", "experiments_planned", "experiments_pruned_dead",
	"experiments_resumed", "experiments_retried", "experiments_simulated", "experiments_total",
	"journal_compactions",
	"requests_quota_rejected", "requests_shed", "requests_throttled",
	"retention_bytes", "retention_deleted",
	"shards_completed", "shards_expired", "shards_leased",
	"worker_utilization",
}

// TestMetricsBodyLayout pins /metrics' key set and byte layout: one
// object of sorted `"key": value` pairs separated by ", ", then a
// newline.
func TestMetricsBodyLayout(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	v := submit(t, ts, `{"variant":"alg1","n":10,"seed":3}`)
	waitForState(t, ts, v.ID, StateDone, time.Minute)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(metricKeys) != 35 || strings.Join(keys, " ") != strings.Join(metricKeys, " ") {
		t.Errorf("keys = %v, want the %d in metricKeys", keys, len(metricKeys))
	}
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = fmt.Sprintf("%q: %s", k, raw[k])
	}
	if want := "{" + strings.Join(pairs, ", ") + "}\n"; string(body) != want {
		t.Errorf("body layout:\n got %q\nwant %q", body, want)
	}
	if string(raw["campaigns_done"]) != "1" || string(raw["experiments_total"]) != "10" {
		t.Errorf("campaigns_done = %s, experiments_total = %s, want 1 and 10", raw["campaigns_done"], raw["experiments_total"])
	}
}

// TestMetricsPerManager runs two daemons in one process: the one that
// ran a campaign counts it, the other still reads zero, and each
// reports its own worker count.
func TestMetricsPerManager(t *testing.T) {
	_, busy := newTestServer(t, Options{Workers: 1})
	_, idle := newTestServer(t, Options{Workers: 3})
	v := submit(t, busy, `{"variant":"alg1","n":20,"seed":5}`)
	waitForState(t, busy, v.ID, StateDone, time.Minute)

	got := metricsMap(t, busy)
	for key, want := range map[string]float64{"campaigns_done": 1, "experiments_total": 20, "campaign_workers": 1} {
		if got[key] != want {
			t.Errorf("busy daemon: %s = %v, want %v", key, got[key], want)
		}
	}
	other := metricsMap(t, idle)
	if len(other) != len(metricKeys) {
		t.Errorf("idle daemon serves %d metrics, want %d", len(other), len(metricKeys))
	}
	for key, val := range other {
		want := 0.0
		if key == "campaign_workers" {
			want = 3
		}
		if val != want {
			t.Errorf("idle daemon: %s = %v, want %v", key, val, want)
		}
	}
}

// TestMetricsGaugesSettle: the queued, running and busy-worker gauges
// and the utilization follow the job table, and read zero after a
// finished campaign, after a cancel while queued, and after Close
// drains a queued backlog.
func TestMetricsGaugesSettle(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, ConfigHook: slowHook(3 * time.Millisecond)})
	gauges := func(when string, queued, running float64) {
		t.Helper()
		mm := metricsMap(t, ts)
		for key, want := range map[string]float64{
			"campaigns_queued":      queued,
			"campaigns_running":     running,
			"campaign_workers_busy": running,
			"worker_utilization":    running, // one worker
		} {
			if mm[key] != want {
				t.Errorf("%s: %s = %v, want %v", when, key, mm[key], want)
			}
		}
	}
	cancel := func(id string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/campaigns/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	const slow = `{"variant":"alg1","n":5000,"seed":%d,"workers":1}`

	gauges("fresh daemon", 0, 0)
	v := submit(t, ts, `{"variant":"alg1","n":10,"seed":1}`)
	waitForState(t, ts, v.ID, StateDone, time.Minute)
	gauges("after a finished campaign", 0, 0)

	run := submit(t, ts, fmt.Sprintf(slow, 2))
	waitForState(t, ts, run.ID, StateRunning, time.Minute)
	queued := submit(t, ts, fmt.Sprintf(slow, 3))
	gauges("one running, one queued", 1, 1)
	cancel(queued.ID)
	waitForState(t, ts, queued.ID, StateCancelled, time.Minute)
	gauges("after a cancel while queued", 0, 1)
	cancel(run.ID)
	waitForState(t, ts, run.ID, StateCancelled, time.Minute)
	gauges("after cancelling the running campaign", 0, 0)

	run = submit(t, ts, fmt.Sprintf(slow, 4))
	waitForState(t, ts, run.ID, StateRunning, time.Minute)
	for seed := 5; seed < 8; seed++ {
		submit(t, ts, fmt.Sprintf(slow, seed))
	}
	gauges("one running, three queued", 3, 1)
	s.Close()
	gauges("after Close drained the backlog", 0, 0)
	if got := metricsMap(t, ts)["campaigns_interrupted"]; got != 4 {
		t.Errorf("campaigns_interrupted = %v after Close, want 4", got)
	}
}
