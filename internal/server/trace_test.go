package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/trace"
)

// traceResponse mirrors the JSON envelope of the trace endpoint.
type traceResponse struct {
	Record goofi.Record `json:"record"`
	Trace  trace.Trace  `json:"trace"`
	Chain  trace.Chain  `json:"chain"`
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	v := submit(t, ts, `{"alg": 1, "n": 4, "seed": 2001}`)
	waitForTerminal(t, ts, v.ID, 30*time.Second)

	base := ts.URL + "/api/v1/campaigns/" + v.ID + "/experiments/2/trace"

	var tr traceResponse
	if code := getJSON(t, base, &tr); code != http.StatusOK {
		t.Fatalf("trace returned %d", code)
	}
	if tr.Record.ID != 2 {
		t.Errorf("record ID = %d, want 2", tr.Record.ID)
	}
	h := tr.Trace.Header
	if h.Experiment != 2 || h.Seed != 2001 {
		t.Errorf("trace header experiment/seed = %d/%d, want 2/2001", h.Experiment, h.Seed)
	}
	if h.Outcome != tr.Record.Outcome {
		t.Errorf("trace outcome %q != record outcome %q", h.Outcome, tr.Record.Outcome)
	}
	if len(tr.Chain.Links) == 0 || tr.Chain.Links[0].Kind != "injected" {
		t.Errorf("chain does not start at the injection: %+v", tr.Chain.Links)
	}

	// The served trace is the replay of the campaign's experiment 2.
	cfg, err := goofi.CampaignSpec{Alg: 1, Experiments: 4, Seed: 2001}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := goofi.TraceExperiment(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Equal(want, &tr.Trace) {
		t.Error("served trace differs from goofi.TraceExperiment of the same experiment")
	}

	// JSON is the one trace wire format: bin is unknown.
	resp, err := http.Get(base + "?format=bin")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=bin returned %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(base + "?format=svg")
	if err != nil {
		t.Fatal(err)
	}
	svg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(svg), "<svg") {
		t.Errorf("svg format did not render SVG: %.80s", svg)
	}

	resp, err = http.Get(base + "?format=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format returned %d, want 400", resp.StatusCode)
	}
}

func TestTraceLookupFailures(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	// Unknown campaign.
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/c999999/experiments/0/trace", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign: %d, want 404", code)
	}

	v := submit(t, ts, `{"alg": 1, "n": 3, "seed": 9}`)
	waitForTerminal(t, ts, v.ID, 30*time.Second)
	base := ts.URL + "/api/v1/campaigns/" + v.ID + "/experiments/"

	// Out-of-range and malformed experiment indexes.
	for _, n := range []string{"7", "-1", "two"} {
		if code := getJSON(t, base+n+"/trace", nil); code != http.StatusNotFound {
			t.Errorf("experiment %q: %d, want 404", n, code)
		}
	}
}

// TestTraceDetectorCampaign: the trace endpoint replays an armed
// campaign's experiment under its detectors, so an experiment a
// signature alarm ended traces to that alarm.
func TestTraceDetectorCampaign(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	v := submit(t, ts, `{"alg": 1, "n": 20, "seed": 2001, "model": "pc", "detector": "cfe"}`)
	waitForState(t, ts, v.ID, StateDone, time.Minute)
	var page struct {
		Records []goofi.Record `json:"records"`
	}
	getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/records?limit=20", &page)
	n := -1
	for _, rec := range page.Records {
		if rec.Mechanism == string(cpu.MechSignature) {
			n = rec.ID
			break
		}
	}
	if n < 0 {
		t.Fatalf("no signature alarm among %d records", len(page.Records))
	}
	var tr traceResponse
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/experiments/"+strconv.Itoa(n)+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("detector campaign trace returned %d", code)
	}
	if h := tr.Trace.Header; h.Outcome != tr.Record.Outcome || h.Mechanism != string(cpu.MechSignature) {
		t.Errorf("experiment %d: trace %s/%q, record %s/%q", n, h.Outcome, h.Mechanism, tr.Record.Outcome, tr.Record.Mechanism)
	}
}

// TestTracePrecisionCampaignLaterBatch: experiment n of a
// precision-driven campaign replays as experiment n mod B of batch
// n / B under that batch's seed, so a trace of an experiment past the
// first batch injects the fault its record logged.
func TestTracePrecisionCampaignLaterBatch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, DataDir: t.TempDir()})
	v := submit(t, ts, `{"alg": 1, "seed": 3, "precision": 0.000001, "maxExperiments": 600}`)
	waitForState(t, ts, v.ID, StateDone, time.Minute)

	const n = goofi.DefaultBatchSize + 23
	var tr traceResponse
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/experiments/"+strconv.Itoa(n)+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace returned %d", code)
	}
	rec, h := tr.Record, tr.Trace.Header
	if rec.ID != n || h.Experiment != n {
		t.Fatalf("record ID %d, trace experiment %d, want %d", rec.ID, h.Experiment, n)
	}
	if h.Seed != 3+1_000_003 {
		t.Errorf("trace seed %d, want batch 1's seed %d", h.Seed, 3+1_000_003)
	}
	if h.Injection.Element != rec.Element || h.Injection.Bit != rec.Bit || h.Injection.At != rec.At {
		t.Errorf("trace injects %v, record logged %s[%d]@%d", h.Injection, rec.Element, rec.Bit, rec.At)
	}
	if h.Outcome != rec.Outcome {
		t.Errorf("trace outcome %q, record %q", h.Outcome, rec.Outcome)
	}
}

// TestTraceClientCancelMidTrace drops the connection while the replay
// is running; the handler must notice the dead context and bail out
// without wedging the server.
func TestTraceClientCancelMidTrace(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	v := submit(t, ts, `{"alg": 1, "n": 2, "seed": 2001}`)
	waitForTerminal(t, ts, v.ID, 30*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/api/v1/campaigns/"+v.ID+"/experiments/0/trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		// The trace finished inside the grace window — fine, but then
		// it must have succeeded.
		if resp.StatusCode != http.StatusOK {
			t.Errorf("fast trace returned %d", resp.StatusCode)
		}
	}

	// The server must still answer afterwards.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("server unresponsive after cancelled trace: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after cancelled trace: %d", resp.StatusCode)
	}
	var view View
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID, &view); code != http.StatusOK || view.State != StateDone {
		t.Errorf("campaign state after cancelled trace: %d %s", code, view.State)
	}
}

func TestTraceOnTuneJobConflict(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	spec := `{
		"space": {"policies": ["none", "rollback"], "learned": [false], "slacks": [0], "rateLimits": [0]},
		"seed": 17, "initialExperiments": 40, "rounds": 1
	}`
	resp, err := http.Post(ts.URL+"/api/v1/tune", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tune submit returned %d: %s", resp.StatusCode, body)
	}
	var view View
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	code := getJSON(t, ts.URL+"/api/v1/campaigns/"+view.ID+"/experiments/0/trace", nil)
	if code != http.StatusConflict {
		t.Errorf("trace on tune job: %d, want 409", code)
	}
}
