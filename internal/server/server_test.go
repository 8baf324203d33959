package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec string) View {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad submit response %q: %v", body, err)
	}
	if v.ID == "" || v.State == "" {
		t.Fatalf("submit response missing id/state: %+v", v)
	}
	return v
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode
}

// streamEvents reads the NDJSON event stream until a terminal event
// (or timeout), returning every event received.
func streamEvents(t *testing.T, url string, timeout time.Duration) []Event {
	t.Helper()
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("events returned %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q, want application/x-ndjson", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if State(ev.Type).Terminal() {
			return events
		}
	}
	t.Fatalf("event stream ended without a terminal event (%d events, err %v)", len(events), sc.Err())
	return nil
}

// TestCampaignLifecycle is the end-to-end path: submit → stream NDJSON
// progress → final report, checking that the server path is exactly as
// deterministic as a direct goofi.Run with the same seed.
func TestCampaignLifecycle(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DataDir: dataDir})

	const n, seed = 50, 7
	v := submit(t, ts, fmt.Sprintf(`{"variant":"alg1","n":%d,"seed":%d,"workers":2}`, n, seed))

	events := streamEvents(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/events", 2*time.Minute)
	if events[0].Type != "snapshot" {
		t.Errorf("first event type = %q, want snapshot", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != string(StateDone) || last.State != StateDone {
		t.Fatalf("terminal event = %+v, want done", last)
	}
	if last.Done != n || last.Total != n {
		t.Errorf("terminal event progress = %d/%d, want %d/%d", last.Done, last.Total, n, n)
	}
	prev := -1
	for _, ev := range events {
		if ev.Done < prev {
			t.Errorf("event progress went backwards: %d after %d", ev.Done, prev)
		}
		prev = ev.Done
	}

	var final View
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID, &final); code != http.StatusOK {
		t.Fatalf("get campaign: %d", code)
	}
	if final.State != StateDone || final.Records != n {
		t.Fatalf("final view = %+v, want done with %d records", final, n)
	}

	// Determinism through the server path: the report must match a
	// direct goofi.Run with the same spec.
	direct, err := goofi.Run(goofi.Config{Variant: workload.AlgorithmI, Experiments: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	wantOutcomes := map[string]int{}
	for _, r := range direct.Records {
		wantOutcomes[r.Outcome]++
	}
	var rep report
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/report", &rep); code != http.StatusOK {
		t.Fatalf("report: %d", code)
	}
	if rep.Records != n {
		t.Errorf("report records = %d, want %d", rep.Records, n)
	}
	if len(rep.Outcomes) != len(wantOutcomes) {
		t.Errorf("report outcomes %v, want %v", rep.Outcomes, wantOutcomes)
	}
	for o, c := range wantOutcomes {
		if rep.Outcomes[o] != c {
			t.Errorf("report outcome %q = %d, direct run has %d", o, rep.Outcomes[o], c)
		}
	}
	// ...and the terminal event's running outcome tally agrees too.
	for o, c := range wantOutcomes {
		if last.Outcomes[o] != c {
			t.Errorf("terminal event outcome %q = %d, direct run has %d", o, last.Outcomes[o], c)
		}
	}

	// The records were persisted through the JSONL store.
	path := filepath.Join(dataDir, v.ID+".jsonl")
	recs, err := goofi.LoadRecords(path)
	if err != nil {
		t.Fatalf("persisted records: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("persisted %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r != direct.Records[i] {
			t.Fatalf("persisted record %d differs from direct run: %+v vs %+v", i, r, direct.Records[i])
		}
	}

	// A region filter narrows the report to that region's records.
	wantCache := 0
	for _, r := range direct.Records {
		if r.Region == "cache" {
			wantCache++
		}
	}
	var cacheRep report
	getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/report?region=cache", &cacheRep)
	if cacheRep.Records != wantCache {
		t.Errorf("region=cache report has %d records, want %d", cacheRep.Records, wantCache)
	}
}

// TestCancelRunningCampaign checks DELETE stops a running campaign
// within an experiment boundary and keeps the partial records.
func TestCancelRunningCampaign(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DataDir: t.TempDir()})

	// Big enough to be mid-flight when cancelled; one experiment
	// worker makes progress steady.
	v := submit(t, ts, `{"variant":"alg1","n":50000,"seed":3,"workers":1}`)
	url := ts.URL + "/api/v1/campaigns/" + v.ID

	// Wait for real progress on the event stream before cancelling.
	client := &http.Client{}
	resp, err := client.Get(url + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(2 * time.Minute)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Done >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign made no progress before deadline")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	cancelled := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	dresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel returned %d", dresp.StatusCode)
	}

	// The open stream must end with a "cancelled" terminal event.
	var last Event
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
		if State(last.Type).Terminal() {
			break
		}
	}
	if last.Type != string(StateCancelled) {
		t.Fatalf("terminal event after cancel = %+v, want cancelled", last)
	}
	if took := time.Since(cancelled); took > 30*time.Second {
		t.Errorf("cancellation took %v, want within one experiment boundary", took)
	}

	var final View
	getJSON(t, url, &final)
	if final.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", final.State)
	}
	if final.Records == 0 || final.Records >= 50000 {
		t.Errorf("partial records = %d, want in (0, 50000)", final.Records)
	}

	// Partial records are still queryable.
	var rep report
	if code := getJSON(t, url+"/report", &rep); code != http.StatusOK {
		t.Fatalf("report on cancelled campaign: %d", code)
	}
	if rep.Records != final.Records {
		t.Errorf("report records = %d, view says %d", rep.Records, final.Records)
	}

	// A second DELETE conflicts.
	req2, _ := http.NewRequest(http.MethodDelete, url, nil)
	r2, err := client.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusConflict {
		t.Errorf("second cancel returned %d, want 409", r2.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	cases := []struct {
		name string
		body string
	}{
		{"unknown variant", `{"variant":"bogus","n":10}`},
		{"zero experiments", `{"variant":"alg1","n":0}`},
		{"negative experiments", `{"alg":1,"n":-3}`},
		{"bad precision", `{"alg":1,"precision":1.5}`},
		{"alg and variant", `{"alg":1,"variant":"alg2","n":10}`},
		{"unknown field", `{"variant":"alg1","n":10,"bogusField":1}`},
		{"not json", `variant=alg1`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", c.name, body)
		}
	}
}

// TestSubmitRejectsRemovedFastPathFields: the fast-path knobs left the
// campaign spec, so the strict decoder answers a request that still
// sends them with 400 instead of silently running a different engine.
func TestSubmitRejectsRemovedFastPathFields(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	for _, field := range []string{`"disablePrune":true`, `"disableWarmStart":true`, `"disableLockstep":true`, `"lockstepK":8`} {
		body := `{"variant":"alg1","n":10,"seed":1,` + field + `}`
		resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", body, resp.StatusCode, msg)
		}
	}
}

func TestQueueSheddingAndList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// One long campaign occupies the single runner...
	running := submit(t, ts, `{"variant":"alg1","n":50000,"seed":1,"workers":1}`)
	waitForState(t, ts, running.ID, StateRunning, time.Minute)

	// ...a second one fills the queue of depth 1...
	queued := submit(t, ts, `{"variant":"alg1","n":50000,"seed":2,"workers":1}`)

	// ...and a third is shed with 503.
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json",
		strings.NewReader(`{"variant":"alg1","n":10,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit returned %d, want 503", resp.StatusCode)
	}

	var list struct {
		Campaigns []View `json:"campaigns"`
	}
	getJSON(t, ts.URL+"/api/v1/campaigns", &list)
	if len(list.Campaigns) != 2 {
		t.Fatalf("list has %d campaigns, want 2", len(list.Campaigns))
	}
	if list.Campaigns[0].ID != running.ID || list.Campaigns[1].ID != queued.ID {
		t.Errorf("list order %s, %s; want submission order %s, %s",
			list.Campaigns[0].ID, list.Campaigns[1].ID, running.ID, queued.ID)
	}

	// Cancelling the queued campaign never lets it run.
	client := &http.Client{}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/campaigns/"+queued.ID, nil)
	cresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, cresp.Body)
	cresp.Body.Close()
	var qv View
	getJSON(t, ts.URL+"/api/v1/campaigns/"+queued.ID, &qv)
	if qv.State != StateCancelled {
		t.Errorf("queued campaign after cancel = %s, want cancelled", qv.State)
	}

	// Clean up the runner.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/campaigns/"+running.ID, nil)
	rresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rresp.Body)
	rresp.Body.Close()
	waitForTerminal(t, ts, running.ID, time.Minute)
}

func waitForState(t *testing.T, ts *httptest.Server, id string, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var v View
		getJSON(t, ts.URL+"/api/v1/campaigns/"+id, &v)
		if v.State == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %s", id, want)
}

func waitForTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var v View
		getJSON(t, ts.URL+"/api/v1/campaigns/"+id, &v)
		if v.State.Terminal() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached a terminal state", id)
}

// TestMetricsChangeOverCampaignLifetime asserts /metrics moves as
// campaigns run (monotonic counters only: metrics are process-wide).
func TestMetricsChangeOverCampaignLifetime(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	read := func() map[string]any {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("metrics Content-Type = %q", ct)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	num := func(m map[string]any, key string) float64 {
		v, ok := m[key].(float64)
		if !ok {
			t.Fatalf("metric %q missing or not numeric: %v", key, m[key])
		}
		return v
	}

	before := read()
	v := submit(t, ts, `{"variant":"alg1","n":30,"seed":9}`)
	streamEvents(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/events", 2*time.Minute)
	after := read()

	if got, was := num(after, "experiments_total"), num(before, "experiments_total"); got < was+30 {
		t.Errorf("experiments_total %v -> %v, want +30", was, got)
	}
	if got, was := num(after, "campaigns_done"), num(before, "campaigns_done"); got != was+1 {
		t.Errorf("campaigns_done %v -> %v, want +1", was, got)
	}
	for _, key := range []string{"campaigns_queued", "campaigns_running", "campaigns_cancelled",
		"campaigns_failed", "campaign_workers", "campaign_workers_busy",
		"experiments_per_sec", "worker_utilization"} {
		num(after, key) // presence + numeric
	}
}

func TestEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	v := submit(t, ts, `{"variant":"alg1","n":20,"seed":4}`)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/campaigns/"+v.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("event: snapshot\n")) || !bytes.Contains(body, []byte("data: {")) {
		t.Errorf("SSE framing missing in:\n%s", body)
	}
	if !bytes.Contains(body, []byte("event: done\n")) {
		t.Errorf("SSE stream missing terminal event:\n%s", body)
	}
}

func TestNotFoundAndVariants(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/c999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign returned %d, want 404", code)
	}
	var vars struct {
		Variants []string `json:"variants"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/variants", &vars); code != http.StatusOK {
		t.Fatalf("variants returned %d", code)
	}
	found := false
	for _, name := range vars.Variants {
		if name == string(workload.AlgorithmII) {
			found = true
		}
	}
	if !found {
		t.Errorf("variants %v missing %s", vars.Variants, workload.AlgorithmII)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz not ok")
	}
}
