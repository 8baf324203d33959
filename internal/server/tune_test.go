package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctrlguard/internal/journal"
	"ctrlguard/internal/jsonl"
	"ctrlguard/internal/tune"
)

// TestServerTuneJobLifecycle drives a design-space tuning job through
// the HTTP API end to end: submit → progress events → outcome, with
// the per-candidate results persisted like campaign records.
func TestServerTuneJobLifecycle(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, DataDir: dataDir})

	spec := `{
		"space": {
			"policies": ["none", "rollback"],
			"learned": [false],
			"slacks": [0],
			"rateLimits": [0]
		},
		"seed": 17,
		"initialExperiments": 60,
		"rounds": 1
	}`
	resp, err := http.Post(ts.URL+"/api/v1/tune", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad submit response %q: %v", body, err)
	}
	if v.Kind != KindTune {
		t.Fatalf("kind = %q, want %q", v.Kind, KindTune)
	}
	if v.TuneSpec == nil || v.TuneSpec.Seed != 17 {
		t.Fatalf("tune spec not echoed: %+v", v)
	}
	if loc := resp.Header.Get("Location"); loc != "/api/v1/tune/"+v.ID+"/result" {
		t.Errorf("Location = %q", loc)
	}

	// The result endpoint conflicts until the search finishes.
	if code := getJSON(t, ts.URL+"/api/v1/tune/"+v.ID+"/result", nil); code != http.StatusConflict && code != http.StatusOK {
		t.Errorf("early result fetch returned %d", code)
	}

	events := streamEvents(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/events", 120*time.Second)
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("tune job ended %s: %s", last.State, last.Error)
	}
	if last.Done == 0 || last.Done > last.Total {
		t.Errorf("final progress %d/%d", last.Done, last.Total)
	}

	var outcome tune.Outcome
	if code := getJSON(t, ts.URL+"/api/v1/tune/"+v.ID+"/result", &outcome); code != http.StatusOK {
		t.Fatalf("result fetch returned %d", code)
	}
	if outcome.Recommended == nil {
		t.Fatal("outcome has no recommendation")
	}
	if outcome.Recommended.Severe.P() >= outcome.Baseline.Severe.P() {
		t.Errorf("recommended severe %v not below baseline %v",
			outcome.Recommended.Severe, outcome.Baseline.Severe)
	}
	if len(outcome.Front) == 0 {
		t.Error("outcome has an empty front")
	}

	// Results persisted next to campaign records.
	var final View
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID, &final); code != http.StatusOK {
		t.Fatalf("get returned %d", code)
	}
	wantPath := filepath.Join(dataDir, v.ID+".jsonl")
	if final.RecordsPath != wantPath {
		t.Fatalf("records path = %q, want %q", final.RecordsPath, wantPath)
	}
	saved, err := jsonl.Load[tune.Outcome](wantPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 1 || len(saved[0].Results) != len(outcome.Results) {
		t.Errorf("persisted %d outcomes, want 1 with the outcome's %d results", len(saved), len(outcome.Results))
	}

	// The report endpoint stays a campaign-only feature.
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/report", nil); code != http.StatusConflict {
		t.Errorf("report on a tune job returned %d, want conflict", code)
	}
}

// smallTuneSpec is a two-candidate, one-round search.
func smallTuneSpec() tune.Spec {
	return tune.Spec{
		Space: tune.Space{Policies: []tune.Policy{tune.PolicyNone, tune.PolicyRollback},
			Learned: []bool{false}, Slacks: []float64{0}, RateLimits: []float64{0}},
		Seed: 17, InitialExperiments: 20, Rounds: 1,
	}
}

// tuneResultBody fetches a tune job's result endpoint, returning the
// status and the body.
func tuneResultBody(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/tune/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestTuneResultSurvivesRestart: a finished tune job's outcome is its
// file, so a journal-backed restart serves the same result body.
func TestTuneResultSurvivesRestart(t *testing.T) {
	opts := Options{Workers: 1, QueueDepth: 4, DataDir: t.TempDir(), JournalDir: t.TempDir(),
		Logger: log.New(io.Discard, "", 0)}
	s1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	spec := smallTuneSpec()
	spec.InitialExperiments = 40
	c, err := s1.mgr.SubmitTune(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, ts1, c.ID, StateDone, 2*time.Minute)
	code, want := tuneResultBody(t, ts1, c.ID)
	ts1.Close()
	s1.Close()
	if code != http.StatusOK {
		t.Fatalf("result before the restart returned %d: %s", code, want)
	}

	_, ts2 := newTestServer(t, opts)
	waitForState(t, ts2, c.ID, StateDone, time.Second)
	if code, got := tuneResultBody(t, ts2, c.ID); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("result after the restart returned %d: %s\nwant the body served before it:\n%s", code, got, want)
	}
}

// TestTuneAdmissionRace submits tune jobs back to back to a one-worker
// manager, so a runner may pick a job up, and rewrite its total from
// the search's progress, while its submission is still being
// admitted. Every journaled total and every quota charge must be the
// job's planned evaluations; CI runs it under -race.
func TestTuneAdmissionRace(t *testing.T) {
	jnlDir := t.TempDir()
	m, err := NewManager(Options{Workers: 1, QueueDepth: 8, JournalDir: jnlDir, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := smallTuneSpec()
	want := spec.PlannedEvaluations()
	var jobs []*Campaign
	for round := 0; round < 5; round++ {
		// The first job of a round reaches an idle runner.
		for i := 0; i < 2; i++ {
			c, err := m.SubmitTune(spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, c)
		}
		for _, c := range jobs[len(jobs)-2:] {
			select {
			case <-c.Done():
			case <-time.After(2 * time.Minute):
				t.Fatalf("tune job %s did not finish", c.ID)
			}
		}
	}
	m.mu.Lock()
	for _, c := range jobs {
		if c.usageN != want {
			t.Errorf("job %s charged %d experiments, want %d", c.ID, c.usageN, want)
		}
	}
	m.mu.Unlock()

	entries, err := jsonl.Load[journal.Entry](filepath.Join(jnlDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	submitted := 0
	for _, e := range entries {
		if e.Type == journal.EventSubmitted {
			submitted++
			if e.Total != want {
				t.Errorf("job %s journaled total %d, want %d", e.Job, e.Total, want)
			}
		}
	}
	if submitted != len(jobs) {
		t.Errorf("%d submissions journaled, want %d", submitted, len(jobs))
	}
}

func TestServerTuneSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	for name, body := range map[string]string{
		"garbage":       "{",
		"unknown field": `{"bogus": true}`,
		"bad policy":    `{"space": {"policies": ["explode"]}}`,
		"bad rounds":    `{"rounds": 99}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/tune", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestServerTuneResultOnPlainCampaign(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	v := submit(t, ts, `{"variant":"alg1","n":2,"seed":1}`)
	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur View
		getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID, &cur)
		if cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code := getJSON(t, ts.URL+"/api/v1/tune/"+v.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("tune result on a plain campaign returned %d, want conflict", code)
	}
}
