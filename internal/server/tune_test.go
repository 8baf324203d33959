package server

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctrlguard/internal/tune"
)

// TestServerTuneJobLifecycle drives a design-space tuning job through
// the HTTP API end to end: submit → progress events → outcome, with
// the per-candidate results persisted like campaign records.
func TestServerTuneJobLifecycle(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, DataDir: dataDir})

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
	saved, err := tune.LoadResults(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != len(outcome.Results) {
		t.Errorf("persisted %d results, outcome has %d", len(saved), len(outcome.Results))
	}

	// The report endpoint stays a campaign-only feature.
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/report", nil); code != http.StatusConflict {
		t.Errorf("report on a tune job returned %d, want conflict", code)
	}

	// The in-process accessor serves the same outcome.
	c, err := s.mgr.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c.Outcome() == nil || c.Outcome().Recommended == nil {
		t.Error("Campaign.Outcome missing the finished search")
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
