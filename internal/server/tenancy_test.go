package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/tenant"
)

// The overload suite drives the multi-tenant admission layer through
// the full HTTP stack: API keys, rate limits, quotas, shedding,
// fair-share scheduling under saturation, memoization, retention, and
// the journal-backed restart that must not lose a byte of quota
// accounting. CI runs it under -race.

// postSpec submits a campaign spec with an optional API key and
// returns the response (body pre-read, so the connection is closed).
func postSpec(t *testing.T, ts *httptest.Server, key, spec string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/campaigns", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	// Admission must answer immediately, overloaded or not: a blocked
	// submission is itself a test failure.
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("submission blocked or failed: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// submitKey is postSpec asserting 202 and decoding the View.
func submitKey(t *testing.T, ts *httptest.Server, key, spec string) View {
	t.Helper()
	resp, body := postSpec(t, ts, key, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad submit response %q: %v", body, err)
	}
	return v
}

func TestTenantAuthRequired(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Tenants: []tenant.Tenant{
		{Name: "acme", Key: "acme-key"},
	}})
	if resp, _ := postSpec(t, ts, "", `{"variant":"alg1","n":5,"seed":1}`); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("missing key accepted: %d", resp.StatusCode)
	}
	if resp, _ := postSpec(t, ts, "wrong", `{"variant":"alg1","n":5,"seed":1}`); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key accepted: %d", resp.StatusCode)
	}
	v := submitKey(t, ts, "acme-key", `{"variant":"alg1","n":5,"seed":1}`)
	if v.Tenant != "acme" {
		t.Fatalf("job attributed to %q, want acme", v.Tenant)
	}
	waitForState(t, ts, v.ID, StateDone, time.Minute)
}

func TestTenantRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8, Tenants: []tenant.Tenant{
		{Name: "slow", Key: "slow-key", RatePerSec: 0.2, Burst: 1},
	}})
	if resp, body := postSpec(t, ts, "slow-key", `{"variant":"alg1","n":5,"seed":1}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit rejected: %d %s", resp.StatusCode, body)
	}
	resp, body := postSpec(t, ts, "slow-key", `{"variant":"alg1","n":5,"seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit returned %d (%s), want 429", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := time.ParseDuration(ra + "s"); err != nil || secs < time.Second {
		t.Fatalf("429 Retry-After = %q, want the whole-second token wait", ra)
	}
}

func TestTenantQuotaOutstandingJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 8,
		ConfigHook: slowHook(3 * time.Millisecond),
		Tenants: []tenant.Tenant{
			{Name: "capped", Key: "cap-key", MaxQueuedJobs: 1},
		},
	})
	v := submitKey(t, ts, "cap-key", `{"variant":"alg1","n":400,"seed":1,"workers":1}`)
	resp, body := postSpec(t, ts, "cap-key", `{"variant":"alg1","n":5,"seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "quota") {
		t.Fatalf("over-quota submit returned %d (%s), want 429 quota", resp.StatusCode, body)
	}
	// Quotas count outstanding (queued + running) work and clear only
	// when the job reaches a terminal state.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/campaigns/"+v.ID, nil)
	if dresp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		dresp.Body.Close()
	}
	deadline := time.Now().Add(time.Minute)
	for {
		resp, _ := postSpec(t, ts, "cap-key", `{"variant":"alg1","n":5,"seed":3}`)
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("quota never released after cancelling the outstanding job")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTenantQuotaOutstandingExperiments(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 8,
		ConfigHook: slowHook(3 * time.Millisecond),
		Tenants: []tenant.Tenant{
			{Name: "capped", Key: "cap-key", MaxQueuedExperiments: 100},
		},
	})
	submitKey(t, ts, "cap-key", `{"variant":"alg1","n":80,"seed":1,"workers":1}`)
	resp, body := postSpec(t, ts, "cap-key", `{"variant":"alg1","n":30,"seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "quota") {
		t.Fatalf("over-quota submit returned %d (%s), want 429 quota", resp.StatusCode, body)
	}
	// A job that still fits goes through.
	if resp, body := postSpec(t, ts, "cap-key", `{"variant":"alg1","n":20,"seed":3}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("within-quota submit rejected: %d %s", resp.StatusCode, body)
	}
}

// TestTenantQuotaPrecisionDefaultBudget: a precision-driven
// submission is charged its experiment budget, the default one when
// maxExperiments is unset, so a quota below that budget refuses it.
func TestTenantQuotaPrecisionDefaultBudget(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 8,
		Tenants: []tenant.Tenant{
			{Name: "capped", Key: "cap-key", MaxQueuedExperiments: goofi.DefaultMaxExperiments - 1},
		},
	})
	resp, body := postSpec(t, ts, "cap-key", `{"variant":"alg1","precision":0.01,"seed":1}`)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "quota") {
		t.Fatalf("default-budget precision submit returned %d (%s), want 429 quota", resp.StatusCode, body)
	}
	if v := submitKey(t, ts, "cap-key", `{"variant":"alg1","precision":0.01,"maxExperiments":100,"seed":1}`); v.Total != 100 {
		t.Fatalf("explicit-budget precision campaign total = %d, want 100", v.Total)
	}
}

func TestQueueOverloadSheds503(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 2,
		ConfigHook: slowHook(3 * time.Millisecond),
	})
	// One running plus two queued fills the house.
	for i := 0; i < 3; i++ {
		submitKey(t, ts, "", `{"variant":"alg1","n":200,"seed":`+itoa(i+1)+`,"workers":1}`)
	}
	resp, body := postSpec(t, ts, "", `{"variant":"alg1","n":5,"seed":9}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit returned %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	if shed := metricsMap(t, ts)["requests_shed"]; shed != 1 {
		t.Fatalf("requests_shed = %v, want 1", shed)
	}
}

// TestOverloadFairShare saturates one worker with three tenants of
// weights 1:2:3 and requires completions in weight proportion: over
// the first 12 completions bronze:silver:gold must be 2:4:6 within
// one job of tolerance.
func TestOverloadFairShare(t *testing.T) {
	tenants := []tenant.Tenant{
		{Name: "bronze", Key: "kb", Weight: 1},
		{Name: "silver", Key: "ks", Weight: 2},
		{Name: "gold", Key: "kg", Weight: 3},
	}
	s, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 64,
		ConfigHook: slowHook(2 * time.Millisecond),
		Tenants:    tenants,
	})
	const perTenant = 10
	var ids []string
	for i := 0; i < perTenant; i++ {
		for _, key := range []string{"kg", "ks", "kb"} {
			v := submitKey(t, ts, key, `{"variant":"alg1","n":20,"seed":`+itoa(i)+`,"workers":1}`)
			ids = append(ids, v.ID)
		}
	}
	for _, id := range ids {
		waitForState(t, ts, id, StateDone, 2*time.Minute)
	}

	// Reconstruct the completion order from finish timestamps.
	type finished struct {
		tenant string
		at     time.Time
	}
	var order []finished
	for _, c := range s.mgr.List() {
		v := c.Snapshot()
		if v.State == StateDone && v.Finished != nil {
			order = append(order, finished{v.Tenant, *v.Finished})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].at.Before(order[j].at) })
	if len(order) != 3*perTenant {
		t.Fatalf("%d campaigns finished, want %d", len(order), 3*perTenant)
	}
	counts := map[string]int{}
	for _, f := range order[:12] {
		counts[f.tenant]++
	}
	want := map[string]int{"bronze": 2, "silver": 4, "gold": 6}
	for name, w := range want {
		if got := counts[name]; got < w-1 || got > w+1 {
			t.Errorf("over the first 12 completions %s finished %d jobs, want %d±1 (all: %v)", name, got, w, counts)
		}
	}
	if !(counts["gold"] > counts["silver"] && counts["silver"] > counts["bronze"]) {
		t.Errorf("completion shares not ordered by weight: %v", counts)
	}
}

// TestUsageAccountingSurvivesRestart crashes a loaded server and
// requires the journal replay to reconstruct per-tenant quota
// accounting byte-for-byte.
func TestUsageAccountingSurvivesRestart(t *testing.T) {
	tenants := []tenant.Tenant{
		{Name: "acme", Key: "ka"},
		{Name: "beta", Key: "kb2"},
	}
	dataDir, journalDir := t.TempDir(), t.TempDir()
	cfg := Options{
		Workers: 1, QueueDepth: 8,
		DataDir: dataDir, JournalDir: journalDir,
		ConfigHook: slowHook(5 * time.Millisecond),
		Tenants:    tenants,
	}
	s1, ts1 := newTestServer(t, cfg)
	running := submitKey(t, ts1, "ka", `{"variant":"alg1","n":400,"seed":1,"workers":1}`)
	waitForProgress(t, ts1, running.ID, 5)
	submitKey(t, ts1, "ka", `{"variant":"alg1","n":50,"seed":2}`)
	submitKey(t, ts1, "kb2", `{"variant":"alg1","n":30,"seed":3}`)

	before, err := json.Marshal(s1.mgr.UsageSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	s1.mgr.kill() // the process vanishes with all three jobs outstanding

	s2, _ := newTestServer(t, cfg)
	after, err := json.Marshal(s2.mgr.UsageSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("usage accounting diverged across restart:\n before %s\n after  %s", before, after)
	}
}

// strconv renders a small non-negative int without importing strconv
// into the JSON-building hot path of the soak loop.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestMemoizationServesDuplicates(t *testing.T) {
	dataDir, cacheDir := t.TempDir(), t.TempDir()
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 4,
		DataDir: dataDir, CacheDir: cacheDir,
	})
	const spec = `{"variant":"alg1","n":120,"seed":42}`
	v1 := submit(t, ts, spec)
	waitForState(t, ts, v1.ID, StateDone, time.Minute)
	want, err := os.ReadFile(filepath.Join(dataDir, v1.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	v2 := submit(t, ts, spec)
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("duplicate spec not served from cache: state %s, cacheHit %v", v2.State, v2.CacheHit)
	}
	if v2.ID == v1.ID {
		t.Fatal("cache hit reused the original job ID")
	}
	got, err := os.ReadFile(filepath.Join(dataDir, v2.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("memoized record file differs from the original run (%d vs %d bytes)", len(got), len(want))
	}
	if mm := metricsMap(t, ts); mm["cache_hits"] != 1 || mm["cache_misses"] != 1 {
		t.Fatalf("cache_hits = %v, cache_misses = %v, want 1 and 1", mm["cache_hits"], mm["cache_misses"])
	}
	// A different seed is a different content address.
	v3 := submit(t, ts, `{"variant":"alg1","n":120,"seed":43}`)
	if v3.CacheHit {
		t.Fatal("distinct spec wrongly served from cache")
	}
}

// TestMemoizationPrecisionCampaign: a precision-driven campaign is
// deterministic for its spec, so an identical resubmission is served
// from the cache, byte-identical; another budget is another address.
func TestMemoizationPrecisionCampaign(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 4,
		DataDir: dataDir, CacheDir: t.TempDir(),
	})
	const spec = `{"variant":"alg1","precision":0.000001,"maxExperiments":600,"seed":42}`
	v1 := submit(t, ts, spec)
	waitForState(t, ts, v1.ID, StateDone, time.Minute)
	want, err := os.ReadFile(filepath.Join(dataDir, v1.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	v2 := submit(t, ts, spec)
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("duplicate precision spec not served from cache: state %s, cacheHit %v", v2.State, v2.CacheHit)
	}
	got, err := os.ReadFile(filepath.Join(dataDir, v2.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("memoized precision record file differs from the original run (%d vs %d bytes)", len(got), len(want))
	}
	if v3 := submit(t, ts, `{"variant":"alg1","precision":0.000001,"maxExperiments":500,"seed":42}`); v3.CacheHit {
		t.Fatal("precision spec with another budget wrongly served from cache")
	}
}

// TestMemoizationKeysPinned pins the content addresses of fixed-count
// specs, detector-armed included: the precision fields of the memo
// projection must not re-key any existing cache entry.
func TestMemoizationKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		spec goofi.CampaignSpec
		want string
	}{
		{goofi.CampaignSpec{Alg: 1, Experiments: 300, Seed: 2001},
			"e4a65c0dfda70eab86530180e2846687e509497209ff02a4f79cec39e990b2b6"},
		{goofi.CampaignSpec{Variant: "alg2", Experiments: 150, Seed: 9, Detector: "cfe+automaton"},
			"f17e910683fc3dcc7e332e8d6474978b9bd35e40eed6f92bcc20beb61e8e6c71"},
	} {
		got, err := memoKey(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("memoKey(%+v) = %s, want %s", tc.spec, got, tc.want)
		}
	}
	// Every spelling of one model or detector selection shares a key.
	for _, same := range [][]goofi.CampaignSpec{
		{{Alg: 1, Experiments: 300, Seed: 2001}, {Alg: 1, Experiments: 300, Seed: 2001, Model: "bitflip"},
			{Alg: 1, Experiments: 300, Seed: 2001, Model: " BitFlip"}},
		{{Variant: "alg2", Experiments: 150, Seed: 9, Detector: "cfe+automaton"},
			{Variant: "alg2", Experiments: 150, Seed: 9, Detector: "automaton+cfe"},
			{Variant: "alg2", Experiments: 150, Seed: 9, Detector: "CFE + automaton"}},
		{{Alg: 1, Experiments: 300, Seed: 2001}, {Alg: 1, Experiments: 300, Seed: 2001, Detector: "none"}},
	} {
		want, _ := memoKey(same[0])
		for _, s := range same[1:] {
			if got, err := memoKey(s); err != nil || got != want {
				t.Errorf("memoKey(%+v) = %s, %v; want %s, the key of %+v", s, got, err, want, same[0])
			}
		}
	}
	// A precision spec's key ignores n and resolves the default budget.
	a, _ := memoKey(goofi.CampaignSpec{Alg: 1, Seed: 5, Precision: 0.01, Experiments: 77})
	b, _ := memoKey(goofi.CampaignSpec{Alg: 1, Seed: 5, Precision: 0.01, MaxExperiments: goofi.DefaultMaxExperiments})
	if a != b {
		t.Errorf("precision keys differ by n or budget spelling: %s vs %s", a, b)
	}
}

func TestMemoizationTenantOptOut(t *testing.T) {
	dataDir, cacheDir := t.TempDir(), t.TempDir()
	_, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 4,
		DataDir: dataDir, CacheDir: cacheDir,
		Tenants: []tenant.Tenant{
			{Name: "cached", Key: "kc"},
			{Name: "fresh", Key: "kf", NoCache: true},
		},
	})
	const spec = `{"variant":"alg1","n":60,"seed":7}`
	v1 := submitKey(t, ts, "kf", spec)
	if v1.CacheHit {
		t.Fatal("first run cannot be a cache hit")
	}
	waitForState(t, ts, v1.ID, StateDone, time.Minute)

	// The opted-out tenant always runs fresh...
	v2 := submitKey(t, ts, "kf", spec)
	if v2.CacheHit || v2.State == StateDone {
		t.Fatalf("NoCache tenant served from cache: state %s, cacheHit %v", v2.State, v2.CacheHit)
	}
	waitForState(t, ts, v2.ID, StateDone, time.Minute)

	// ...but its completed runs still seed the shared store.
	v3 := submitKey(t, ts, "kc", spec)
	if !v3.CacheHit {
		t.Fatal("cached tenant missed a result the NoCache tenant already produced")
	}
}

func TestRetentionSweep(t *testing.T) {
	dataDir, journalDir := t.TempDir(), t.TempDir()
	cfg := Options{
		Workers: 1, QueueDepth: 4,
		DataDir: dataDir, JournalDir: journalDir,
		RetainAge: 30 * time.Minute,
	}
	s, ts := newTestServer(t, cfg)
	v := submit(t, ts, `{"variant":"alg1","n":40,"seed":5}`)
	waitForState(t, ts, v.ID, StateDone, time.Minute)
	path := filepath.Join(dataDir, v.ID+".jsonl")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("record file missing before sweep: %v", err)
	}
	if view, total := recordCounts(t, ts, v.ID); view != 40 || total != 40 {
		t.Fatalf("before the sweep: view counts %d records, /records %d, want 40", view, total)
	}

	if n := s.mgr.retentionSweep(time.Now()); n != 0 {
		t.Fatalf("young campaign reclaimed: %d deletions", n)
	}
	if n := s.mgr.retentionSweep(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("aged campaign not reclaimed: %d deletions", n)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("record file survived the sweep")
	}
	var view View
	getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID, &view)
	if view.RecordsPath != "" {
		t.Fatalf("swept campaign still advertises records at %q", view.RecordsPath)
	}
	// The sweep reclaims the in-memory copy too, so the campaign answers
	// as it will after a restart, when only the (deleted) file could
	// serve it.
	if view, total := recordCounts(t, ts, v.ID); view != 0 || total != 0 {
		t.Fatalf("after the sweep: view counts %d records, /records %d, want 0", view, total)
	}
	ts.Close()
	s.Close()
	_, ts2 := newTestServer(t, cfg)
	if view, total := recordCounts(t, ts2, v.ID); view != 0 || total != 0 {
		t.Fatalf("after a restart: view counts %d records, /records %d, want 0", view, total)
	}
}

// recordCounts returns campaign id's record count as its view reports
// it and as the /records endpoint totals it.
func recordCounts(t *testing.T, ts *httptest.Server, id string) (view, total int) {
	t.Helper()
	var v View
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+id, &v); code != http.StatusOK {
		t.Fatalf("campaign view returned %d", code)
	}
	var page struct {
		Total int `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+id+"/records?limit=1", &page); code != http.StatusOK {
		t.Fatalf("records page returned %d", code)
	}
	return v.Records, page.Total
}

// TestRestoredViewCountsRecords: a finished campaign restored after a
// graceful restart serves its records from the file alone, and its
// view counts exactly the records /records serves.
func TestRestoredViewCountsRecords(t *testing.T) {
	dataDir, journalDir := t.TempDir(), t.TempDir()
	cfg := Options{Workers: 1, QueueDepth: 4, DataDir: dataDir, JournalDir: journalDir}
	s1, ts1 := newTestServer(t, cfg)
	v := submit(t, ts1, `{"variant":"alg1","n":150,"seed":9}`)
	waitForState(t, ts1, v.ID, StateDone, time.Minute)
	if view, total := recordCounts(t, ts1, v.ID); view != 150 || total != 150 {
		t.Fatalf("before the restart: view counts %d records, /records %d, want 150", view, total)
	}
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, cfg)
	if view, total := recordCounts(t, ts2, v.ID); view != 150 || total != 150 {
		t.Fatalf("after the restart: view counts %d records, /records %d, want 150", view, total)
	}
}

func TestRetentionByteBudget(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 4,
		DataDir:     dataDir,
		RetainBytes: 1, // every terminal record file is over budget
	})
	a := submit(t, ts, `{"variant":"alg1","n":30,"seed":1}`)
	waitForState(t, ts, a.ID, StateDone, time.Minute)
	b := submit(t, ts, `{"variant":"alg1","n":30,"seed":2}`)
	waitForState(t, ts, b.ID, StateDone, time.Minute)

	if n := s.mgr.retentionSweep(time.Now()); n != 2 {
		t.Fatalf("byte budget reclaimed %d campaigns, want 2", n)
	}
	for _, id := range []string{a.ID, b.ID} {
		if _, err := os.Stat(filepath.Join(dataDir, id+".jsonl")); !os.IsNotExist(err) {
			t.Fatalf("record file %s survived the byte-budget sweep", id)
		}
	}
}

// TestRecordPageStreams restarts a server so the finished campaign's
// records live only on disk, then pages through them without the
// server ever materializing the full set.
func TestRecordPageStreams(t *testing.T) {
	dataDir, journalDir := t.TempDir(), t.TempDir()
	cfg := Options{Workers: 1, QueueDepth: 4, DataDir: dataDir, JournalDir: journalDir}
	s1, ts1 := newTestServer(t, cfg)
	v := submit(t, ts1, `{"variant":"alg1","n":150,"seed":9}`)
	waitForState(t, ts1, v.ID, StateDone, time.Minute)
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, cfg)
	var page struct {
		Total   int             `json:"total"`
		Count   int             `json:"count"`
		Records json.RawMessage `json:"records"`
	}
	for _, tc := range []struct{ offset, limit, wantCount int }{
		{0, 100, 100},
		{100, 100, 50},
		{140, 25, 10},
		{150, 10, 0},
	} {
		url := ts2.URL + "/api/v1/campaigns/" + v.ID + "/records?offset=" + itoa(tc.offset) + "&limit=" + itoa(tc.limit)
		if code := getJSON(t, url, &page); code != http.StatusOK {
			t.Fatalf("records page returned %d", code)
		}
		if page.Total != 150 || page.Count != tc.wantCount {
			t.Fatalf("offset %d limit %d: total %d count %d, want total 150 count %d",
				tc.offset, tc.limit, page.Total, page.Count, tc.wantCount)
		}
	}
}
