package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctrlguard/internal/dist"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
)

// The chaos suite turns the paper's discipline on the harness itself:
// kill the campaign engine mid-run, sever its record file mid-write,
// crash its workers mid-experiment — and demand the same answer an
// undisturbed run produces. These tests exercise the full server stack
// (HTTP submit, journal write-through, incremental persistence,
// restart recovery) and are also run under -race in CI.

const chaosSpec = `{"variant":"alg1","n":150,"seed":77,"workers":2}`

// slowHook stretches every experiment by a few milliseconds so a test
// can reliably interrupt a campaign mid-flight. The delay rides the
// goofi chaos hook but injects no faults, so records are unchanged.
func slowHook(d time.Duration) func(*goofi.Config) {
	return func(cfg *goofi.Config) {
		cfg.Chaos = func(id, attempt int) { time.Sleep(d) }
	}
}

// waitForProgress polls until the campaign has completed at least min
// experiments (and is still running), so a kill lands mid-campaign.
func waitForProgress(t *testing.T, ts *httptest.Server, id string, min int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var v View
		getJSON(t, ts.URL+"/api/v1/campaigns/"+id, &v)
		if v.State.Terminal() {
			t.Fatalf("campaign %s finished (%s) before it could be interrupted", id, v.State)
		}
		if v.Done >= min {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %d done", id, min)
}

// metricsMap fetches /metrics and flattens the numeric fields.
func metricsMap(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// cleanRecordFile runs the chaos spec to completion on an undisturbed
// server and returns the bytes of its persisted record file — the
// ground truth every recovery scenario must reproduce exactly.
func cleanRecordFile(t *testing.T) []byte {
	t.Helper()
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, DataDir: dataDir})
	v := submit(t, ts, chaosSpec)
	waitForState(t, ts, v.ID, StateDone, 2*time.Minute)
	b, err := os.ReadFile(filepath.Join(dataDir, v.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChaosCrashRestartResume is the headline recovery scenario:
// SIGKILL (simulated) lands mid-campaign, the server restarts on the
// same journal and data directory, re-enqueues the interrupted
// campaign, resumes it from the salvaged records, and the final record
// file is byte-identical to an uninterrupted run's.
func TestChaosCrashRestartResume(t *testing.T) {
	want := cleanRecordFile(t)
	dataDir, journalDir := t.TempDir(), t.TempDir()
	before := func() map[string]float64 {
		_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
		return metricsMap(t, ts)
	}()

	s1, ts1 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir,
		ConfigHook: slowHook(3 * time.Millisecond),
	})
	v := submit(t, ts1, chaosSpec)
	waitForProgress(t, ts1, v.ID, 25)
	s1.mgr.kill() // the process vanishes: no terminal journaling, no final rewrite

	// The shard segments survive with a partial prefix (salvage
	// tolerates a torn tail).
	partial, err := dist.LoadSegments(filepath.Join(dataDir, v.ID+".shards"))
	if err != nil {
		t.Fatalf("post-crash segments unreadable: %v", err)
	}
	if len(partial) == 0 || len(partial) >= 150 {
		t.Fatalf("post-crash store has %d records, want a strict partial prefix", len(partial))
	}

	// Restart on the same state. The journal replay must re-enqueue the
	// campaign and resume it to completion.
	_, ts2 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir,
	})
	var restored View
	if code := getJSON(t, ts2.URL+"/api/v1/campaigns/"+v.ID, &restored); code != http.StatusOK {
		t.Fatalf("restarted server lost campaign %s (status %d)", v.ID, code)
	}
	if !restored.Resumed {
		t.Errorf("restored campaign not flagged resumed: %+v", restored)
	}
	waitForState(t, ts2, v.ID, StateDone, 2*time.Minute)

	var final View
	getJSON(t, ts2.URL+"/api/v1/campaigns/"+v.ID, &final)
	if final.Done != 150 || final.Records != 150 {
		t.Errorf("resumed campaign finished %d done / %d records, want 150", final.Done, final.Records)
	}
	if final.Faults.Resumed == 0 {
		t.Errorf("resumed campaign reports zero reused experiments: %+v", final.Faults)
	}
	got, err := os.ReadFile(filepath.Join(dataDir, v.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("final record file differs from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	if _, err := os.Stat(filepath.Join(dataDir, v.ID+".shards")); !os.IsNotExist(err) {
		t.Errorf("record segments not cleaned up after completion")
	}

	after := metricsMap(t, ts2)
	if after["campaigns_resumed"] <= before["campaigns_resumed"] {
		t.Errorf("campaigns_resumed did not advance: %v -> %v",
			before["campaigns_resumed"], after["campaigns_resumed"])
	}
	if after["experiments_resumed"] <= before["experiments_resumed"] {
		t.Errorf("experiments_resumed did not advance: %v -> %v",
			before["experiments_resumed"], after["experiments_resumed"])
	}
}

// TestChaosJournalReplaysRemovedFastPathFields: a journal written while
// campaign specs still carried the fast-path knobs replays after they
// were removed. The lenient replay decoder drops the unknown fields, and
// the campaign resumes to the same bytes as a clean run.
func TestChaosJournalReplaysRemovedFastPathFields(t *testing.T) {
	want := cleanRecordFile(t)
	dataDir, journalDir := t.TempDir(), t.TempDir()
	jnl, _, err := journal.Open(filepath.Join(journalDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	const id = "c000001"
	old := strings.TrimSuffix(chaosSpec, "}") + `,"disableLockstep":true,"lockstepK":8}`
	if err := jnl.Append(journal.Entry{
		Job: id, Type: journal.EventSubmitted, Kind: string(KindCampaign),
		State: string(StateQueued), Total: 150, Spec: json.RawMessage(old),
	}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir})
	waitForState(t, ts, id, StateDone, 2*time.Minute)
	got, err := os.ReadFile(filepath.Join(dataDir, id+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("replayed campaign's record file differs from a clean run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosGracefulShutdownInterrupts is the SIGTERM path: a graceful
// Close marks the running campaign interrupted (not failed, not
// cancelled) so the journal keeps it alive, and a restart finishes it.
func TestChaosGracefulShutdownInterrupts(t *testing.T) {
	want := cleanRecordFile(t)
	dataDir, journalDir := t.TempDir(), t.TempDir()

	s1, ts1 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir,
		ConfigHook: slowHook(3 * time.Millisecond),
	})
	v := submit(t, ts1, chaosSpec)
	waitForProgress(t, ts1, v.ID, 10)
	s1.Close() // graceful: campaign journaled as interrupted

	c, err := s1.mgr.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Snapshot().State; st != StateInterrupted {
		t.Fatalf("after graceful shutdown campaign is %s, want %s", st, StateInterrupted)
	}

	_, ts2 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir,
	})
	waitForState(t, ts2, v.ID, StateDone, 2*time.Minute)
	got, err := os.ReadFile(filepath.Join(dataDir, v.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("record file after interrupt+resume differs from clean run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosNoResumeParksInterrupted: with NoResume, a restart replays
// the journal (the job stays visible) but parks the interrupted
// campaign instead of re-running it.
func TestChaosNoResumeParksInterrupted(t *testing.T) {
	dataDir, journalDir := t.TempDir(), t.TempDir()
	s1, ts1 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir,
		ConfigHook: slowHook(3 * time.Millisecond),
	})
	v := submit(t, ts1, chaosSpec)
	waitForProgress(t, ts1, v.ID, 10)
	s1.mgr.kill()

	_, ts2 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir, NoResume: true,
	})
	var parked View
	if code := getJSON(t, ts2.URL+"/api/v1/campaigns/"+v.ID, &parked); code != http.StatusOK {
		t.Fatalf("no-resume server lost campaign %s (status %d)", v.ID, code)
	}
	if parked.State != StateInterrupted {
		t.Errorf("no-resume restart left campaign %s, want %s", parked.State, StateInterrupted)
	}
}

// TestChaosResumeDropsTornTail drives the TruncatedError path through
// the whole server: the crash leaves half a JSON line at the end of the
// record file, and recovery must drop exactly that torn tail, re-run
// the lost experiment, and still converge to the clean result.
func TestChaosResumeDropsTornTail(t *testing.T) {
	want := cleanRecordFile(t)
	dataDir, journalDir := t.TempDir(), t.TempDir()

	s1, ts1 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir,
		ConfigHook: slowHook(3 * time.Millisecond),
	})
	v := submit(t, ts1, chaosSpec)
	waitForProgress(t, ts1, v.ID, 25)
	s1.mgr.kill()

	// The crash tore the final record of the campaign's one shard
	// segment in half.
	f, err := os.OpenFile(dist.SegmentPath(filepath.Join(dataDir, v.ID+".shards"), 0), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"id":9999,"variant":"alg1","reg`)
	f.Close()
	path := filepath.Join(dataDir, v.ID+".jsonl")

	_, ts2 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir,
	})
	waitForState(t, ts2, v.ID, StateDone, 2*time.Minute)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("record file after torn-tail recovery differs from clean run (%d vs %d bytes)", len(got), len(want))
	}
	recs, err := goofi.LoadRecords(path)
	if err != nil {
		t.Fatalf("final record file not well-formed: %v", err)
	}
	if len(recs) != 150 {
		t.Fatalf("%d records after recovery, want 150", len(recs))
	}
}

// TestChaosGracefulDrainUnderLoad drains a loaded server: one campaign
// running and three queued when SIGTERM (Close) lands. The drain must
// interrupt all four — including the queued ones, which have done no
// work — never cancel or fail any of them, shed submissions that race
// the drain with 503, and a restart on the same journal must finish
// every one with the running campaign's records byte-identical to an
// undisturbed run's.
func TestChaosGracefulDrainUnderLoad(t *testing.T) {
	want := cleanRecordFile(t)
	dataDir, journalDir := t.TempDir(), t.TempDir()

	s1, ts1 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, DataDir: dataDir, JournalDir: journalDir,
		ConfigHook: slowHook(3 * time.Millisecond),
	})
	ids := []string{submit(t, ts1, chaosSpec).ID}
	waitForProgress(t, ts1, ids[0], 10)
	for seed := 1; seed <= 3; seed++ { // pile up behind the single worker
		ids = append(ids, submit(t, ts1, fmt.Sprintf(`{"variant":"alg1","n":30,"seed":%d}`, seed)).ID)
	}
	s1.Close()

	for _, id := range ids {
		c, err := s1.mgr.Get(id)
		if err != nil {
			t.Fatalf("drained server lost campaign %s: %v", id, err)
		}
		if st := c.Snapshot().State; st != StateInterrupted {
			t.Errorf("after drain campaign %s is %s, want %s", id, st, StateInterrupted)
		}
	}

	// A submission racing the drain is shed, not stranded in a queue
	// nobody will ever pop.
	resp, err := http.Post(ts1.URL+"/api/v1/campaigns", "application/json",
		strings.NewReader(`{"variant":"alg1","n":10,"seed":99}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain returned %d, want %d", resp.StatusCode, http.StatusServiceUnavailable)
	}

	// Restart resumes the whole backlog, running and queued alike.
	_, ts2 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, DataDir: dataDir, JournalDir: journalDir,
	})
	for _, id := range ids {
		waitForState(t, ts2, id, StateDone, 2*time.Minute)
	}
	got, err := os.ReadFile(filepath.Join(dataDir, ids[0]+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("record file after drain+resume differs from clean run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosWorkerFaultMetrics proves worker isolation end-to-end: every
// experiment's first attempt panics and one experiment panics forever,
// yet the campaign still finishes Done (never Failed), the abandoned
// experiment is a distinct outcome, and the retry/panic/abandon
// counters surface both on the campaign view and on /metrics.
func TestChaosWorkerFaultMetrics(t *testing.T) {
	const n, victim = 40, 13
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2,
		ConfigHook: func(cfg *goofi.Config) {
			cfg.RetryBackoff = time.Millisecond
			// The assertions below count exact per-experiment panics and
			// retries; pruning would skip some experiments entirely.
			cfg.Ablate = goofi.LayerPrune
			cfg.Chaos = func(id, attempt int) {
				if id == victim || attempt == 0 {
					panic("chaos: worker crash")
				}
			}
		},
	})
	before := metricsMap(t, ts)

	v := submit(t, ts, fmt.Sprintf(`{"variant":"alg1","n":%d,"seed":9,"workers":2}`, n))
	waitForTerminal(t, ts, v.ID, 2*time.Minute)

	var final View
	getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID, &final)
	if final.State != StateDone {
		t.Fatalf("campaign under worker chaos ended %s (%s), want %s", final.State, final.Error, StateDone)
	}
	// Everyone retries once; the victim burns its full retry budget.
	wantRetried := (n - 1) + goofi.DefaultExperimentRetries
	wantPanicked := (n - 1) + goofi.DefaultExperimentRetries + 1
	if final.Faults.Retried != wantRetried || final.Faults.Panicked != wantPanicked || final.Faults.Abandoned != 1 {
		t.Errorf("faults = %+v, want %d retried, %d panicked, 1 abandoned",
			final.Faults, wantRetried, wantPanicked)
	}
	if final.Outcomes[goofi.OutcomeAbandoned] != 1 {
		t.Errorf("outcomes = %v, want exactly 1 %q", final.Outcomes, goofi.OutcomeAbandoned)
	}
	if final.Done != n {
		t.Errorf("done = %d, want %d", final.Done, n)
	}

	after := metricsMap(t, ts)
	for metric, delta := range map[string]float64{
		"experiments_retried":   float64(wantRetried),
		"experiments_panicked":  float64(wantPanicked),
		"experiments_abandoned": 1,
	} {
		if got := after[metric] - before[metric]; got < delta {
			t.Errorf("%s advanced by %v, want at least %v", metric, got, delta)
		}
	}
}

// TestChaosSequentialResume: a precision-driven campaign killed
// mid-run resumes from its persisted records on restart — its batches
// own stable experiment IDs — and writes the same record file as an
// undisturbed run.
func TestChaosSequentialResume(t *testing.T) {
	const spec = `{"variant":"alg1","precision":0.000001,"maxExperiments":150,"seed":77,"workers":2}`
	cleanDir := t.TempDir()
	_, ts0 := newTestServer(t, Config{Workers: 1, QueueDepth: 2, DataDir: cleanDir})
	clean := submit(t, ts0, spec)
	waitForState(t, ts0, clean.ID, StateDone, 2*time.Minute)
	want, err := os.ReadFile(filepath.Join(cleanDir, clean.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	dataDir, journalDir := t.TempDir(), t.TempDir()
	s1, ts1 := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir,
		ConfigHook: slowHook(3 * time.Millisecond),
	})
	v := submit(t, ts1, spec)
	waitForProgress(t, ts1, v.ID, 25)
	s1.mgr.kill()

	_, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 2, DataDir: dataDir, JournalDir: journalDir})
	waitForState(t, ts2, v.ID, StateDone, 2*time.Minute)
	var final View
	getJSON(t, ts2.URL+"/api/v1/campaigns/"+v.ID, &final)
	if final.Faults.Resumed == 0 {
		t.Errorf("resumed sequential campaign reused no records: %+v", final.Faults)
	}
	got, err := os.ReadFile(filepath.Join(dataDir, v.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed sequential record file differs from a clean run (%d vs %d bytes)", len(got), len(want))
	}
}
