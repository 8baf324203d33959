package server

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ctrlguard/internal/dist"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
)

// ctrlexec is built once per test binary; distributed-campaign tests
// spawn it as their executor subprocess.
var (
	execBinOnce sync.Once
	execBinPath string
	execBinErr  error
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func ctrlexecBin(t *testing.T) string {
	t.Helper()
	execBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ctrlexec-server-test-")
		if err != nil {
			execBinErr = err
			return
		}
		execBinPath = filepath.Join(dir, "ctrlexec")
		out, err := exec.Command("go", "build", "-o", execBinPath, "ctrlguard/cmd/ctrlexec").CombinedOutput()
		if err != nil {
			execBinErr = fmt.Errorf("build ctrlexec: %v\n%s", err, out)
		}
	})
	if execBinErr != nil {
		t.Fatal(execBinErr)
	}
	return execBinPath
}

// soloRecordFile renders the record-file bytes a single-process run of
// spec produces — the bytes the distributed path must match exactly.
func soloRecordFile(t *testing.T, spec goofi.CampaignSpec) []byte {
	t.Helper()
	cfg, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := goofi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := goofi.WriteRecords(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// soloPrecisionFile renders the record-file bytes an in-process
// goofi.RunUntilPrecision run of a precision-driven spec produces.
func soloPrecisionFile(t *testing.T, spec goofi.CampaignSpec) []byte {
	t.Helper()
	cfg, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := goofi.RunUntilPrecision(goofi.PrecisionConfig{
		Campaign: cfg, TargetHalfWidth: spec.Precision, MaxExperiments: spec.MaxExperiments,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := goofi.WriteRecords(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitCampaignDone(t *testing.T, c *Campaign, timeout time.Duration) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(timeout):
		t.Fatalf("campaign %s did not finish within %v (state %s, %d/%d)",
			c.ID, timeout, c.Snapshot().State, c.Snapshot().Done, c.Snapshot().Total)
	}
	if st := c.Snapshot(); st.State != StateDone {
		t.Fatalf("campaign %s finished %s (%s), want done", c.ID, st.State, st.Error)
	}
}

// TestNewRejectsShardSizeOutOfRange: a shard size is 0 (the default)
// or a positive experiment count no larger than a campaign may be.
func TestNewRejectsShardSizeOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		size int
		ok   bool
	}{
		{-1, false},
		{0, true},
		{1, true},
		{goofi.ExperimentLimit, true},
		{goofi.ExperimentLimit + 1, false},
	} {
		s, err := New(Options{ShardSize: tc.size, Logger: quietLogger()})
		if err == nil {
			s.Close()
		}
		if ok := err == nil; ok != tc.ok {
			t.Errorf("New(ShardSize: %d): err = %v, want accepted=%v", tc.size, err, tc.ok)
		} else if !ok && !strings.Contains(err.Error(), "shard size") {
			t.Errorf("New(ShardSize: %d): err = %v, want it to name the shard size", tc.size, err)
		}
	}
}

// TestDistCampaignEndToEnd: a campaign sharded across two local
// ctrlexec subprocesses through the full server (HTTP submit, worker
// pool, coordinator, record persistence) must write the byte-identical
// record file a single-process server writes.
func TestDistCampaignEndToEnd(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 60, Seed: 41}
	want := soloRecordFile(t, spec)
	dataDir := t.TempDir()

	_, ts := newTestServer(t, Options{
		DataDir:    dataDir,
		JournalDir: t.TempDir(),
		Executors:  2,
		ExecBin:    ctrlexecBin(t),
		ShardSize:  25,
	})
	v := submit(t, ts, `{"variant":"alg1","n":60,"seed":41}`)
	waitForTerminal(t, ts, v.ID, 60*time.Second)

	var got View
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID, &got); code != http.StatusOK {
		t.Fatalf("GET campaign: %d", code)
	}
	if got.State != StateDone {
		t.Fatalf("state = %s (%s), want done", got.State, got.Error)
	}
	if got.Done != 60 || got.Records != 60 {
		t.Fatalf("done=%d records=%d, want 60/60", got.Done, got.Records)
	}

	onDisk, err := os.ReadFile(filepath.Join(dataDir, v.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatalf("distributed record file differs from solo run (%d vs %d bytes)", len(onDisk), len(want))
	}
	// The shard segments are working state, cleaned up on success.
	if _, err := os.Stat(filepath.Join(dataDir, v.ID+".shards")); !os.IsNotExist(err) {
		t.Fatalf("segment dir survived a successful campaign (err=%v)", err)
	}
	// Three shards completed; every lease ends completed or expired.
	mm := metricsMap(t, ts)
	if mm["shards_completed"] != 3 || mm["shards_leased"] != 3+mm["shards_expired"] {
		t.Fatalf("shard metrics: leased=%v completed=%v expired=%v, want 3 completed and leased = completed + expired",
			mm["shards_leased"], mm["shards_completed"], mm["shards_expired"])
	}
}

// TestDistChaosKillReLease at the server layer: one executor
// self-kills mid-shard (exit 137, indistinguishable from kill -9); the
// campaign must still finish with solo-identical bytes, and the lease
// lifecycle must be journaled.
func TestDistChaosKillReLease(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg2", Experiments: 60, Seed: 43}
	want := soloRecordFile(t, spec)
	dataDir := t.TempDir()
	jnlDir := t.TempDir()

	mgr, err := NewManager(Options{
		Workers:    1,
		QueueDepth: 4,
		DataDir:    dataDir,
		JournalDir: jnlDir,
		Logger:     quietLogger(),
		Executors:  2,
		ExecBin:    ctrlexecBin(t),
		ShardSize:  30,
		DistTaskHook: func(task *dist.ShardTask) {
			if task.Shard == 0 && task.Attempt == 0 {
				task.ChaosKillAfter = 3
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	c, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaignDone(t, c, 60*time.Second)

	onDisk, err := os.ReadFile(filepath.Join(dataDir, c.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatal("record file differs from solo run after mid-shard executor kill")
	}

	mgr.Close()
	_, entries, err := journal.Open(filepath.Join(jnlDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var expired, completed int
	for _, e := range entries {
		switch e.Type {
		case journal.EventShardExpired:
			expired++
		case journal.EventShardCompleted:
			completed++
		}
	}
	if expired < 1 {
		t.Fatalf("journal has %d shard-expired events, want >= 1", expired)
	}
	if completed != 2 {
		t.Fatalf("journal has %d shard-completed events, want 2", completed)
	}
}

// TestDistCrashRestartResume: the coordinator process "crashes"
// (test-only kill: no terminal journaling, exactly like SIGKILL) while
// one shard is complete and the other is wedged mid-shard. The
// restarted manager must replay the journal, skip the completed shard,
// resume the wedged one from its salvaged segment, and finish with
// solo-identical bytes.
func TestDistCrashRestartResume(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 60, Seed: 47}
	want := soloRecordFile(t, spec)
	dataDir := t.TempDir()
	jnlDir := t.TempDir()
	jnlPath := filepath.Join(jnlDir, "journal.wal")

	mgr1, err := NewManager(Options{
		Workers:    1,
		QueueDepth: 4,
		DataDir:    dataDir,
		JournalDir: jnlDir,
		Logger:     quietLogger(),
		Executors:  2,
		ExecBin:    ctrlexecBin(t),
		ShardSize:  30,
		LeaseTTL:   time.Minute, // the wedge must outlive phase one
		DistTaskHook: func(task *dist.ShardTask) {
			if task.Shard == 0 && task.Attempt == 0 {
				task.ChaosHangAfter = 2 // shard 0 stalls after 2 records
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until shard 1 (30 records) is done and journaled as completed
	// (its records stream before the completion entry is appended) and
	// shard 0 has streamed its 2 pre-wedge records, then crash the
	// coordinator.
	shard1Journaled := func() bool {
		f, err := os.Open(jnlPath)
		if err != nil {
			return false
		}
		defer f.Close()
		entries, _ := journal.ReadEntries(f) // a torn tail just means not yet
		for _, e := range entries {
			if e.Type == journal.EventShardCompleted && e.Shard != nil && *e.Shard == 1 {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if v := c1.Snapshot(); v.Done >= 32 && shard1Journaled() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never reached 32 records (at %d)", c1.Snapshot().Done)
		}
		time.Sleep(50 * time.Millisecond)
	}
	mgr1.kill()

	mgr2, err := NewManager(Options{
		Workers:    1,
		QueueDepth: 4,
		DataDir:    dataDir,
		JournalDir: jnlDir,
		Logger:     quietLogger(),
		Executors:  2,
		ExecBin:    ctrlexecBin(t),
		ShardSize:  30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()

	c2, err := mgr2.Get(c1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Snapshot().Resumed {
		t.Fatal("campaign not marked resumed after restart")
	}
	if done := c2.shardsDone; !done[1] || done[0] {
		t.Fatalf("replayed shardsDone = %v, want shard 1 only", done)
	}
	waitCampaignDone(t, c2, 60*time.Second)

	onDisk, err := os.ReadFile(filepath.Join(dataDir, c2.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatal("record file differs from solo run after coordinator crash and resume")
	}
}

// TestDistPrecisionCampaignMatchesInProcess: a precision-driven
// campaign runs batch by batch through the coordinator, each batch
// split into shards smaller than itself across two ctrlexec
// subprocesses, and writes the record file the in-process run writes.
func TestDistPrecisionCampaignMatchesInProcess(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Precision: 1e-6, MaxExperiments: 700, Seed: 61}
	want := soloPrecisionFile(t, spec)
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{
		DataDir:   dataDir,
		Executors: 2,
		ExecBin:   ctrlexecBin(t),
		ShardSize: 200,
	})
	v := submit(t, ts, `{"variant":"alg1","precision":0.000001,"maxExperiments":700,"seed":61}`)
	waitForState(t, ts, v.ID, StateDone, 2*time.Minute)
	var got View
	getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID, &got)
	if got.Done != 700 || got.Records != 700 {
		t.Fatalf("done=%d records=%d, want 700/700", got.Done, got.Records)
	}
	onDisk, err := os.ReadFile(filepath.Join(dataDir, v.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatalf("distributed precision record file differs from the in-process run (%d vs %d bytes)", len(onDisk), len(want))
	}
	if _, err := os.Stat(filepath.Join(dataDir, v.ID+".shards")); !os.IsNotExist(err) {
		t.Fatalf("segment dir survived a successful campaign (err=%v)", err)
	}
	// Batch 0 splits into three shards, batch 1 (200 experiments) is one.
	if mm := metricsMap(t, ts); mm["shards_completed"] != 4 || mm["shards_leased"] != 4+mm["shards_expired"] {
		t.Fatalf("shard metrics: leased=%v completed=%v expired=%v, want 4 completed and leased = completed + expired",
			mm["shards_leased"], mm["shards_completed"], mm["shards_expired"])
	}
}

// TestDistPrecisionCrashRestartResume: the coordinator crashes during
// the second batch of a distributed precision-driven campaign, with
// the first batch complete, one shard of the second complete and the
// other wedged mid-shard. The restarted manager resumes every batch
// from its segments and writes the in-process run's record file.
func TestDistPrecisionCrashRestartResume(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Precision: 1e-6, MaxExperiments: 1000, Seed: 67}
	want := soloPrecisionFile(t, spec)
	dataDir := t.TempDir()
	jnlDir := t.TempDir()
	opts := Options{
		Workers:    1,
		QueueDepth: 4,
		DataDir:    dataDir,
		JournalDir: jnlDir,
		Logger:     quietLogger(),
		Executors:  2,
		ExecBin:    ctrlexecBin(t),
		ShardSize:  250,
	}
	first := opts
	first.LeaseTTL = time.Minute // the wedge must outlive phase one
	first.DistTaskHook = func(task *dist.ShardTask) {
		if task.Spec.Seed == spec.Seed+1_000_003 && task.Shard == 0 && task.Attempt == 0 {
			task.ChaosHangAfter = 2 // batch 1, shard 0 stalls after 2 records
		}
	}
	mgr1, err := NewManager(first)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	const reached = goofi.DefaultBatchSize + 250 + 2
	deadline := time.Now().Add(2 * time.Minute)
	for c1.Snapshot().Done < reached {
		if time.Now().After(deadline) {
			t.Fatalf("campaign never reached %d records (at %d)", reached, c1.Snapshot().Done)
		}
		time.Sleep(50 * time.Millisecond)
	}
	mgr1.kill()

	mgr2, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	c2, err := mgr2.Get(c1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v := c2.Snapshot(); !v.Resumed || v.Total != 1000 {
		t.Fatalf("restored campaign resumed=%v total=%d, want a resumed campaign of budget 1000", v.Resumed, v.Total)
	}
	waitCampaignDone(t, c2, 2*time.Minute)
	if got := c2.Snapshot().Faults.Resumed; got < reached {
		t.Errorf("resumed %d records, want at least the %d persisted before the crash", got, reached)
	}
	onDisk, err := os.ReadFile(filepath.Join(dataDir, c2.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatal("precision record file differs from the in-process run after coordinator crash and resume")
	}
}

// TestRecordsPagination covers GET /campaigns/{id}/records.
func TestRecordsPagination(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	v := submit(t, ts, `{"variant":"alg1","n":25,"seed":53}`)
	waitForTerminal(t, ts, v.ID, 60*time.Second)

	type page struct {
		Campaign string         `json:"campaign"`
		Total    int            `json:"total"`
		Offset   int            `json:"offset"`
		Limit    int            `json:"limit"`
		Count    int            `json:"count"`
		Records  []goofi.Record `json:"records"`
	}
	base := ts.URL + "/api/v1/campaigns/" + v.ID + "/records"

	var p page
	if code := getJSON(t, base+"?limit=10", &p); code != http.StatusOK {
		t.Fatalf("page 1: %d", code)
	}
	if p.Total != 25 || p.Count != 10 || len(p.Records) != 10 || p.Records[0].ID != 0 {
		t.Fatalf("page 1 wrong: total=%d count=%d first=%v", p.Total, p.Count, p.Records[0].ID)
	}
	if code := getJSON(t, base+"?offset=20&limit=10", &p); code != http.StatusOK {
		t.Fatalf("last page: %d", code)
	}
	if p.Count != 5 || p.Records[0].ID != 20 {
		t.Fatalf("last page wrong: count=%d first=%d", p.Count, p.Records[0].ID)
	}
	if code := getJSON(t, base+"?offset=100", &p); code != http.StatusOK || p.Count != 0 {
		t.Fatalf("past-the-end page: code=%d count=%d, want 200 with 0", code, p.Count)
	}
	if code := getJSON(t, base, &p); code != http.StatusOK || p.Count != 25 {
		t.Fatalf("default page: code=%d count=%d, want all 25 under default limit", code, p.Count)
	}
	for _, bad := range []string{"?offset=-1", "?limit=0", "?limit=9999", "?offset=x"} {
		if code := getJSON(t, base+bad, nil); code != http.StatusBadRequest {
			t.Fatalf("GET records%s = %d, want 400", bad, code)
		}
	}
	if code := getJSON(t, ts.URL+"/api/v1/campaigns/nope/records", nil); code != http.StatusNotFound {
		t.Fatalf("unknown campaign: %d, want 404", code)
	}
}

// TestExecutorRegistryAPI covers executor registration, heartbeat
// upsert, listing, expiry, and deregistration.
func TestExecutorRegistryAPI(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/api/v1/executors", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"name":"w1","url":"http://worker1:9077"}`); code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	if code := post(`{"name":"w1","url":"http://worker1:9078"}`); code != http.StatusOK {
		t.Fatalf("heartbeat upsert: %d", code)
	}
	if code := post(`{"name":"","url":""}`); code != http.StatusBadRequest {
		t.Fatalf("empty registration: %d, want 400", code)
	}

	var list struct {
		Executors []execEntry `json:"executors"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/executors", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list.Executors) != 1 || list.Executors[0].URL != "http://worker1:9078" {
		t.Fatalf("list = %+v, want the upserted w1", list.Executors)
	}

	// Expiry: age the registration past the TTL and it vanishes.
	s.mgr.registry.mu.Lock()
	e := s.mgr.registry.m["w1"]
	e.Seen = e.Seen.Add(-2 * execTTL)
	s.mgr.registry.m["w1"] = e
	s.mgr.registry.mu.Unlock()
	if code := getJSON(t, ts.URL+"/api/v1/executors", &list); code != http.StatusOK || len(list.Executors) != 0 {
		t.Fatalf("expired executor still listed: %+v", list.Executors)
	}

	post(`{"name":"w2","url":"http://worker2:9077"}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/executors/w2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", resp.StatusCode)
	}
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", resp.StatusCode)
	}
}

// TestDistCampaignCachesAndReportsDetectors: a sharded campaign behaves
// like an in-process one beyond its record bytes — it seeds the result
// cache for duplicate submissions and reports the detector stats,
// false positives included, that a solo run reports.
func TestDistCampaignCachesAndReportsDetectors(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg2", Experiments: 40, Seed: 19, Detector: "cfe+automaton"}
	cfg, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := goofi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{
		DataDir:   t.TempDir(),
		CacheDir:  t.TempDir(),
		Executors: 2,
		ExecBin:   ctrlexecBin(t),
		ShardSize: 15,
	})
	const body = `{"variant":"alg2","n":40,"seed":19,"detector":"cfe+automaton"}`
	v := submit(t, ts, body)
	waitForState(t, ts, v.ID, StateDone, time.Minute)
	var got View
	getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID, &got)
	if got.Detect == nil || *got.Detect != *solo.Detect {
		t.Fatalf("distributed Detect = %+v, want the solo run's %+v", got.Detect, solo.Detect)
	}
	if dup := submit(t, ts, body); !dup.CacheHit || dup.State != StateDone {
		t.Fatalf("duplicate of a distributed campaign not served from cache: state %s, cacheHit %v", dup.State, dup.CacheHit)
	}
}
