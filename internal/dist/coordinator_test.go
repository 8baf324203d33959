package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// soloBytes runs the spec on the plain in-process engine and returns
// the canonical record-file bytes — the ground truth every distributed
// run must reproduce exactly.
func soloBytes(t *testing.T, spec goofi.CampaignSpec) []byte {
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

func distBytes(t *testing.T, res *goofi.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := goofi.WriteRecords(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shardJournal collects a run's shard journal entries: its counts of
// completed and expired leases are the run's scheduling counters.
type shardJournal struct {
	mu      sync.Mutex
	entries []journal.Entry
}

func (j *shardJournal) add(e journal.Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries = append(j.entries, e)
}

// count returns the number of journaled entries of type typ.
func (j *shardJournal) count(typ journal.EventType) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, e := range j.entries {
		if e.Type == typ {
			n++
		}
	}
	return n
}

func TestCoordinatorEngineExecutorsByteIdentical(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 90, Seed: 7}
	want := soloBytes(t, spec)

	var jnl shardJournal
	res, err := Run(context.Background(), spec, []Executor{Engine{}, Engine{}}, Options{
		ShardSize:  17,
		SegmentDir: t.TempDir(),
		Campaign:   "c-test",
		Logger:     quietLogger(),
		Journal:    jnl.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := jnl.count(journal.EventShardCompleted); n != 6 { // ceil-free contiguous split: 5×17 + 1×5
		t.Fatalf("Shards = %d, want 6", n)
	}
	if n := jnl.count(journal.EventShardExpired); n != 0 {
		t.Fatalf("Releases = %d, want 0", n)
	}
	if got := distBytes(t, res); !bytes.Equal(got, want) {
		t.Fatalf("distributed record file differs from solo run (%d vs %d bytes)", len(got), len(want))
	}
}

func TestCoordinatorRejectsBadInput(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 10, Seed: 1}
	if _, err := Run(context.Background(), spec, nil, Options{SegmentDir: t.TempDir()}); err == nil {
		t.Fatal("no executors: want error")
	}
	seq := goofi.CampaignSpec{Variant: "alg1", Precision: 0.05, Seed: 1}
	if _, err := Run(context.Background(), seq, []Executor{Engine{}}, Options{SegmentDir: t.TempDir()}); err == nil {
		t.Fatal("sequential spec: want error")
	}
}

func TestCoordinatorJournalAndSegments(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg2", Experiments: 60, Seed: 11}
	want := soloBytes(t, spec)
	segDir := t.TempDir()

	var mu sync.Mutex
	var entries []journal.Entry
	res, err := Run(context.Background(), spec, []Executor{Engine{}}, Options{
		ShardSize:  25,
		SegmentDir: segDir,
		Campaign:   "c-jnl",
		Logger:     quietLogger(),
		Journal: func(e journal.Entry) {
			mu.Lock()
			entries = append(entries, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := distBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("distributed record file differs from solo run")
	}

	leased, completed := 0, 0
	for _, e := range entries {
		if e.Job != "c-jnl" || e.Shard == nil {
			t.Fatalf("journal entry missing job/shard: %+v", e)
		}
		switch e.Type {
		case journal.EventShardLeased:
			leased++
		case journal.EventShardCompleted:
			completed++
		}
	}
	shards := len(goofi.SplitShards(spec.Experiments, 25))
	if leased != shards || completed != shards {
		t.Fatalf("journaled %d leases / %d completions, want %d each", leased, completed, shards)
	}

	// Every shard's segment survives and holds exactly its
	// in-shard records.
	for i := 0; i < shards; i++ {
		path := filepath.Join(segDir, "shard-000"+string(rune('0'+i))+".jsonl")
		recs, err := goofi.LoadRecords(path)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if len(recs) == 0 {
			t.Fatalf("segment %d is empty", i)
		}
	}
}

func TestCoordinatorSkipsCompletedShards(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 50, Seed: 3}
	want := soloBytes(t, spec)
	segDir := t.TempDir()

	// First: run shard 0 alone to produce its segment, as a previous
	// coordinator incarnation would have.
	var jnl shardJournal
	if _, err := Run(context.Background(), spec, []Executor{Engine{}}, Options{
		ShardSize:  20,
		SegmentDir: segDir,
		Logger:     quietLogger(),
		Journal:    jnl.add,
	}); err != nil {
		t.Fatal(err)
	}
	if n := jnl.count(journal.EventShardCompleted); n != 3 {
		t.Fatalf("Shards = %d, want 3", n)
	}
	// Drop the later segments, keeping shard 0's — the salvaged state.
	os.Remove(filepath.Join(segDir, "shard-0001.jsonl"))
	os.Remove(filepath.Join(segDir, "shard-0002.jsonl"))

	var leased int32
	res, err := Run(context.Background(), spec, []Executor{Engine{}}, Options{
		ShardSize:       20,
		SegmentDir:      segDir,
		CompletedShards: map[int]bool{0: true},
		Logger:          quietLogger(),
		TaskHook: func(task *ShardTask) {
			if task.Shard == 0 {
				t.Error("shard 0 was re-leased despite being journaled complete")
			}
			atomic.AddInt32(&leased, 1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&leased); got != 2 {
		t.Fatalf("leased %d shards, want 2 (shard 0 skipped)", got)
	}
	if got := distBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("resumed distributed record file differs from solo run")
	}
}

// failingExecutor always errors without streaming anything.
type failingExecutor struct{}

func (failingExecutor) Name() string { return "broken" }
func (failingExecutor) Run(ctx context.Context, task ShardTask, sink func(Event)) error {
	return errors.New("boom")
}

func TestCoordinatorGivesUpAfterMaxAttempts(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 30, Seed: 5}
	_, err := Run(context.Background(), spec, []Executor{failingExecutor{}}, Options{
		ShardSize:   30,
		MaxAttempts: 2,
		SegmentDir:  t.TempDir(),
		Logger:      quietLogger(),
	})
	if err == nil || !strings.Contains(err.Error(), "failed 2 times") {
		t.Fatalf("err = %v, want shard give-up after 2 attempts", err)
	}
}

// wedgingExecutor wedges (blocks ignoring everything but ctx) on a
// shard's first lease, then delegates to the real engine — the
// in-process stand-in for a hung worker whose lease must expire.
type wedgingExecutor struct{}

func (wedgingExecutor) Name() string { return "wedgy" }
func (wedgingExecutor) Run(ctx context.Context, task ShardTask, sink func(Event)) error {
	if task.Attempt == 0 {
		<-ctx.Done()
		return ctx.Err()
	}
	return RunShard(ctx, task, sink)
}

func TestCoordinatorLeaseExpiryReLeases(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 40, Seed: 9}
	want := soloBytes(t, spec)

	start := time.Now()
	var jnl shardJournal
	res, err := Run(context.Background(), spec, []Executor{wedgingExecutor{}}, Options{
		ShardSize:  40,
		LeaseTTL:   400 * time.Millisecond,
		SegmentDir: t.TempDir(),
		Logger:     quietLogger(),
		Journal:    jnl.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := jnl.count(journal.EventShardExpired); n != 1 {
		t.Fatalf("Releases = %d, want 1 (one expired lease)", n)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Fatalf("finished in %v, before the lease could have expired", elapsed)
	}
	if got := distBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("record file differs from solo run after lease expiry and re-lease")
	}
}

func TestMergeRecordsErrors(t *testing.T) {
	recs := []goofi.Record{{ID: 0}, {ID: 1}}
	if _, err := MergeRecords(3, recs); err == nil {
		t.Fatal("incomplete coverage: want error")
	}
	if _, err := MergeRecords(1, []goofi.Record{{ID: 5}}); err == nil {
		t.Fatal("out-of-range ID: want error")
	}
	merged, err := MergeRecords(2, []goofi.Record{{ID: 1}}, []goofi.Record{{ID: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if merged[0].ID != 0 || merged[1].ID != 1 {
		t.Fatalf("merge out of order: %v", merged)
	}
}

// TestCoordinatorDetectStatsMatchSolo: a sharded detector campaign
// reports the same detector stats, false positives included, as the
// solo engine — the shards' configuration plus verdicts tallied over
// the merged records. It runs without a SegmentDir, in memory only.
func TestCoordinatorDetectStatsMatchSolo(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg2", Experiments: 40, Seed: 13, Detector: "cfe+automaton"}
	cfg, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := goofi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, []Executor{Engine{}, Engine{}}, Options{
		ShardSize: 15,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := distBytes(t, res); !bytes.Equal(got, soloBytes(t, spec)) {
		t.Fatal("distributed detector campaign differs from solo run")
	}
	if res.Detect == nil || solo.Detect == nil || *res.Detect != *solo.Detect {
		t.Fatalf("Detect = %+v, want the solo run's %+v", res.Detect, solo.Detect)
	}
	if res.Prune != nil {
		t.Fatalf("Prune = %+v for a detector campaign, which declines pruning", res.Prune)
	}
}

// TestCoordinatorCancelKeepsPartialRecords: cancelling a run returns
// the records ingested so far, in experiment order and each identical
// to the solo run's, together with the context error.
func TestCoordinatorCancelKeepsPartialRecords(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 200, Seed: 17, Workers: 1}
	cfg, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := goofi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow := Engine{Configure: func(cfg *goofi.Config) {
		cfg.Chaos = func(id, attempt int) { time.Sleep(2 * time.Millisecond) }
	}}
	res, err := Run(ctx, spec, []Executor{slow}, Options{
		SegmentDir: t.TempDir(),
		Logger:     quietLogger(),
		OnRecord: func(_ goofi.Record, done int) {
			if done == 20 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Records) < 20 || len(res.Records) >= 200 {
		t.Fatalf("partial result = %+v, want 20..199 records", res)
	}
	for i, rec := range res.Records {
		if i > 0 && rec.ID <= res.Records[i-1].ID {
			t.Fatalf("partial records out of order at %d: %d after %d", i, rec.ID, res.Records[i-1].ID)
		}
		if rec != solo.Records[rec.ID] {
			t.Fatalf("partial record %d differs from the solo run's", rec.ID)
		}
	}
}

// TestLoadSegments reads a segment directory the way a server shows a
// running or crashed campaign: every shard's records in ID order, the
// newest line winning per ID, a torn final line dropped.
func TestLoadSegments(t *testing.T) {
	dir := t.TempDir()
	if recs, err := LoadSegments(filepath.Join(dir, "missing")); err != nil || len(recs) != 0 {
		t.Fatalf("missing dir: %d records, err %v; want none", len(recs), err)
	}
	write := func(shard int, body string) {
		if err := os.WriteFile(SegmentPath(dir, shard), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(1, `{"id":5,"outcome":"a"}`+"\n"+`{"id":3,"outcome":"a"}`+"\n")
	write(0, `{"id":1,"outcome":"abandoned"}`+"\n"+`{"id":0,"outcome":"a"}`+"\n"+`{"id":1,"outcome":"b"}`+"\n"+`{"id":2,"outc`)
	recs, err := LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%d:%s", r.ID, r.Outcome))
	}
	if want := "0:a 1:b 3:a 5:a"; strings.Join(got, " ") != want {
		t.Fatalf("LoadSegments = %v, want %s", got, want)
	}
	write(2, `{"id":bogus}`+"\n"+`{"id":7}`+"\n")
	if _, err := LoadSegments(dir); err == nil {
		t.Fatal("mid-segment corruption: want error")
	}
}
