package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctrlguard/internal/jsonl"
)

func openT(t *testing.T, path string) (*Journal, []Entry) {
	t.Helper()
	j, entries, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, entries
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, entries := openT(t, path)
	if len(entries) != 0 {
		t.Fatalf("fresh journal replayed %d entries", len(entries))
	}
	spec := json.RawMessage(`{"variant":"alg1","n":100,"seed":7}`)
	events := []Entry{
		{Job: "c000001", Type: EventSubmitted, Kind: "campaign", State: "queued", Total: 100, Spec: spec},
		{Job: "c000001", Type: EventStarted, State: "running"},
		{Job: "c000001", Type: EventProgress, Done: 40, Total: 100},
		{Job: "c000001", Type: EventTerminal, State: "done", Done: 100, Total: 100,
			Outcomes: map[string]int{"latent": 60, "uwr-permanent": 40}},
	}
	for _, e := range events {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	_, replayed := openT(t, path)
	if len(replayed) != len(events) {
		t.Fatalf("replayed %d entries, want %d", len(replayed), len(events))
	}
	for i, e := range replayed {
		if e.Seq != int64(i+1) {
			t.Errorf("entry %d seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.Job != "c000001" || e.Type != events[i].Type {
			t.Errorf("entry %d = %+v, want type %s", i, e, events[i].Type)
		}
		if e.Time.IsZero() {
			t.Errorf("entry %d missing timestamp", i)
		}
	}
	if string(replayed[0].Spec) != string(spec) {
		t.Errorf("spec round-trip: %s", replayed[0].Spec)
	}

	st := Reduce(replayed)
	if len(st) != 1 {
		t.Fatalf("reduce: %d jobs", len(st))
	}
	s := st[0]
	if !s.Terminal || s.State != "done" || s.Done != 100 || s.Total != 100 {
		t.Fatalf("reduced status = %+v", s)
	}
	if s.Outcomes["latent"] != 60 {
		t.Errorf("outcomes lost: %v", s.Outcomes)
	}
}

// TestTornTailRepaired is the mid-record crash: the final append is cut
// short. Open must drop exactly the torn line, repair the file, and
// keep subsequent appends well-formed.
func TestTornTailRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openT(t, path)
	j.Append(Entry{Job: "c1", Type: EventSubmitted, State: "queued"})
	j.Append(Entry{Job: "c1", Type: EventStarted, State: "running"})
	j.Close()

	// Simulate a crash mid-append: a partial JSON line with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":3,"job":"c1","ev":"term`)
	f.Close()

	j2, entries := openT(t, path)
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries after torn tail, want 2", len(entries))
	}
	// The repair must allow clean appends: the new entry continues the
	// sequence and a fresh replay sees three well-formed entries.
	if err := j2.Append(Entry{Job: "c1", Type: EventTerminal, State: "interrupted"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, again := openT(t, path)
	if len(again) != 3 {
		t.Fatalf("replayed %d entries after repair+append, want 3", len(again))
	}
	if again[2].Seq != 3 || again[2].State != "interrupted" {
		t.Fatalf("appended entry = %+v", again[2])
	}
}

// TestTornBeforeNewlineRepaired is the crash that loses only the final
// newline: the last line still parses, but it was never acknowledged.
// Open must drop it, or the next append glues onto it and the journal
// after that no longer opens.
func TestTornBeforeNewlineRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openT(t, path)
	for _, ev := range []EventType{EventSubmitted, EventStarted, EventProgress} {
		if err := j.Append(Entry{Job: "c1", Type: ev}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	j2, entries := openT(t, path)
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries with the last newline torn, want 2", len(entries))
	}
	for _, ev := range []EventType{EventProgress, EventTerminal} {
		if err := j2.Append(Entry{Job: "c1", Type: ev}); err != nil {
			t.Fatal(err)
		}
	}
	j2.Close()
	_, again := openT(t, path)
	if len(again) != 4 {
		t.Fatalf("replayed %d entries after repair and two appends, want 4", len(again))
	}
	for i, e := range again {
		if e.Seq != int64(i+1) {
			t.Errorf("entry %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if again[3].Type != EventTerminal {
		t.Errorf("last entry = %+v", again[3])
	}
}

// FuzzJournalOpen: for any file contents, Open either fails, or it
// accepts an append after which the journal reopens to exactly the
// entries it replayed plus the new one.
func FuzzJournalOpen(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"seq":1,"job":"c1","ev":"submitted"}` + "\n" + `{"seq":2,"job":"c1","ev":"started"}` + "\n"))
	f.Add([]byte(`{"seq":1,"job":"c1","ev":"submitted"}` + "\n" + `{"seq":2,"job":"c1","ev":"started"}`))
	f.Add([]byte(`{"seq":1,"job":"c1","ev":"submitted"}` + "\n" + `{"seq":2,"job":`))
	f.Add([]byte("\n \r\nnull\n{}\nGARBAGE\n"))
	f.Add([]byte(`{"seq":9223372036854775807,"t":"2026-01-02T03:04:05+07:00","spec":{ "a" : 1 }}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, replayed, err := Open(path)
		if err != nil {
			return
		}
		e := Entry{Job: "fuzz", Type: EventTerminal, Time: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
		for _, r := range replayed {
			e.Seq = max(e.Seq, r.Seq)
		}
		e.Seq++
		err = j.Append(e)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("append after a clean open: %v", err)
		}
		j2, got, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after an acknowledged append: %v", err)
		}
		j2.Close()
		want, err := json.Marshal(append(replayed, e))
		if err != nil {
			t.Fatal(err)
		}
		if g, err := json.Marshal(got); err != nil || string(g) != string(want) {
			t.Fatalf("reopened to %s, want %s (%v)", g, want, err)
		}
	})
}

// A malformed line followed by more entries is corruption, not a torn
// tail, and must fail loudly rather than silently dropping history.
func TestMidStreamCorruptionFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	content := `{"seq":1,"job":"c1","ev":"submitted"}` + "\n" +
		"GARBAGE NOT JSON\n" +
		`{"seq":3,"job":"c1","ev":"started"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("Open accepted a corrupt mid-stream line")
	}
}

func TestReadEntriesTruncatedError(t *testing.T) {
	in := `{"seq":1,"job":"c1","ev":"submitted"}` + "\n" + `{"seq":2,"job":`
	entries, err := ReadEntries(strings.NewReader(in))
	var trunc *jsonl.TruncatedError
	if !errors.As(err, &trunc) {
		t.Fatalf("err = %v, want TruncatedError", err)
	}
	if trunc.Line != 2 || len(entries) != 1 {
		t.Fatalf("entries = %d, trunc = %+v", len(entries), trunc)
	}
}

func TestReduceResumeReopensJob(t *testing.T) {
	entries := []Entry{
		{Seq: 1, Job: "c1", Type: EventSubmitted, Kind: "campaign", State: "queued", Total: 10},
		{Seq: 2, Job: "c1", Type: EventStarted, State: "running"},
		{Seq: 3, Job: "c1", Type: EventTerminal, State: "interrupted", Done: 4, Error: "shutdown"},
		{Seq: 4, Job: "c1", Type: EventResumed, State: "queued"},
	}
	st := Reduce(entries)
	if len(st) != 1 {
		t.Fatalf("%d jobs", len(st))
	}
	if st[0].Terminal {
		t.Fatal("resumed job still terminal")
	}
	if st[0].State != "queued" || st[0].Error != "" {
		t.Fatalf("resumed status = %+v", st[0])
	}
}

func TestCompactKeepsStatusesAndSequencing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openT(t, path)
	spec := json.RawMessage(`{"n":10}`)
	// A finished job with lots of progress chatter, plus a live one.
	j.Append(Entry{Job: "c1", Type: EventSubmitted, Kind: "campaign", State: "queued", Total: 10, Spec: spec})
	j.Append(Entry{Job: "c1", Type: EventStarted, State: "running"})
	for d := 1; d <= 9; d++ {
		j.Append(Entry{Job: "c1", Type: EventProgress, Done: d, Total: 10})
	}
	j.Append(Entry{Job: "c1", Type: EventTerminal, State: "done", Done: 10, Total: 10, Time: time.Now()})
	j.Append(Entry{Job: "c2", Type: EventSubmitted, Kind: "campaign", State: "queued", Total: 5, Spec: spec})
	j.Append(Entry{Job: "c2", Type: EventStarted, State: "running"})

	jr, before, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if err := j.Compact(Reduce(before)); err != nil {
		t.Fatal(err)
	}
	// Appends after compaction continue the new sequence.
	if err := j.Append(Entry{Job: "c2", Type: EventTerminal, State: "done", Done: 5, Total: 5}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, after := openT(t, path)
	if len(after) >= len(before) {
		t.Fatalf("compaction did not shrink the journal: %d -> %d lines", len(before), len(after))
	}
	st := Reduce(after)
	if len(st) != 2 {
		t.Fatalf("%d jobs after compact", len(st))
	}
	for _, s := range st {
		if !s.Terminal || s.State != "done" {
			t.Errorf("job %s status = %+v", s.Job, s)
		}
		if string(s.Spec) != string(spec) {
			t.Errorf("job %s lost its spec: %s", s.Job, s.Spec)
		}
	}
}
