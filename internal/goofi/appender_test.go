package goofi

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{ID: i, Variant: "alg1", Region: "cache", Element: "line0.data0",
			Bit: uint(i % 32), At: uint64(1000 + i), Outcome: "latent"}
	}
	return recs
}

func TestAppenderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c1.jsonl")
	a, salvaged, err := OpenRecordAppender(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(salvaged) != 0 {
		t.Fatalf("fresh file salvaged %d records", len(salvaged))
	}
	want := testRecords(100) // crosses the fsync interval
	for _, rec := range want {
		if err := a.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAppenderSalvagesTornFile is the crash path: a record file ending
// in a half-written line must yield its intact records, lose exactly
// the torn tail, and accept clean appends afterwards.
func TestAppenderSalvagesTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c1.jsonl")
	a, _, err := OpenRecordAppender(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(10)
	for _, rec := range recs[:8] {
		a.Append(rec)
	}
	a.Close()
	// Crash mid-append: half a JSON line, no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":8,"variant":"alg1","reg`)
	f.Close()

	a2, salvaged, err := OpenRecordAppender(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(salvaged) != 8 {
		t.Fatalf("salvaged %d records, want 8", len(salvaged))
	}
	for _, rec := range recs[8:] {
		if err := a2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	a2.Close()

	got, err := LoadRecords(path)
	if err != nil {
		t.Fatalf("file not well-formed after salvage+append: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("%d records after repair, want 10", len(got))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// A newline-terminated garbage final line (e.g. zero-fill from a crash)
// is also dropped as a torn tail.
func TestAppenderSalvagesGarbageFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c1.jsonl")
	a, _, err := OpenRecordAppender(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(3)
	for _, rec := range recs {
		a.Append(rec)
	}
	a.Close()
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("\x00\x00GARBAGE\n")
	f.Close()

	a2, salvaged, err := OpenRecordAppender(path)
	if err != nil {
		t.Fatal(err)
	}
	a2.Close()
	if len(salvaged) != 3 {
		t.Fatalf("salvaged %d records, want 3", len(salvaged))
	}
	if got, err := LoadRecords(path); err != nil || len(got) != 3 {
		t.Fatalf("after repair: %d records, err %v", len(got), err)
	}
}

// SaveRecords must replace an existing (possibly longer) file
// atomically: after an interrupted campaign is finalised, the sorted
// rewrite fully supersedes the unordered incremental file.
func TestSaveRecordsReplacesIncrementalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c1.jsonl")
	a, _, err := OpenRecordAppender(path)
	if err != nil {
		t.Fatal(err)
	}
	// Completion order, not ID order — plus a stale duplicate.
	recs := testRecords(5)
	for _, i := range []int{3, 0, 4, 1, 2, 3} {
		a.Append(recs[i])
	}
	a.Close()

	if err := SaveRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("%d records after final save, want 5", len(got))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d out of order after final save", i)
		}
	}
}

// TestRecordAppenderUnterminatedTail is the crash between a record's
// bytes and its newline: the segment's last record parses, but it was
// never acknowledged. Opening must drop it, or the next append glues
// onto the same line and the segment stops reopening.
func TestRecordAppenderUnterminatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000.jsonl")
	recs := testRecords(5)
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs[:3]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(buf.Bytes(), []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	a, salvaged, err := OpenRecordAppender(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(salvaged, recs[:2]) {
		t.Fatalf("salvaged %+v, want the 2 newline-terminated records", salvaged)
	}
	for _, rec := range recs[3:] {
		if err := a.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2, got, err := OpenRecordAppender(path)
	if err != nil {
		t.Fatalf("reopen after two appends: %v", err)
	}
	a2.Close()
	if want := append(recs[:2:2], recs[3:]...); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened to %+v, want %+v", got, want)
	}
}
