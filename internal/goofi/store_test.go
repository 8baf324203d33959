package goofi

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ctrlguard/internal/jsonl"
)

func sampleRecords() []Record {
	return []Record{
		{ID: 0, Variant: "alg1", Region: "cache", Element: "line0.data0", Bit: 27,
			At: 12345, Outcome: "uwr-permanent", FirstDev: 300, StrongIts: 350, MaxDev: 60.1},
		{ID: 1, Variant: "alg1", Region: "registers", Element: "pc", Bit: 14,
			At: 99, Outcome: "detected", Mechanism: "JUMP ERROR", FirstDev: -1},
		{ID: 2, Variant: "alg1", Region: "registers", Element: "r13", Bit: 5,
			At: 20000, Outcome: "overwritten", FirstDev: -1},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestWriteRecordsIsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecords(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if !strings.Contains(lines[1], `"mechanism":"JUMP ERROR"`) {
		t.Errorf("line 1 missing mechanism: %s", lines[1])
	}
}

func TestReadRecordsEmpty(t *testing.T) {
	got, err := ReadRecords(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records from empty input", len(got))
	}
}

// A zero-byte JSONL file — a campaign that crashed before its first
// record, or a store file created but never written — is an empty
// database, not a truncated one: no records, and in particular no
// *jsonl.TruncatedError.
func TestReadRecordsZeroByteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadRecords(f)
	var trunc *jsonl.TruncatedError
	if errors.As(err, &trunc) {
		t.Fatalf("zero-byte file reported as truncated: %v", err)
	}
	if err != nil {
		t.Fatalf("zero-byte file: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records from a zero-byte file", len(got))
	}
}

func TestReadRecordsMalformed(t *testing.T) {
	if _, err := ReadRecords(strings.NewReader("{not json")); err == nil {
		t.Error("expected error for malformed input")
	}
}

// A crash-interrupted campaign leaves a half-written final line; the
// intact records must still be readable, with the bad line reported.
func TestReadRecordsTruncatedFinalLine(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecords(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	cut := full[:len(full)-25] // chop mid-way through record 2

	got, err := ReadRecords(strings.NewReader(cut))
	if err == nil {
		t.Fatal("expected a TruncatedError for the half-written final line")
	}
	var trunc *jsonl.TruncatedError
	if !errors.As(err, &trunc) {
		t.Fatalf("got %T (%v), want *jsonl.TruncatedError", err, err)
	}
	if trunc.Line != 3 {
		t.Errorf("TruncatedError.Line = %d, want 3", trunc.Line)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name the line", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records alongside the error, want the 2 intact ones", len(got))
	}
	want := sampleRecords()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// A malformed line in the *middle* of the stream is corruption, not
// truncation: that stays a hard error.
func TestReadRecordsCorruptMiddleLine(t *testing.T) {
	in := `{"id":0,"variant":"alg1"}` + "\n" + `{"id":1,"var` + "\n" + `{"id":2,"variant":"alg1"}` + "\n"
	got, err := ReadRecords(strings.NewReader(in))
	if err == nil {
		t.Fatal("expected hard error for a corrupt middle line")
	}
	var trunc *jsonl.TruncatedError
	if errors.As(err, &trunc) {
		t.Errorf("middle-line corruption misreported as truncation: %v", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name line 2", err)
	}
	if got != nil {
		t.Errorf("expected no records on hard error, got %d", len(got))
	}
}

func TestSaveLoadRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	recs := sampleRecords()
	if err := SaveRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestLoadRecordsMissingFile(t *testing.T) {
	if _, err := LoadRecords(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestSaveRecordsBadPath(t *testing.T) {
	if err := SaveRecords(filepath.Join(t.TempDir(), "no", "dir", "x.jsonl"), nil); err == nil {
		t.Error("expected error for unwritable path")
	}
}

// scanTestRecords returns n distinct records for the scanner tests.
func scanTestRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{ID: i, Variant: "alg1", Region: "data", Element: "r1", Bit: uint(i % 31), At: uint64(i % 50), Outcome: "non-effective"}
	}
	return recs
}

func TestRecordScannerMatchesReadRecords(t *testing.T) {
	recs := scanTestRecords(10)
	var buf bytes.Buffer
	WriteRecords(&buf, recs)
	sc := jsonl.NewScanner[Record](bytes.NewReader(buf.Bytes()))
	var got []Record
	for sc.Scan() {
		got = append(got, sc.Value())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestRecordScannerTornTail(t *testing.T) {
	recs := scanTestRecords(3)
	var buf bytes.Buffer
	WriteRecords(&buf, recs)
	buf.WriteString(`{"id":9999,"vari`)
	sc := jsonl.NewScanner[Record](bytes.NewReader(buf.Bytes()))
	n := 0
	for sc.Scan() {
		n++
	}
	var trunc *jsonl.TruncatedError
	if !errors.As(sc.Err(), &trunc) {
		t.Fatalf("torn tail gave %v, want TruncatedError", sc.Err())
	}
	if n != 3 {
		t.Fatalf("scanned %d intact records, want 3", n)
	}
}

func TestRecordScannerMidStreamCorruption(t *testing.T) {
	recs := scanTestRecords(3)
	var buf bytes.Buffer
	WriteRecords(&buf, recs)
	lines := strings.SplitAfter(buf.String(), "\n")
	lines[1] = "{\"id\":bogus}\n"
	sc := jsonl.NewScanner[Record](strings.NewReader(strings.Join(lines, "")))
	for sc.Scan() {
	}
	err := sc.Err()
	var trunc *jsonl.TruncatedError
	if err == nil || errors.As(err, &trunc) {
		t.Fatalf("mid-stream corruption gave %v, want a hard error", err)
	}
}

// FuzzReadRecords feeds arbitrary bytes to the record readers, the
// trust boundary every persisted or uploaded campaign file crosses:
// ReadRecords (the result cache, LoadRecords, the appender) and the
// streaming jsonl.Scanner (record pages) must never panic, must accept
// the same records and fail with the same error class, and every record
// they accept, intact or before a torn final line, must round-trip
// through WriteRecords unchanged.
func FuzzReadRecords(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteRecords(&valid, sampleRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-20])                                                // torn tail
	f.Add(append([]byte(`{"id":0,"variant":`+"\n"), valid.Bytes()...))                   // malformed line
	f.Add([]byte(`{"id":3,"model":"burst","width":2,"provenance":"class-member-of:1"}`)) // no newline
	f.Add(overLongRecordLine())
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRecords(bytes.NewReader(data))
		var scanned []Record
		sc := jsonl.NewScanner[Record](bytes.NewReader(data))
		for sc.Scan() {
			scanned = append(scanned, sc.Value())
		}
		if errorClass(sc.Err()) != errorClass(err) {
			t.Fatalf("ReadRecords error %v, Scanner error %v", err, sc.Err())
		}
		var trunc *jsonl.TruncatedError
		if err != nil && !errors.As(err, &trunc) {
			return
		}
		if !reflect.DeepEqual(scanned, recs) {
			t.Fatalf("Scanner read %+v, ReadRecords %+v", scanned, recs)
		}
		var buf bytes.Buffer
		if err := WriteRecords(&buf, recs); err != nil {
			t.Fatalf("WriteRecords of accepted records: %v", err)
		}
		again, err := ReadRecords(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written records: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", again, recs)
		}
	})
}

// errorClass names the kind of a record reader's error: none, a torn
// final line, or a hard failure.
func errorClass(err error) string {
	var trunc *jsonl.TruncatedError
	switch {
	case err == nil:
		return "nil"
	case errors.As(err, &trunc):
		return "truncated"
	}
	return "hard"
}

// overLongRecordLine is two records, the first padded with JSON
// whitespace to a 5 MiB line, past the readers' 4 MiB bound.
func overLongRecordLine() []byte {
	return []byte(`{"id":0,` + strings.Repeat(" ", 5<<20) + `"variant":"alg1"}` + "\n" + `{"id":1}` + "\n")
}

// TestReadRecordsOverLongLine: a line past the 4 MiB bound is a hard
// error for both readers, not a record and not a torn tail.
func TestReadRecordsOverLongLine(t *testing.T) {
	if recs, err := ReadRecords(bytes.NewReader(overLongRecordLine())); errorClass(err) != "hard" || recs != nil {
		t.Errorf("ReadRecords: %d records, error %v", len(recs), err)
	}
	sc := jsonl.NewScanner[Record](bytes.NewReader(overLongRecordLine()))
	for sc.Scan() {
		t.Errorf("Scanner read %+v", sc.Value())
	}
	if errorClass(sc.Err()) != "hard" {
		t.Errorf("Scanner error %v", sc.Err())
	}
}

// TestRecordScannerResetsOmittedFields: a record line omits its empty
// fields, so the scanner must not carry the previous record's mechanism,
// model, width or provenance into it.
func TestRecordScannerResetsOmittedFields(t *testing.T) {
	want := []Record{
		{ID: 0, Outcome: "detected", Mechanism: "SIGNATURE MONITOR", Model: "burst", Width: 2, Provenance: ProvenanceSimulated},
		{ID: 1, Outcome: "overwritten"},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got []Record
	sc := jsonl.NewScanner[Record](&buf)
	for sc.Scan() {
		got = append(got, sc.Value())
	}
	if sc.Err() != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("scanned %+v (%v), want %+v", got, sc.Err(), want)
	}
}
