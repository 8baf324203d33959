package goofi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"ctrlguard/internal/fsatomic"
)

// The original GOOFI logged every experiment to a SQL database; this
// reproduction stores records as JSON lines, one experiment per line,
// which is equally queryable and dependency-free.

// WriteRecords streams records to w as JSON lines.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("goofi: encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// TruncatedError reports a JSONL stream whose final line failed to
// parse — the signature of a campaign log cut short mid-write by a
// crash or interrupt. The records parsed before it are still returned
// alongside the error, so callers can tolerate-and-report.
type TruncatedError struct {
	Line int   // 1-based line number of the unparsable final line
	Err  error // the underlying JSON error
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("goofi: truncated record on final line %d: %v", e.Line, e.Err)
}

func (e *TruncatedError) Unwrap() error { return e.Err }

// ReadRecords parses JSON-lines records from r.
//
// A malformed line in the middle of the stream is a hard error. A
// malformed *final* line — a record cut short by a crash-interrupted
// campaign — returns the successfully parsed records together with a
// *TruncatedError naming the line, so a partial campaign database
// remains analysable.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	var trunc *TruncatedError
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		if trunc != nil {
			// The bad line was not the last one: corrupt, not truncated.
			return nil, fmt.Errorf("goofi: decode record on line %d: %w", trunc.Line, trunc.Err)
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			trunc = &TruncatedError{Line: line, Err: err}
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("goofi: read records: %w", err)
	}
	if trunc != nil {
		return out, trunc
	}
	return out, nil
}

// RecordScanner streams records from a JSONL reader one at a time, so
// paginating a large record file costs O(page) memory instead of
// loading the whole campaign. Its truncation semantics match
// ReadRecords: a malformed final line yields a *TruncatedError from
// Err() after the intact records have been scanned, while corruption
// mid-stream is a hard error.
type RecordScanner struct {
	br   *bufio.Reader
	rec  Record
	line int
	err  error
	done bool
}

// NewRecordScanner wraps r for streaming record reads.
func NewRecordScanner(r io.Reader) *RecordScanner {
	return &RecordScanner{br: bufio.NewReaderSize(r, 64*1024)}
}

// Scan advances to the next record, reporting false at end of stream
// or on error (check Err).
func (s *RecordScanner) Scan() bool {
	for !s.done && s.err == nil {
		raw, err := s.br.ReadBytes('\n')
		atEOF := errors.Is(err, io.EOF)
		if err != nil && !atEOF {
			s.err = fmt.Errorf("goofi: read records: %w", err)
			return false
		}
		s.done = atEOF
		s.line++
		b := bytes.TrimSpace(raw)
		if len(b) == 0 {
			continue
		}
		if uerr := json.Unmarshal(b, &s.rec); uerr != nil {
			if s.lastDataLine() {
				s.err = &TruncatedError{Line: s.line, Err: uerr}
			} else {
				s.err = fmt.Errorf("goofi: decode record on line %d: %w", s.line, uerr)
			}
			return false
		}
		return true
	}
	return false
}

// lastDataLine reports whether the line just read is the stream's
// final non-blank line — the only place a parse failure means
// "truncated" rather than "corrupt".
func (s *RecordScanner) lastDataLine() bool {
	if s.done {
		return true
	}
	for {
		raw, err := s.br.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) > 0 {
			return false
		}
		if err != nil {
			s.done = true
			return true
		}
		s.line++
	}
}

// Record is the record most recently scanned.
func (s *RecordScanner) Record() Record { return s.rec }

// Err returns the error that stopped the scan, if any.
func (s *RecordScanner) Err() error { return s.err }

// SaveRecords writes records to path via write-temp/fsync/rename, so a
// crash mid-save can never leave a torn record file: readers see either
// the previous complete file or the new one.
func SaveRecords(path string, recs []Record) error {
	return fsatomic.WriteFile(path, func(w io.Writer) error {
		return WriteRecords(w, recs)
	})
}

// LoadRecords reads records from path.
func LoadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("goofi: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadRecords(f)
}

// appenderSyncEvery is how many appended records may ride in the OS
// page cache before the appender fsyncs — the trade between fsync cost
// and how many experiments a crash can force a resume to re-run.
const appenderSyncEvery = 64

// RecordAppender persists records incrementally, one JSON line per
// completed experiment, so a crash mid-campaign leaves a salvageable
// partial record file instead of nothing. Opening an existing file —
// the resume path — salvages its intact records and truncates a
// crash-torn final line, so appends always continue a well-formed
// stream. Appends are flushed per record and fsync'd every
// appenderSyncEvery records and on Close.
type RecordAppender struct {
	f       *os.File
	bw      *bufio.Writer
	enc     *json.Encoder
	unsynct int
}

// OpenRecordAppender opens path for incremental record persistence and
// returns the appender together with the records salvaged from an
// earlier, possibly crash-interrupted run (nil for a fresh file). A
// torn final line is dropped and truncated away; corruption elsewhere
// is a hard error.
func OpenRecordAppender(path string) (*RecordAppender, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("goofi: open %s: %w", path, err)
	}
	b, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("goofi: read %s: %w", path, err)
	}
	recs, err := ReadRecords(bytes.NewReader(b))
	good := int64(len(b))
	if err != nil {
		var trunc *TruncatedError
		if !errors.As(err, &trunc) {
			f.Close()
			return nil, nil, err
		}
		good = tornOffset(b)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("goofi: repair %s: %w", path, err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("goofi: seek %s: %w", path, err)
	}
	bw := bufio.NewWriter(f)
	return &RecordAppender{f: f, bw: bw, enc: json.NewEncoder(bw)}, recs, nil
}

// tornOffset returns the byte offset at which a stream's final,
// unparsable line begins — the truncation point that removes exactly
// the torn tail (including any trailing blank lines after it).
func tornOffset(b []byte) int64 {
	end := len(b)
	for end > 0 {
		nl := bytes.LastIndexByte(b[:end], '\n')
		if len(bytes.TrimSpace(b[nl+1:end])) > 0 {
			return int64(nl + 1)
		}
		if nl < 0 {
			break
		}
		end = nl
	}
	return 0
}

// Append writes one record and flushes it to the OS; every
// appenderSyncEvery records the file is also fsync'd.
func (a *RecordAppender) Append(rec Record) error {
	if err := a.enc.Encode(&rec); err != nil {
		return fmt.Errorf("goofi: append record: %w", err)
	}
	if err := a.bw.Flush(); err != nil {
		return fmt.Errorf("goofi: flush record: %w", err)
	}
	a.unsynct++
	if a.unsynct >= appenderSyncEvery {
		a.unsynct = 0
		if err := a.f.Sync(); err != nil {
			return fmt.Errorf("goofi: fsync records: %w", err)
		}
	}
	return nil
}

// Close flushes, fsyncs, and closes the file.
func (a *RecordAppender) Close() error {
	if a.f == nil {
		return nil
	}
	var first error
	if err := a.bw.Flush(); err != nil {
		first = err
	}
	if err := a.f.Sync(); err != nil && first == nil {
		first = err
	}
	if err := a.f.Close(); err != nil && first == nil {
		first = err
	}
	a.f = nil
	return first
}
