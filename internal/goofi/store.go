package goofi

import (
	"io"

	"ctrlguard/internal/jsonl"
)

// The original GOOFI logged every experiment to a SQL database; this
// reproduction stores records as JSON lines (package jsonl), one
// experiment per line, which is equally queryable and dependency-free.

// WriteRecords streams records to w as JSON lines.
func WriteRecords(w io.Writer, recs []Record) error { return jsonl.Write(w, recs) }

// ReadRecords parses JSON-lines records from r. A malformed final line
// (a record cut short by a crash-interrupted campaign) returns the
// intact records with a *jsonl.TruncatedError naming the line, so a
// partial campaign database remains analysable; a malformed line
// anywhere else is a hard error.
func ReadRecords(r io.Reader) ([]Record, error) { return jsonl.Read[Record](r) }

// SaveRecords writes records to path via write-temp/fsync/rename, so a
// crash mid-save can never leave a torn record file: readers see either
// the previous complete file or the new one.
func SaveRecords(path string, recs []Record) error { return jsonl.Save(path, recs) }

// LoadRecords reads records from path (see ReadRecords).
func LoadRecords(path string) ([]Record, error) { return jsonl.Load[Record](path) }

// RecordAppender persists records incrementally, one JSON line per
// completed experiment, so a crash mid-campaign leaves a salvageable
// partial record file instead of nothing.
type RecordAppender = jsonl.Appender[Record]

// appenderSyncEvery is how many appended records may ride in the OS
// page cache before the appender fsyncs — the trade between fsync cost
// and how many experiments a crash can force a resume to re-run.
const appenderSyncEvery = 64

// OpenRecordAppender opens path for incremental record persistence and
// returns the appender together with the records salvaged from an
// earlier, possibly crash-interrupted run (nil for a fresh file). A
// torn final line is dropped and truncated away (jsonl.Open); corruption
// elsewhere is a hard error.
func OpenRecordAppender(path string) (*RecordAppender, []Record, error) {
	return jsonl.Open[Record](path, appenderSyncEvery)
}
