package tune

import (
	"io"

	"ctrlguard/internal/jsonl"
)

// Tuning results persist as JSON lines, one configuration per line —
// the same store (package jsonl) the campaign records use, so study
// and tuner outputs are uniformly greppable and joinable.

// WriteResults streams results to w as JSON lines.
func WriteResults(w io.Writer, rs []Result) error { return jsonl.Write(w, rs) }

// ReadResults parses JSON-lines results from r.
func ReadResults(r io.Reader) ([]Result, error) { return jsonl.Read[Result](r) }

// SaveResults writes results to path via write-temp/fsync/rename, so a
// crash mid-save can never leave a torn result file behind.
func SaveResults(path string, rs []Result) error { return jsonl.Save(path, rs) }

// LoadResults reads results from path.
func LoadResults(path string) ([]Result, error) { return jsonl.Load[Result](path) }
