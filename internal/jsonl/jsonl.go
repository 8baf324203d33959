// Package jsonl is the tool's one crash-safe JSON-lines log. Campaign
// records, shard segments, the job journal and tuner results are all
// files of one JSON value per line, and every decision about that
// format is made here once: how values are written, how long a line
// may be, what a blank line means, and which damage is a torn tail
// rather than corruption.
//
// The torn-tail rule has two halves. A reader (Scanner, Read, Load)
// accepts a final line that does not parse, returning the values
// before it with a *TruncatedError: that is what a writer cut short by
// a crash leaves behind. An unparsable line anywhere else is
// corruption and a hard error. An Appender must also continue the
// file, so it is stricter: a value counts only once its newline is on
// disk. On Open it drops an unterminated final line even when that
// line parses, drops an unparsable final line, and truncates both
// away, so the next append starts a line of its own.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"unicode"

	"ctrlguard/internal/fsatomic"
)

// MaxLine bounds one line. A value is a few hundred bytes; a longer
// line is a corrupt or hostile file, not a value.
const MaxLine = 4 << 20

// TruncatedError reports a stream whose final non-blank line does not
// parse: a value cut short mid-write by a crash or interrupt. The
// values before it are returned alongside the error, so callers can
// tolerate and report it.
type TruncatedError struct {
	Line int   // 1-based line number of the unparsable final line
	Err  error // the underlying JSON error
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("jsonl: truncated final line %d: %v", e.Line, e.Err)
}

func (e *TruncatedError) Unwrap() error { return e.Err }

// Write streams vs to w, one JSON value per line.
func Write[T any](w io.Writer, vs []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range vs {
		if err := enc.Encode(&vs[i]); err != nil {
			return fmt.Errorf("jsonl: encode value %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Save replaces path with vs via write-temp/fsync/rename, so a crash
// mid-save leaves either the previous complete file or the new one.
func Save[T any](path string, vs []T) error {
	return fsatomic.WriteFile(path, func(w io.Writer) error { return Write(w, vs) })
}

// Load reads the values in path (see Read).
func Load[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("jsonl: %w", err)
	}
	defer f.Close()
	return Read[T](f)
}

// Read returns every value a Scanner yields from r. With a
// *TruncatedError the values before the torn line come back too; with
// any other error, none do.
func Read[T any](r io.Reader) ([]T, error) {
	var out []T
	sc := NewScanner[T](r)
	for sc.Scan() {
		out = append(out, sc.Value())
	}
	var trunc *TruncatedError
	if err := sc.Err(); err != nil && !errors.As(err, &trunc) {
		return nil, err
	}
	return out, sc.Err()
}

// Scanner streams values from a JSON-lines reader one at a time, so
// paging through a large file costs O(page) memory. Blank lines are
// skipped. An unparsable final line yields a *TruncatedError from Err
// after the intact values; an unparsable line elsewhere, or one longer
// than MaxLine, is a hard error.
type Scanner[T any] struct {
	sc   *bufio.Scanner
	v    T
	line int
	err  error
}

// NewScanner wraps r for streaming reads.
func NewScanner[T any](r io.Reader) *Scanner[T] {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	return &Scanner[T]{sc: sc}
}

// Scan advances to the next value, reporting false at the end of the
// stream or on error (check Err).
func (s *Scanner[T]) Scan() bool {
	for s.err == nil && s.sc.Scan() {
		s.line++
		b := bytes.TrimSpace(s.sc.Bytes())
		if len(b) == 0 {
			continue
		}
		// Decode into a zero value: fields a line omits (omitempty)
		// must not keep the previous value's.
		s.v = *new(T)
		if err := json.Unmarshal(b, &s.v); err != nil {
			if s.lastDataLine() {
				s.err = &TruncatedError{Line: s.line, Err: err}
			} else {
				s.err = fmt.Errorf("jsonl: decode line %d: %w", s.line, err)
			}
			return false
		}
		return true
	}
	if err := s.sc.Err(); err != nil && s.err == nil {
		s.err = fmt.Errorf("jsonl: read: %w", err)
	}
	return false
}

// lastDataLine reports whether the line just read is the stream's
// final non-blank line, the only place a parse failure means
// "truncated" rather than "corrupt". A line too long to read counts as
// a further data line.
func (s *Scanner[T]) lastDataLine() bool {
	for s.sc.Scan() {
		if len(bytes.TrimSpace(s.sc.Bytes())) > 0 {
			return false
		}
	}
	return s.sc.Err() == nil
}

// Value is the value most recently scanned.
func (s *Scanner[T]) Value() T { return s.v }

// Err returns the error that stopped the scan, if any.
func (s *Scanner[T]) Err() error { return s.err }

// ScanTerminatedLines is a bufio.SplitFunc like bufio.ScanLines that
// drops a final line without its newline: the torn tail of a stream
// cut short.
func ScanTerminatedLines(data []byte, _ bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	return 0, nil, nil
}

// Appender continues a JSON-lines log one value at a time. It is not
// safe for concurrent use.
type Appender[T any] struct {
	f         *os.File
	size      int64
	syncEvery int
	unsynced  int
}

// Open opens the log at path for appending, creating it if needed, and
// returns the values it already holds. Only newline-terminated lines
// count: an unterminated final line is dropped even when it parses,
// and so is an unparsable final line. Both are truncated away. Any
// other damage is a hard error. Appends are fsync'd every syncEvery
// values and on Close.
func Open[T any](path string, syncEvery int) (*Appender[T], []T, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jsonl: %w", err)
	}
	vs, size, err := replay[T](f)
	if err == nil {
		if err = f.Truncate(size); err != nil {
			err = fmt.Errorf("jsonl: repair %s: %w", path, err)
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Appender[T]{f: f, size: size, syncEvery: syncEvery}, vs, nil
}

// replay reads f's values and returns them with the length of the
// prefix of f that holds exactly their lines.
func replay[T any](f *os.File) ([]T, int64, error) {
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("jsonl: read %s: %w", f.Name(), err)
	}
	b = b[:bytes.LastIndexByte(b, '\n')+1]
	vs, err := Read[T](bytes.NewReader(b))
	var trunc *TruncatedError
	if errors.As(err, &trunc) {
		// The torn line is the last non-blank one: cut before it.
		b = b[:bytes.LastIndexByte(bytes.TrimRightFunc(b, unicode.IsSpace), '\n')+1]
		err = nil
	}
	return vs, int64(len(b)), err
}

// Append writes v as one line and hands it to the OS; every
// syncEvery-th append also fsyncs.
func (a *Appender[T]) Append(v T) error {
	b, err := json.Marshal(&v)
	if err != nil {
		return fmt.Errorf("jsonl: encode: %w", err)
	}
	if _, err := a.f.WriteAt(append(b, '\n'), a.size); err != nil {
		// Cut off the partial line. Should that fail too, later
		// appends overwrite it and Open drops any unterminated rest.
		_ = a.f.Truncate(a.size)
		return fmt.Errorf("jsonl: append: %w", err)
	}
	a.size += int64(len(b) + 1)
	if a.unsynced++; a.unsynced < a.syncEvery {
		return nil
	}
	a.unsynced = 0
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("jsonl: fsync: %w", err)
	}
	return nil
}

// Size is the log's length in bytes.
func (a *Appender[T]) Size() int64 { return a.size }

// Close fsyncs and closes the file.
func (a *Appender[T]) Close() error {
	if a.f == nil {
		return nil
	}
	err := a.f.Sync()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	a.f = nil
	return err
}
