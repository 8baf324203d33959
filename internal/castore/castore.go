// Package castore is a content-addressed result store: blobs filed
// under the SHA-256 of what produced them. ctrlguardd uses it to
// memoize campaigns — a campaign's records are a deterministic
// function of (engine version, canonical spec), so a duplicate
// submission can be served the original run's bytes instead of
// burning workers re-deriving them. The daemon reads an entry with
// Get and writes one with PutFile; eviction is least-recently-used
// under an optional byte budget.
package castore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ctrlguard/internal/fsatomic"
)

// Key derives the content address for a result: the hex SHA-256 of
// the canonical JSON encoding of parts, hashed in order with a
// length-prefixed frame so distinct part sequences cannot collide.
// Callers pass the values that fully determine the result (e.g. an
// engine version string and a canonicalized spec struct).
func Key(parts ...any) (string, error) {
	h := sha256.New()
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			return "", fmt.Errorf("castore: canonicalize key part: %w", err)
		}
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Store is a directory of content-addressed blobs. All methods are
// safe for concurrent use; writes are atomic (temp + fsync + rename),
// so a crash mid-PutFile never leaves a corrupt entry addressable.
type Store struct {
	dir      string
	maxBytes int64 // 0 = unbounded

	mu sync.Mutex // serialises eviction sweeps against writes
}

// Open creates (if needed) and opens a store rooted at dir. maxBytes
// bounds the total stored size; 0 means unbounded.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: create %s: %w", dir, err)
	}
	return &Store{dir: dir, maxBytes: maxBytes}, nil
}

// path maps a key onto its blob file. Keys are hex digests; anything
// else is rejected by the public methods before reaching here.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".blob")
}

func validKey(key string) error {
	if len(key) != 64 {
		return fmt.Errorf("castore: malformed key %q", key)
	}
	for _, c := range key {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return fmt.Errorf("castore: malformed key %q", key)
		}
	}
	return nil
}

// Get returns the blob stored under key, touching its LRU clock.
// ok is false when the key is absent.
func (s *Store) Get(key string) (data []byte, ok bool, err error) {
	if s == nil {
		return nil, false, nil
	}
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("castore: read %s: %w", key, err)
	}
	s.touch(key)
	return b, true, nil
}

// PutFile stores the contents of src under key, replacing any entry
// already there. With deterministic producers a replaced entry held
// the same bytes, unless it was damaged, which the write repairs.
func (s *Store) PutFile(key, src string) error {
	if s == nil {
		return nil
	}
	if err := validKey(key); err != nil {
		return err
	}
	f, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("castore: put %s: %w", key, err)
	}
	defer f.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := fsatomic.WriteFile(s.path(key), func(w io.Writer) error {
		_, err := io.Copy(w, f)
		return err
	}); err != nil {
		return fmt.Errorf("castore: put %s: %w", key, err)
	}
	return s.evictLocked()
}

// touch bumps an entry's mtime so eviction treats it as recently
// used. Best-effort: a failed touch only skews LRU order.
func (s *Store) touch(key string) {
	now := time.Now()
	_ = os.Chtimes(s.path(key), now, now)
}

// Stats reports the number of entries and total stored bytes.
func (s *Store) Stats() (entries int, bytes int64) {
	if s == nil {
		return 0, 0
	}
	for _, e := range s.entries() {
		entries++
		bytes += e.size
	}
	return entries, bytes
}

type entry struct {
	path  string
	size  int64
	mtime time.Time
}

func (s *Store) entries() []entry {
	matches, _ := filepath.Glob(filepath.Join(s.dir, "*.blob"))
	out := make([]entry, 0, len(matches))
	for _, p := range matches {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		out = append(out, entry{path: p, size: fi.Size(), mtime: fi.ModTime()})
	}
	return out
}

// evictLocked drops least-recently-used entries until the store fits
// its byte budget. Caller holds s.mu.
func (s *Store) evictLocked() error {
	if s.maxBytes <= 0 {
		return nil
	}
	es := s.entries()
	var total int64
	for _, e := range es {
		total += e.size
	}
	if total <= s.maxBytes {
		return nil
	}
	sort.Slice(es, func(i, j int) bool { return es[i].mtime.Before(es[j].mtime) })
	for _, e := range es {
		if total <= s.maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("castore: evict %s: %w", e.path, err)
		}
		total -= e.size
	}
	return nil
}
