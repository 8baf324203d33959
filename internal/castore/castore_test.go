package castore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestKeyDeterministicAndFramed(t *testing.T) {
	type spec struct {
		N    int    `json:"n"`
		Seed uint64 `json:"seed"`
	}
	k1, err := Key("engine/1", spec{N: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Key("engine/1", spec{N: 10, Seed: 7})
	if k1 != k2 {
		t.Fatal("identical parts hashed differently")
	}
	if len(k1) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(k1))
	}
	k3, _ := Key("engine/2", spec{N: 10, Seed: 7})
	if k1 == k3 {
		t.Fatal("engine version not part of the address")
	}
	k4, _ := Key("engine/1", spec{N: 10, Seed: 8})
	if k1 == k4 {
		t.Fatal("spec change not part of the address")
	}
	// The length-prefixed frame keeps part boundaries from colliding.
	a, _ := Key("ab", "c")
	b, _ := Key("a", "bc")
	if a == b {
		t.Fatal("part boundary collision")
	}
}

// blobFile writes data to a fresh file for PutFile and returns its path.
func blobFile(t *testing.T, data []byte) string {
	t.Helper()
	src := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return src
}

// has reports whether the store holds an entry under key.
func has(s *Store, key string) bool {
	_, err := os.Stat(s.path(key))
	return err == nil
}

func TestStorePutGetCopy(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := Key("engine/1", 42)
	if _, ok, _ := s.Get(key); ok {
		t.Fatal("Get on empty store hit")
	}
	want := []byte("{\"id\":0}\n{\"id\":1}\n")
	if err := s.PutFile(key, blobFile(t, want)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}
	// A later write replaces the entry: that is how a damaged entry is
	// repaired.
	cut := want[:len(want)/2]
	os.WriteFile(s.path(key), cut, 0o644)
	if err := s.PutFile(key, blobFile(t, want)); err != nil {
		t.Fatal(err)
	}
	if got, _, _ = s.Get(key); !bytes.Equal(got, want) {
		t.Fatalf("Get after a repairing PutFile = %q, want %q", got, want)
	}
	missing, _ := Key("engine/1", 43)
	if _, ok, _ := s.Get(missing); ok {
		t.Fatal("Get hit on a missing key")
	}

	if n, sz := s.Stats(); n != 1 || sz != int64(len(want)) {
		t.Fatalf("Stats = %d entries, %d bytes; want 1, %d", n, sz, len(want))
	}
}

func TestStorePutFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "run.jsonl")
	want := []byte("{\"id\":0}\n")
	os.WriteFile(src, want, 0o644)
	s, _ := Open(filepath.Join(dir, "cache"), 0)
	key, _ := Key("engine/1", "spec")
	if err := s.PutFile(key, src); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get(key)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get after PutFile = %q, %v", got, ok)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	// Budget fits two 100-byte entries; a third evicts the least
	// recently used.
	s, _ := Open(filepath.Join(t.TempDir(), "cache"), 250)
	blob := blobFile(t, bytes.Repeat([]byte("x"), 100))
	keys := make([]string, 3)
	for i := range keys {
		keys[i], _ = Key("engine/1", i)
	}
	s.PutFile(keys[0], blob)
	s.PutFile(keys[1], blob)
	// Age entry 0, then touch it via Get so entry 1 becomes the LRU.
	old := time.Now().Add(-time.Hour)
	os.Chtimes(s.path(keys[0]), old, old)
	older := time.Now().Add(-2 * time.Hour)
	os.Chtimes(s.path(keys[1]), older, older)
	if _, ok, _ := s.Get(keys[0]); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	s.PutFile(keys[2], blob)
	if has(s, keys[1]) {
		t.Fatal("LRU entry survived eviction")
	}
	if !has(s, keys[0]) || !has(s, keys[2]) {
		t.Fatal("recently used entries evicted")
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	key, _ := Key("engine/1", 1)
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatal("nil store Get misbehaved")
	}
	if err := s.PutFile(key, "unused"); err != nil {
		t.Fatal(err)
	}
	if n, sz := s.Stats(); n != 0 || sz != 0 {
		t.Fatal("nil store Stats misbehaved")
	}
}

func TestMalformedKeyRejected(t *testing.T) {
	s, _ := Open(filepath.Join(t.TempDir(), "cache"), 0)
	src := blobFile(t, []byte("x"))
	for _, bad := range []string{"", "short", "../../etc/passwd", string(bytes.Repeat([]byte("Z"), 64))} {
		if err := s.PutFile(bad, src); err == nil {
			t.Errorf("PutFile accepted malformed key %q", bad)
		}
	}
}
