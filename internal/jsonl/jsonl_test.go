package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type rec struct {
	ID  int    `json:"id"`
	Tag string `json:"tag,omitempty"`
}

func lines(t testing.TB, vs ...rec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, vs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// same reports whether a and b hold the same values, nil and empty
// alike.
func same(a, b []rec) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestAppenderTornTailSweep is I/O fault injection on the shared log: a
// writer that dies after byte N of a 3-value file, for every N. Read
// must return exactly the values whose lines are whole, with a
// *TruncatedError iff part of a line is left. Open, Append, Close and
// Open again must then yield exactly the newline-terminated values
// before N plus the new one, in a file holding exactly their lines:
// never an error, never a lost acknowledged value.
func TestAppenderTornTailSweep(t *testing.T) {
	vals := []rec{{ID: 0, Tag: "a"}, {ID: 1}, {ID: 2, Tag: "ccc"}}
	full := lines(t, vals...)
	added := rec{ID: 9, Tag: "new"}
	dir := t.TempDir()
	for n := 0; n <= len(full); n++ {
		cut := full[:n]
		terminated := cut[:bytes.LastIndexByte(cut, '\n')+1]
		acked := vals[:bytes.Count(cut, []byte("\n"))]
		// A value is whole once its closing brace is in: the cut may
		// stop right before its newline.
		whole := vals[:bytes.Count(full[:min(n+1, len(full))], []byte("\n"))]
		torn := len(whole) == len(acked) && n > len(terminated)

		read, err := Read[rec](bytes.NewReader(cut))
		var trunc *TruncatedError
		if !same(read, whole) || torn != errors.As(err, &trunc) || !torn && err != nil {
			t.Fatalf("cut at %d: Read %+v, %v; want %+v, torn %v", n, read, err, whole, torn)
		}

		path := filepath.Join(dir, fmt.Sprintf("cut%03d.jsonl", n))
		if err := os.WriteFile(path, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		a, replayed, err := Open[rec](path, 1)
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", n, err)
		}
		if !same(replayed, acked) {
			t.Fatalf("cut at %d: replayed %+v, want %+v", n, replayed, acked)
		}
		if err := a.Append(added); err != nil {
			t.Fatalf("cut at %d: Append: %v", n, err)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("cut at %d: Close: %v", n, err)
		}
		a2, got, err := Open[rec](path, 1)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", n, err)
		}
		a2.Close()
		if want := append(acked[:len(acked):len(acked)], added); !same(got, want) {
			t.Fatalf("cut at %d: reopened to %+v, want %+v", n, got, want)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(append([]byte(nil), terminated...), lines(t, added)...); !bytes.Equal(b, want) {
			t.Fatalf("cut at %d: file %q, want %q", n, b, want)
		}
	}
}

// FuzzAppenderOpen: for any file contents, Open either fails, or it
// accepts an append after which the log reopens to exactly the values
// it replayed plus the new one.
func FuzzAppenderOpen(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"id\":1}\n{\"id\":2,\"tag\":\"b\"}\n"))
	f.Add([]byte("{\"id\":1}\n{\"id\":2,\"tag\":\"b\"}"))
	f.Add([]byte("{\"id\":1}\n{\"id\":2,\"ta"))
	f.Add([]byte("\n \r\nnull\n{}\nGARBAGE\n \n"))
	f.Add([]byte("{\"id\":1}\nX\xc2\n\xa0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		a, replayed, err := Open[rec](path, 2)
		if err != nil {
			return
		}
		added := rec{ID: len(replayed), Tag: "fuzz"}
		err = a.Append(added)
		if cerr := a.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("append after a clean open: %v", err)
		}
		a2, got, err := Open[rec](path, 2)
		if err != nil {
			t.Fatalf("reopen after an acknowledged append: %v", err)
		}
		a2.Close()
		want, err := json.Marshal(append(replayed, added))
		if err != nil {
			t.Fatal(err)
		}
		if g, err := json.Marshal(got); err != nil || string(g) != string(want) {
			t.Fatalf("reopened to %s, want %s (%v)", g, want, err)
		}
	})
}
