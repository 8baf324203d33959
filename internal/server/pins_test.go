package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/record_pins.json from this tree's responses")

// pinSpecs are the campaigns whose /records and /report answers are
// pinned: a paper-style Alg I campaign long enough for full 1000-record
// pages, and an Alg II campaign with mechanisms, a non-default model
// and detectors in its records.
var pinSpecs = []struct {
	name, spec string
	n          int
	filters    []string // one ?region=, ?element= and ?outcome= each
}{
	{"alg1", `{"variant":"alg1","n":1200,"seed":2001}`, 1200,
		[]string{"region=cache", "element=r9", "outcome=detected"}},
	{"alg2-pc-cfe", `{"variant":"alg2","n":300,"seed":9,"model":"pc","detector":"cfe+automaton"}`, 300,
		[]string{"region=registers", "element=pc", "outcome=overwritten"}},
}

// TestRecordResponsePins pins the bytes of every /records page shape
// and every /report form for finished campaigns as they are served
// freshly finished, from the result cache, and restored by a restart
// (both of those again), against testdata/record_pins.json. Run with
// -update-pins to rewrite the file.
func TestRecordResponsePins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1 500 experiments")
	}
	cfg := Options{Workers: 1, QueueDepth: 8,
		DataDir: t.TempDir(), JournalDir: t.TempDir(), CacheDir: t.TempDir()}
	got := map[string]string{}
	s1, ts1 := newTestServer(t, cfg)
	ids := make([][2]string, len(pinSpecs))
	for i, ps := range pinSpecs {
		fresh := submit(t, ts1, ps.spec)
		waitForState(t, ts1, fresh.ID, StateDone, 2*time.Minute)
		pinResponses(t, ts1, ps.name+"/fresh", fresh.ID, ps.n, ps.filters, got)
		hit := submit(t, ts1, ps.spec)
		if !hit.CacheHit {
			t.Fatalf("%s: resubmission was not a cache hit", ps.name)
		}
		pinResponses(t, ts1, ps.name+"/cache-hit", hit.ID, ps.n, ps.filters, got)
		ids[i] = [2]string{fresh.ID, hit.ID}
	}
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, cfg)
	for i, ps := range pinSpecs {
		pinResponses(t, ts2, ps.name+"/restored", ids[i][0], ps.n, ps.filters, got)
		pinResponses(t, ts2, ps.name+"/restored-cache-hit", ids[i][1], ps.n, ps.filters, got)
	}

	path := filepath.Join("testdata", "record_pins.json")
	if *updatePins {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: response %s, pinned %s", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d responses, %d pinned", len(got), len(want))
	}
}

// pinResponses fetches campaign id's record pages and reports and
// stores each answer's status and SHA-256 under prefix in got.
func pinResponses(t *testing.T, ts *httptest.Server, prefix, id string, n int, filters []string, got map[string]string) {
	t.Helper()
	base := ts.URL + "/api/v1/campaigns/" + id
	for _, offset := range []int{0, n / 2, n + 100} {
		for _, limit := range []int{1, 100, 1000} {
			q := fmt.Sprintf("/records?offset=%d&limit=%d", offset, limit)
			got[prefix+q] = responseDigest(t, base+q)
		}
	}
	queries := []string{"/report", "/report?format=table", "/report?region=image-code"} // the last matches nothing
	for _, f := range filters {
		queries = append(queries, "/report?"+f)
	}
	for _, q := range queries {
		got[prefix+q] = responseDigest(t, base+q)
	}
}

// responseDigest is "<status> <sha256 of the body>".
func responseDigest(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	return fmt.Sprintf("%d %s", resp.StatusCode, hex.EncodeToString(sum[:]))
}
