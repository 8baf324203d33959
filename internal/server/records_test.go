package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/jsonl"
)

// TestRunningViewCountsRecords holds a campaign mid-run and checks that
// its view counts exactly the records /records already serves from its
// live segments, for a fixed-count campaign and for a precision-driven
// one whose first batch is complete.
func TestRunningViewCountsRecords(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		holdBatch  int32 // the batch whose experiments from 20 on block
	}{
		{"fixed", `{"variant":"alg1","n":300,"seed":5}`, 0},
		{"precision", `{"variant":"alg1","precision":1e-9,"maxExperiments":1500,"seed":7}`, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			var batches atomic.Int32
			hook := func(cfg *goofi.Config) {
				// The hook is applied once per run, so once per batch.
				if batches.Add(1)-1 != tc.holdBatch {
					return
				}
				cfg.Chaos = func(id, _ int) {
					if id >= 20 {
						<-release
					}
				}
			}
			_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, DataDir: t.TempDir(), ConfigHook: hook})
			var once sync.Once
			t.Cleanup(func() { once.Do(func() { close(release) }) })
			v := submit(t, ts, tc.spec)
			held := waitForHold(t, ts, v.ID)
			view, total := recordCounts(t, ts, v.ID)
			if total == 0 || view != total || held != total {
				t.Fatalf("held at %d done: view counts %d records, /records totals %d", held, view, total)
			}
			once.Do(func() { close(release) })
			waitForState(t, ts, v.ID, StateDone, 2*time.Minute)
		})
	}
}

// waitForHold waits until a running campaign's progress has stood still
// for a while and returns its done count.
func waitForHold(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	last, since := -1, time.Now()
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		var v View
		getJSON(t, ts.URL+"/api/v1/campaigns/"+id, &v)
		if v.State.Terminal() {
			t.Fatalf("campaign %s finished (%s) instead of holding", id, v.State)
		}
		if v.State != StateRunning || v.Done != last {
			last, since = v.Done, time.Now()
			continue
		}
		if v.Done > 0 && time.Since(since) > 300*time.Millisecond {
			return v.Done
		}
	}
	t.Fatalf("campaign %s never held still", id)
	return 0
}

// TestRecordPageHeapBounded: a daemon's live heap does not grow with
// the records of the campaigns it has finished, whether they ran or
// came from the result cache. After 4 and then 16 finished n=1000
// campaigns, every second one a cache hit, each reported and paged
// through, the 12 000 extra records may cost far less than the ~259 B
// a decoded record holds.
func TestRecordPageHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 8 000 experiments")
	}
	const n, perRecord = 1000, 64
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16, DataDir: t.TempDir(), CacheDir: t.TempDir()})
	seed := 0
	run := func(count int) {
		for i := 0; i < count; i++ {
			if i%2 == 0 { // a new seed runs; the next submission hits the cache
				seed++
			}
			v := submit(t, ts, fmt.Sprintf(`{"variant":"alg1","n":%d,"seed":%d}`, n, seed))
			if v.CacheHit != (i%2 == 1) {
				t.Fatalf("campaign %s: cache hit %v", v.ID, v.CacheHit)
			}
			waitForState(t, ts, v.ID, StateDone, 2*time.Minute)
			var rep struct {
				Records int `json:"records"`
			}
			getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/report", &rep)
			var page struct {
				Count int `json:"count"`
			}
			getJSON(t, ts.URL+"/api/v1/campaigns/"+v.ID+"/records?limit=1000", &page)
			if rep.Records != n || page.Count != n {
				t.Fatalf("campaign %s: report covers %d records, page holds %d, want %d", v.ID, rep.Records, page.Count, n)
			}
		}
	}
	run(4)
	before := liveHeap()
	run(12)
	after := liveHeap()
	t.Logf("live heap %d B after 4 campaigns, %d B after 16", before, after)
	if grew, limit := int64(after)-int64(before), int64(12*n*perRecord); grew > limit {
		t.Fatalf("live heap grew %d B over 12 000 more finished records, limit %d B", grew, limit)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// FuzzRecordPage: whatever bytes a finished campaign's record file
// holds, torn tail included, /records serves what goofi.LoadRecords
// reads from them: the same total, in the view too, a page of the same
// records that encodes as JSON, and an error exactly where LoadRecords
// finds the file corrupt.
func FuzzRecordPage(f *testing.F) {
	var buf bytes.Buffer
	if err := goofi.WriteRecords(&buf, []goofi.Record{
		{ID: 0, Variant: "alg1", Region: "cache", Element: "line0.data0", Bit: 3, At: 120, Outcome: "overwritten"},
		{ID: 1, Variant: "alg1", Region: "registers", Element: "pc", Bit: 7, At: 99, Outcome: "detected",
			Mechanism: "signature", MaxDev: 0.25, Model: "pc", Provenance: "simulated"},
		{ID: 2, Variant: "alg1", Region: "registers", Element: "r5", Bit: 31, At: 7, Outcome: "uwr-permanent", MaxDev: 1e300},
	}); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	for _, data := range [][]byte{
		whole,
		whole[:len(whole)-1],  // the final newline lost
		whole[:len(whole)-20], // a torn final record
		append(append([]byte("\n  \n"), whole...), " \r\n\n"...),
		append([]byte(`{"id":0,"region":"cache"`+"\n"), whole...), // a corrupt first line
		[]byte("null\n[]\n"),
		nil,
	} {
		f.Add(data, uint16(1), uint16(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, offset, limit uint16) {
		path := filepath.Join(t.TempDir(), "c000001.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, werr := goofi.LoadRecords(path)
		c := &Campaign{Kind: KindCampaign, dataPath: path}
		lim := int(limit)%recordsMaxLimit + 1
		page, total, err := c.RecordPage(int(offset), lim)
		var trunc *jsonl.TruncatedError
		if werr != nil && !errors.As(werr, &trunc) {
			if err == nil {
				t.Fatalf("LoadRecords: %v, but a page of %d records served", werr, total)
			}
			return
		}
		if err != nil {
			t.Fatalf("LoadRecords read %d records, page: %v", len(want), err)
		}
		if view := c.Snapshot().Records; total != len(want) || view != total {
			t.Fatalf("total %d, view %d, LoadRecords %d", total, view, len(want))
		}
		lo := min(int(offset), total)
		if hi := min(lo+lim, total); len(page) != hi-lo {
			t.Fatalf("offset %d limit %d: page of %d, want %d", offset, lim, len(page), hi-lo)
		}
		for i, raw := range page {
			var rec goofi.Record
			if err := json.Unmarshal(raw, &rec); err != nil || !reflect.DeepEqual(rec, want[lo+i]) {
				t.Fatalf("record %d: page holds %s (%v), LoadRecords %+v", lo+i, raw, err, want[lo+i])
			}
		}
		// The handler lays the page out as JSON that reads back the same.
		srv := &Server{mgr: &Manager{jobs: map[string]*Campaign{"c000001": c}}}
		req := httptest.NewRequest("GET", fmt.Sprintf("/records?offset=%d&limit=%d", offset, lim), nil)
		req.SetPathValue("id", "c000001")
		rr := httptest.NewRecorder()
		srv.handleRecords(rr, req)
		var body struct {
			Total, Count int
			Records      []goofi.Record
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || rr.Code != 200 {
			t.Fatalf("/records answered %d %q: %v", rr.Code, rr.Body.Bytes(), err)
		}
		if body.Total != total || body.Count != len(page) || len(body.Records) != len(page) ||
			(len(page) > 0 && !reflect.DeepEqual(body.Records, want[lo:lo+len(page)])) {
			t.Fatalf("/records answered total %d count %d, want %d records of %d", body.Total, body.Count, len(page), total)
		}
	})
}

// TestMemoizationUnwritableHitRunsForReal: a cache hit whose record
// file cannot be written is no hit. The submission runs for real under
// the next ID and ends with the same records.
func TestMemoizationUnwritableHitRunsForReal(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, DataDir: dataDir, CacheDir: t.TempDir()})
	const spec = `{"variant":"alg1","n":60,"seed":42}`
	v1 := submit(t, ts, spec)
	waitForState(t, ts, v1.ID, StateDone, time.Minute)
	// A directory where the hit's file would go makes its write fail.
	if err := os.MkdirAll(filepath.Join(dataDir, "c000002.jsonl", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	v2 := submit(t, ts, spec)
	if v2.CacheHit || v2.ID != "c000003" {
		t.Fatalf("unwritable hit answered as %s, cache hit %v", v2.ID, v2.CacheHit)
	}
	waitForState(t, ts, v2.ID, StateDone, time.Minute)
	if view, total := recordCounts(t, ts, v2.ID); view != 60 || total != 60 {
		t.Fatalf("the real run's view counts %d records, /records %d, want 60", view, total)
	}
	want, _ := os.ReadFile(filepath.Join(dataDir, v1.ID+".jsonl"))
	if got, err := os.ReadFile(filepath.Join(dataDir, v2.ID+".jsonl")); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the real run's record file differs from the first run's (%v)", err)
	}
}

// TestMemoizationTruncatedEntryRunsForReal: a cache entry cut short at
// a record boundary still parses, so only its record count and IDs
// show it is not the whole campaign. Cut to n-1 records or emptied, it
// is a miss and the campaign runs for real, into the same bytes, which
// replace the entry, so the next submission is a hit again.
func TestMemoizationTruncatedEntryRunsForReal(t *testing.T) {
	dataDir, cacheDir := t.TempDir(), t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, DataDir: dataDir, CacheDir: cacheDir})
	const spec = `{"variant":"alg1","n":60,"seed":42}`
	v1 := submit(t, ts, spec)
	waitForState(t, ts, v1.ID, StateDone, time.Minute)
	want, err := os.ReadFile(filepath.Join(dataDir, v1.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	blobs, _ := filepath.Glob(filepath.Join(cacheDir, "*.blob"))
	if len(blobs) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(blobs))
	}
	lastRecord := bytes.LastIndexByte(want[:len(want)-1], '\n') + 1
	for i, cut := range []int{lastRecord, 0} {
		if err := os.WriteFile(blobs[0], want[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		v := submit(t, ts, spec)
		if v.CacheHit {
			t.Fatalf("entry cut to %d bytes served as a cache hit", cut)
		}
		waitForState(t, ts, v.ID, StateDone, time.Minute)
		if view, total := recordCounts(t, ts, v.ID); view != 60 || total != 60 {
			t.Fatalf("entry cut to %d bytes: the real run's view counts %d records, /records %d, want 60", cut, view, total)
		}
		if got, err := os.ReadFile(filepath.Join(dataDir, v.ID+".jsonl")); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("entry cut to %d bytes: the real run's record file differs from the first run's (%v)", cut, err)
		}
		if mm := metricsMap(t, ts); mm["cache_hits"] != 0 || mm["cache_misses"] != float64(i+2) {
			t.Fatalf("cache_hits = %v, cache_misses = %v, want 0 and %d", mm["cache_hits"], mm["cache_misses"], i+2)
		}
	}
	// The real run repaired the entry: the next submission is a hit
	// that serves the whole campaign's bytes.
	if blob, err := os.ReadFile(blobs[0]); err != nil || !bytes.Equal(blob, want) {
		t.Fatalf("the real run left a %d-byte entry, want the campaign's %d bytes (%v)", len(blob), len(want), err)
	}
	v := submit(t, ts, spec)
	if !v.CacheHit {
		t.Fatal("the repaired entry was not served as a cache hit")
	}
	if got, err := os.ReadFile(filepath.Join(dataDir, v.ID+".jsonl")); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the cache hit's record file differs from the first run's (%v)", err)
	}
}
