package tenant

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryResolve(t *testing.T) {
	reg, err := NewRegistry([]Tenant{
		{Name: "acme", Key: "ka", Weight: 2},
		{Name: "umbrella", Key: "ku"},
		{Name: "guest"}, // anonymous
	})
	if err != nil {
		t.Fatal(err)
	}
	for header, want := range map[string]string{
		"ka":          "acme",
		"Bearer ka":   "acme",
		" Bearer ku ": "umbrella",
		"":            "guest",
	} {
		got, err := reg.Resolve(header)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", header, err)
		}
		if got.Name != want {
			t.Errorf("Resolve(%q) = %s, want %s", header, got.Name, want)
		}
	}
	if _, err := reg.Resolve("nope"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("unknown key resolved: %v", err)
	}
	if ten, ok := reg.Lookup("acme"); !ok || ten.Weight != 2 {
		t.Errorf("Lookup(acme) = %+v, %v", ten, ok)
	}
}

func TestRegistryOpenModeAndValidation(t *testing.T) {
	open, err := NewRegistry(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !open.Open() {
		t.Fatal("empty registry not open")
	}
	ten, err := open.Resolve("anything")
	if err != nil || ten.Name != DefaultName {
		t.Fatalf("open registry resolved %+v, %v; want default tenant", ten, err)
	}

	for name, bad := range map[string][]Tenant{
		"dup name":   {{Name: "a", Key: "1"}, {Name: "a", Key: "2"}},
		"dup key":    {{Name: "a", Key: "1"}, {Name: "b", Key: "1"}},
		"two anon":   {{Name: "a"}, {Name: "b"}},
		"no name":    {{Key: "1"}},
		"neg limit":  {{Name: "a", Key: "1", MaxQueuedJobs: -1}},
		"padded key": {{Name: "a", Key: " 1"}},
		"bearer key": {{Name: "a", Key: "Bearer 1"}},
	} {
		if _, err := NewRegistry(bad); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	cfg := []Tenant{{Name: "acme", Key: "ka", Weight: 3, RatePerSec: 10, MaxQueuedJobs: 5}}
	b, _ := json.Marshal(cfg)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != cfg[0] {
		t.Fatalf("LoadFile = %+v, want %+v", got, cfg)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
	os.WriteFile(path, []byte(`[{"name":"a"},{"name":"b"}]`), 0o644)
	if _, err := LoadFile(path); err == nil {
		t.Error("invalid config (two anonymous tenants) loaded")
	}
}

// FuzzLoadFile: no tenant file makes LoadFile panic, and a file it
// accepts builds a registry that resolves every configured key, raw or
// as a bearer token, back to its own tenant.
func FuzzLoadFile(f *testing.F) {
	f.Add([]byte(`[{"name":"acme","key":"ka","weight":3,"ratePerSec":10,"maxQueuedJobs":5}]`))
	f.Add([]byte(`[{"name":"a"},{"name":"b"}]`))
	f.Add([]byte(`[{"name":"acme","key":"ka"}]`))
	f.Add([]byte(`[{"name":"acme","key":"ka"},{"name":"guest","burst":2,"noCache":true}]`))
	f.Add([]byte(`[{"name":"acme","key":" ka"}]`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "tenants.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tenants, err := LoadFile(path)
		if err != nil {
			return
		}
		reg, err := NewRegistry(tenants)
		if err != nil {
			t.Fatalf("LoadFile accepted a set NewRegistry rejects: %v", err)
		}
		for _, ten := range tenants {
			if ten.Key == "" {
				continue
			}
			for _, header := range []string{ten.Key, "Bearer " + ten.Key} {
				if got, err := reg.Resolve(header); err != nil || got != ten {
					t.Fatalf("Resolve(%q) = %+v, %v; want tenant %+v", header, got, err, ten)
				}
			}
		}
	})
}

// TestLoadFileSizeBound: a config of up to fileLimit bytes loads, one
// byte more is refused with a clean error before it is parsed.
func TestLoadFileSizeBound(t *testing.T) {
	valid := `[{"name":"acme","key":"ka"}]`
	for _, tc := range []struct {
		name    string
		size    int
		wantErr string
	}{
		{"small", len(valid), ""},
		{"at limit", fileLimit, ""},
		{"one past limit", fileLimit + 1, "exceeds"},
		{"far past limit", 4 * fileLimit, "exceeds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Pad the valid config with trailing whitespace to the size.
			b := append([]byte(valid), bytes.Repeat([]byte(" "), tc.size-len(valid))...)
			path := filepath.Join(t.TempDir(), "tenants.json")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := LoadFile(path)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("LoadFile(%d bytes): %v", tc.size, err)
			case tc.wantErr == "" && (len(got) != 1 || got[0].Name != "acme"):
				t.Fatalf("LoadFile(%d bytes) = %+v", tc.size, got)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("LoadFile(%d bytes): err = %v, want %q", tc.size, err, tc.wantErr)
			}
		})
	}
}

func TestBucketRateAndRetryAfter(t *testing.T) {
	b := NewBucket(2, 2) // 2/s, burst 2
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(now); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := b.Allow(now)
	if ok {
		t.Fatal("empty bucket admitted a request")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s] at 2 tokens/s", retry)
	}
	// Half a second refills one token at 2/s.
	if ok, _ := b.Allow(now.Add(500 * time.Millisecond)); !ok {
		t.Fatal("refilled bucket rejected a request")
	}
	// An unlimited bucket never rejects.
	u := NewBucket(0, 0)
	for i := 0; i < 1000; i++ {
		if ok, _ := u.Allow(now); !ok {
			t.Fatal("unlimited bucket rejected")
		}
	}
}

func TestBucketDefaultBurst(t *testing.T) {
	b := NewBucket(2.5, 0)
	now := time.Unix(0, 0)
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := b.Allow(now); ok {
			admitted++
		}
	}
	if admitted != 3 { // ceil(2.5)
		t.Fatalf("default burst admitted %d, want 3", admitted)
	}
}

// TestFairQueueWeightedShares pins the scheduler's core property: under
// saturation, dispatches per tenant are exactly proportional to weight.
func TestFairQueueWeightedShares(t *testing.T) {
	q := NewFairQueue[string](1000)
	weights := map[string]int{"a": 1, "b": 2, "c": 3}
	for name, w := range weights {
		for i := 0; i < 200; i++ {
			if err := q.Push(name, w, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := map[string]int{}
	for i := 0; i < 120; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		counts[v]++
	}
	// 120 dispatches at weights 1:2:3 → 20/40/60, ±1 for stride phase.
	for name, w := range weights {
		want := 120 * w / 6
		if diff := counts[name] - want; diff < -1 || diff > 1 {
			t.Errorf("tenant %s dispatched %d of 120, want %d±1 (weight %d)", name, counts[name], want, w)
		}
	}
}

// TestFairQueueNoStarvation: a tenant that floods the queue cannot
// delay a light tenant's single job behind its backlog.
func TestFairQueueNoStarvation(t *testing.T) {
	q := NewFairQueue[string](1000)
	for i := 0; i < 500; i++ {
		q.Push("flood", 1, "flood")
	}
	// Drain a few so the flood tenant's pass is well ahead.
	for i := 0; i < 10; i++ {
		q.Pop()
	}
	q.Push("light", 1, "light")
	// The light tenant joins at the current virtual time and must be
	// served within its fair share — here, within 2 dispatches.
	for i := 0; i < 2; i++ {
		if v, _ := q.Pop(); v == "light" {
			return
		}
	}
	t.Fatal("light tenant's job starved behind the flood")
}

func TestFairQueueCapacityAndFIFOWithinTenant(t *testing.T) {
	q := NewFairQueue[int](3)
	for i := 0; i < 3; i++ {
		if err := q.Push("a", 1, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push("b", 1, 99); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity push: %v, want ErrFull", err)
	}
	q.PushRecovered("b", 1, 100) // recovered jobs bypass the bound
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	// Within one tenant, order is FIFO.
	var aSeen []int
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		if v < 99 {
			aSeen = append(aSeen, v)
		}
	}
	for i, v := range aSeen {
		if v != i {
			t.Fatalf("tenant a order %v, want FIFO", aSeen)
		}
	}
}

func TestFairQueueCloseAndDrain(t *testing.T) {
	q := NewFairQueue[int](10)
	for i := 0; i < 4; i++ {
		q.Push("a", 1, i)
	}

	// A blocked Pop wakes with ok == false on Close.
	empty := NewFairQueue[int](1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, ok := empty.Pop(); ok {
			t.Error("Pop on closed empty queue reported ok")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	empty.Close()
	wg.Wait()

	q.Close()
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after Close returned an item; Drain owns them")
	}
	got := q.Drain()
	if len(got) != 4 {
		t.Fatalf("Drain returned %d items, want 4", len(got))
	}
	if q.Len() != 0 {
		t.Fatalf("Len after Drain = %d", q.Len())
	}
}

// TestFairQueueConcurrent exercises the queue under the race detector:
// concurrent pushers and poppers, then a close.
func TestFairQueueConcurrent(t *testing.T) {
	q := NewFairQueue[int](10000)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			name := string(rune('a' + p))
			for i := 0; i < 250; i++ {
				q.Push(name, p+1, i)
			}
		}(p)
	}
	var popped sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for c := 0; c < 3; c++ {
		popped.Add(1)
		go func() {
			defer popped.Done()
			for {
				if _, ok := q.Pop(); !ok {
					return
				}
				mu.Lock()
				total++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for q.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	popped.Wait()
	if total != 1000 {
		t.Fatalf("popped %d items, want 1000", total)
	}
}
