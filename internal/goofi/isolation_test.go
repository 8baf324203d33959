package goofi

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ctrlguard/internal/workload"
)

// chaosConfig is a small campaign with test-friendly retry timing.
func chaosConfig(n int, seed uint64) Config {
	return Config{
		Variant:      workload.AlgorithmI,
		Experiments:  n,
		Seed:         seed,
		Workers:      2,
		RetryBackoff: time.Millisecond,
		// Chaos tests count exact per-experiment retries/panics; pruning
		// would skip some experiments entirely.
		Ablate: LayerPrune,
	}
}

// TestChaosPanicRetriedToCleanResult kills (panics) every experiment's
// first attempt. Isolation must retry each one and the final records
// must be identical to an undisturbed campaign — a worker crash costs a
// retry, never a result.
func TestChaosPanicRetriedToCleanResult(t *testing.T) {
	const n, seed = 30, 11
	clean, err := Run(chaosConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Faults.Zero() {
		t.Fatalf("undisturbed campaign reported faults: %+v", clean.Faults)
	}

	var mu sync.Mutex
	firstAttempt := make(map[int]bool)
	cfg := chaosConfig(n, seed)
	cfg.Chaos = func(id, attempt int) {
		mu.Lock()
		defer mu.Unlock()
		if !firstAttempt[id] {
			firstAttempt[id] = true
			panic("chaos: worker killed mid-experiment")
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Panicked != n || res.Faults.Retried != n {
		t.Errorf("faults = %+v, want %d panicked and %d retried", res.Faults, n, n)
	}
	if res.Faults.Abandoned != 0 {
		t.Errorf("abandoned = %d, want 0 (every retry succeeds)", res.Faults.Abandoned)
	}
	if len(res.Records) != n {
		t.Fatalf("%d records, want %d", len(res.Records), n)
	}
	for i, rec := range res.Records {
		if rec != clean.Records[i] {
			t.Fatalf("record %d differs under chaos: %+v vs %+v", i, rec, clean.Records[i])
		}
	}
}

// TestChaosPersistentPanicAbandons makes one experiment panic on every
// attempt. It must be recorded as abandoned — with its injection
// coordinates and the panic message — while the rest of the campaign is
// untouched.
func TestChaosPersistentPanicAbandons(t *testing.T) {
	const n, seed, victim = 20, 5, 7
	clean, err := Run(chaosConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}

	cfg := chaosConfig(n, seed)
	cfg.Chaos = func(id, attempt int) {
		if id == victim {
			panic("chaos: unrecoverable worker bug")
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Abandoned != 1 {
		t.Fatalf("faults = %+v, want exactly 1 abandoned", res.Faults)
	}
	if want := DefaultExperimentRetries + 1; res.Faults.Panicked != want {
		t.Errorf("panicked = %d, want %d (initial attempt + retries)", res.Faults.Panicked, want)
	}
	for i, rec := range res.Records {
		if i == victim {
			if rec.Outcome != OutcomeAbandoned {
				t.Fatalf("victim outcome = %q, want %q", rec.Outcome, OutcomeAbandoned)
			}
			// The abandoned record still names the fault it stood for.
			want := clean.Records[victim]
			if rec.Region != want.Region || rec.Element != want.Element || rec.Bit != want.Bit || rec.At != want.At {
				t.Errorf("abandoned record lost its injection: %+v vs %+v", rec, want)
			}
			continue
		}
		if rec != clean.Records[i] {
			t.Fatalf("bystander record %d differs: %+v vs %+v", i, rec, clean.Records[i])
		}
	}
}

// TestChaosAbandonedRepresentative: in a pruned campaign, a class
// representative panics on every attempt. It is abandoned, so it cannot
// vouch for its class, and the members it stood for are simulated
// instead: each member's record equals the clean run's in every field
// but provenance, which reads simulated, and every other record is
// untouched.
func TestChaosAbandonedRepresentative(t *testing.T) {
	cfg := chaosConfig(2000, 11)
	cfg.Ablate = 0
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Prune == nil {
		t.Fatalf("the campaign declined pruning: %v", clean.Plan.Declined)
	}
	// The representative standing for the most members.
	classes := map[int][]int{}
	rep := -1
	for _, rec := range clean.Records {
		if id, ok := strings.CutPrefix(rec.Provenance, provenanceMemberPrefix); ok {
			r, _ := strconv.Atoi(id)
			classes[r] = append(classes[r], rec.ID)
			if rep < 0 || len(classes[r]) > len(classes[rep]) || len(classes[r]) == len(classes[rep]) && r < rep {
				rep = r
			}
		}
	}
	if rep < 0 {
		t.Fatal("the pruned campaign collapsed no class")
	}
	t.Logf("representative %d stands for %d members", rep, len(classes[rep]))

	cfg.Chaos = func(id, attempt int) {
		if id == rep {
			panic("chaos: representative crashes")
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Abandoned != 1 || res.Records[rep].Outcome != OutcomeAbandoned {
		t.Fatalf("faults = %+v, representative %d outcome %q; want it alone abandoned", res.Faults, rep, res.Records[rep].Outcome)
	}
	member := map[int]bool{}
	for _, m := range classes[rep] {
		member[m] = true
		rec := res.Records[m]
		if rec.Provenance != ProvenanceSimulated {
			t.Errorf("member %d provenance %q, want %q", m, rec.Provenance, ProvenanceSimulated)
		}
		rec.Provenance = clean.Records[m].Provenance
		if rec != clean.Records[m] {
			t.Errorf("member %d differs from the clean run: %+v vs %+v", m, rec, clean.Records[m])
		}
	}
	for i, rec := range res.Records {
		if i != rep && !member[i] && rec != clean.Records[i] {
			t.Fatalf("bystander record %d differs: %+v vs %+v", i, rec, clean.Records[i])
		}
	}
}

// TestChaosHungExperimentDeadline hangs one experiment's every attempt
// past the per-experiment deadline; isolation must time it out, retry,
// and finally abandon it without wedging the campaign.
func TestChaosHungExperimentDeadline(t *testing.T) {
	const n, seed, victim = 10, 3, 2
	cfg := chaosConfig(n, seed)
	// Generous against a real experiment's few milliseconds, tight
	// against the chaos hang.
	cfg.ExperimentTimeout = 250 * time.Millisecond
	cfg.ExperimentRetries = 1
	cfg.Chaos = func(id, attempt int) {
		if id == victim {
			time.Sleep(400 * time.Millisecond) // hang well past the deadline
		}
	}
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = Run(cfg)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign wedged on a hung experiment")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.TimedOut != 2 || res.Faults.Abandoned != 1 {
		t.Fatalf("faults = %+v, want 2 timed out (attempt + 1 retry), 1 abandoned", res.Faults)
	}
	if res.Records[victim].Outcome != OutcomeAbandoned {
		t.Fatalf("victim outcome = %q, want abandoned", res.Records[victim].Outcome)
	}
}

// TestResumeSkipsCompletedExperiments replays the server's restart
// path: a prefix of a previous run's records is passed as Resume, and
// the campaign must reuse them verbatim, re-run only the missing ones,
// and land byte-identical to an uninterrupted run.
func TestResumeSkipsCompletedExperiments(t *testing.T) {
	const n, seed = 40, 21
	clean, err := Run(chaosConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}

	cfg := chaosConfig(n, seed)
	cfg.Resume = append([]Record(nil), clean.Records[:25]...)
	var reused []Record
	cfg.OnResume = func(rs []Record) { reused = append(reused, rs...) }
	ran := make(map[int]bool)
	var mu sync.Mutex
	cfg.Chaos = func(id, attempt int) {
		mu.Lock()
		ran[id] = true
		mu.Unlock()
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Resumed != 25 || len(reused) != 25 {
		t.Fatalf("resumed = %d (OnResume saw %d), want 25", res.Faults.Resumed, len(reused))
	}
	for id := 0; id < 25; id++ {
		if ran[id] {
			t.Fatalf("experiment %d re-ran despite a resumable record", id)
		}
	}
	for id := 25; id < n; id++ {
		if !ran[id] {
			t.Fatalf("experiment %d never ran", id)
		}
	}
	for i, rec := range res.Records {
		if rec != clean.Records[i] {
			t.Fatalf("record %d differs after resume: %+v vs %+v", i, rec, clean.Records[i])
		}
	}
}

// TestResumeRejectsForeignAndAbandonedRecords: records from a different
// seed (mismatched injections) and abandoned placeholders must not be
// reused — both are re-run.
func TestResumeRejectsForeignAndAbandonedRecords(t *testing.T) {
	const n = 15
	foreign, err := Run(chaosConfig(n, 999)) // different seed -> different injections
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(chaosConfig(n, 4))
	if err != nil {
		t.Fatal(err)
	}

	cfg := chaosConfig(n, 4)
	cfg.Resume = append([]Record(nil), foreign.Records...)
	abandoned := clean.Records[3]
	abandoned.Outcome = OutcomeAbandoned
	cfg.Resume = append(cfg.Resume, abandoned)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Resumed != 0 {
		t.Fatalf("resumed %d foreign/abandoned records, want 0", res.Faults.Resumed)
	}
	for i, rec := range res.Records {
		if rec != clean.Records[i] {
			t.Fatalf("record %d wrong after rejecting foreign resume: %+v vs %+v", i, rec, clean.Records[i])
		}
	}
}

// TestResumeNewestRecordWins: when a record file holds two lines for
// one experiment (a crash between resume cycles), the later line is the
// newer re-run and must win.
func TestResumeNewestRecordWins(t *testing.T) {
	const n, seed = 10, 8
	clean, err := Run(chaosConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	stale := clean.Records[0]
	stale.Outcome = OutcomeAbandoned // old abandoned line...
	cfg := chaosConfig(n, seed)
	cfg.Resume = []Record{stale, clean.Records[0]} // ...then its good re-run
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Resumed != 1 {
		t.Fatalf("resumed = %d, want 1 (the newest line)", res.Faults.Resumed)
	}
	if res.Records[0] != clean.Records[0] {
		t.Fatalf("record 0 = %+v, want the re-run %+v", res.Records[0], clean.Records[0])
	}
}
