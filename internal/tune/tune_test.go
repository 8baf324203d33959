package tune

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"testing"

	"ctrlguard/internal/control"
	"ctrlguard/internal/stats"
)

// testSpec is a small, fast search space shared by the search tests:
// the unprotected baseline plus static rollback guards with and
// without a rate assertion.
func testSpec() Spec {
	return Spec{
		Space: Space{
			Policies:   []Policy{PolicyNone, PolicyRollback},
			Learned:    []bool{false},
			Slacks:     []float64{0},
			RateLimits: []float64{0, 8},
		},
		Seed:               17,
		InitialExperiments: 150,
		Rounds:             2,
		OverheadBudget:     1.5,
	}
}

func TestConfigIDAndNormalize(t *testing.T) {
	none := Config{Policy: PolicyNone, Slack: 0.5, RateLimit: 3, Learned: true}
	if got := none.normalize(); got != (Config{Policy: PolicyNone}) {
		t.Errorf("normalize(none) = %+v", got)
	}
	a := Config{Policy: PolicyRollback, Slack: 0.1, RateLimit: 8}
	b := Config{Policy: PolicyRollback, Learned: true, Slack: 0.1, RateLimit: 8}
	if a.ID() == b.ID() {
		t.Errorf("learned and static configs share ID %q", a.ID())
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Policy: "explode"}).Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := (Config{Policy: PolicyRollback, Slack: -1}).Validate(); err == nil {
		t.Error("negative slack accepted")
	}
	if err := (Config{Policy: PolicyRollback, RateLimit: -1}).Validate(); err == nil {
		t.Error("negative rate limit accepted")
	}
	if err := (Config{Policy: PolicySaturate, Slack: 0.1, RateLimit: 3}).Validate(); err != nil {
		t.Errorf("legal config rejected: %v", err)
	}
}

func TestSpaceCandidates(t *testing.T) {
	cands := DefaultSpace().Candidates()
	if cands[0].Policy != PolicyNone {
		t.Errorf("baseline not first: %+v", cands[0])
	}
	// 3 protected policies × 2 learned × 3 slacks × 3 rates + baseline.
	if want := 3*2*3*3 + 1; len(cands) != want {
		t.Errorf("candidates = %d, want %d", len(cands), want)
	}
	seen := make(map[string]bool)
	for _, c := range cands {
		if seen[c.ID()] {
			t.Errorf("duplicate candidate %s", c.ID())
		}
		seen[c.ID()] = true
		if err := c.Validate(); err != nil {
			t.Errorf("invalid candidate %s: %v", c.ID(), err)
		}
	}

	// Enumeration must be deterministic.
	again := DefaultSpace().Candidates()
	if !reflect.DeepEqual(cands, again) {
		t.Error("Candidates() order is not stable")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec (all defaults) rejected: %v", err)
	}
	if err := (Spec{Rounds: 99}).Validate(); err == nil {
		t.Error("absurd round count accepted")
	}
	if err := (Spec{InitialExperiments: -5}).Validate(); err == nil {
		t.Error("negative experiments accepted")
	}
	if err := (Spec{Space: Space{Policies: []Policy{"bogus"}}}).Validate(); err == nil {
		t.Error("bogus policy accepted")
	}
	one := Spec{Space: Space{Policies: []Policy{PolicyNone}}}
	if err := one.Validate(); err == nil {
		t.Error("baseline-only space accepted")
	}
}

// synthetic builds a Result with exact (large-n) proportions for
// dominance unit tests.
func synthetic(name string, severe, value, fp float64, overhead float64) Result {
	const n = 1000000
	prop := func(p float64) stats.Proportion {
		return stats.Proportion{Count: int(p * n), N: n}
	}
	return Result{
		Name:           name,
		Config:         Config{Policy: PolicyRollback, Slack: 0.1},
		Severe:         prop(severe),
		ValueFailures:  prop(value),
		FalsePositives: prop(fp),
		Overhead:       overhead,
	}
}

func TestDominates(t *testing.T) {
	better := synthetic("better", 0.01, 0.10, 0.00, 0.4)
	worse := synthetic("worse", 0.05, 0.12, 0.01, 0.6)
	mixed := synthetic("mixed", 0.005, 0.15, 0.00, 0.4) // better severe, worse value rate
	if !Dominates(better, worse) {
		t.Error("better should dominate worse")
	}
	if Dominates(worse, better) {
		t.Error("worse should not dominate better")
	}
	if Dominates(better, mixed) || Dominates(mixed, better) {
		t.Error("trade-off pair should be mutually non-dominated")
	}
	if Dominates(better, better) {
		t.Error("a result must not dominate itself")
	}
}

func TestConfidentDominanceRespectsNoise(t *testing.T) {
	// Ten experiments each: hugely overlapping intervals. Point-wise
	// one dominates, but neither may confidently prune the other.
	small := func(name string, severeCount int) Result {
		return Result{
			Name:           name,
			Severe:         stats.Proportion{Count: severeCount, N: 10},
			ValueFailures:  stats.Proportion{Count: severeCount, N: 10},
			FalsePositives: stats.Proportion{Count: 0, N: 650},
			Overhead:       0.4,
		}
	}
	a, b := small("a", 1), small("b", 2)
	if !Dominates(a, b) {
		t.Fatal("a should point-wise dominate b")
	}
	if ConfidentlyDominates(a, b) {
		t.Error("overlapping intervals must not prune")
	}

	// A million experiments: the same rates separate cleanly.
	bigA := synthetic("bigA", 0.1, 0.1, 0.0, 0.4)
	bigB := synthetic("bigB", 0.2, 0.2, 0.0, 0.4)
	if !ConfidentlyDominates(bigA, bigB) {
		t.Error("separated intervals should prune")
	}

	// An unmeasured proportion (n = 0) spans [0, 1]: nothing can be
	// confidently better than it on that metric, and it cannot prune.
	unknown := synthetic("unknown", 0.1, 0.1, 0.0, 0.4)
	unknown.FalsePositives = stats.Proportion{}
	if ConfidentlyDominates(bigA, unknown) || ConfidentlyDominates(unknown, bigA) {
		t.Error("unmeasured metrics must block confident pruning")
	}
}

func TestParetoFront(t *testing.T) {
	rs := []Result{
		synthetic("a", 0.01, 0.10, 0.00, 0.8),
		synthetic("b", 0.05, 0.12, 0.00, 0.2), // cheaper but weaker: on the front
		synthetic("c", 0.05, 0.12, 0.01, 0.9), // dominated by both
	}
	front := ParetoFront(rs)
	if len(front) != 2 || front[0].Name != "a" || front[1].Name != "b" {
		t.Errorf("front = %v", names(front))
	}
	if got := ParetoFront(nil); got != nil {
		t.Errorf("empty front = %v", got)
	}
}

func names(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}

func TestTuneEvaluateGuardBeatsBaseline(t *testing.T) {
	ev := NewEvaluator(17)
	const n = 400
	rs, err := ev.EvaluateAll(context.Background(), []Config{
		{Policy: PolicyNone},
		{Policy: PolicyRollback},
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	bare, guarded := rs[0], rs[1]
	if bare.Severe.N != n || guarded.Severe.N != n {
		t.Fatalf("campaign sizes: bare %d, guarded %d, want %d", bare.Severe.N, guarded.Severe.N, n)
	}
	if bare.Severe.Count == 0 {
		t.Fatal("unprotected baseline shows no severe failures; campaign too easy to discriminate")
	}
	if guarded.Severe.P() >= bare.Severe.P() {
		t.Errorf("guard severe rate %v not below baseline %v", guarded.Severe, bare.Severe)
	}
	if bare.Overhead != 0 || bare.FalsePositives.Count != 0 {
		t.Errorf("baseline must be free: %+v", bare)
	}
	if guarded.Overhead <= 0 {
		t.Errorf("guarded overhead = %v, want > 0", guarded.Overhead)
	}
	if guarded.FalsePositives.N == 0 {
		t.Error("false positives unmeasured for the guarded candidate")
	}
}

// TestTuneEvaluateOrderIndependent checks the per-candidate seeding
// contract: a candidate's measurements must not depend on what else is
// in the batch or where it sits.
func TestTuneEvaluateOrderIndependent(t *testing.T) {
	cfg := Config{Policy: PolicyRollback, RateLimit: 8}
	ev1 := NewEvaluator(17)
	solo, err := ev1.Evaluate(context.Background(), cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := NewEvaluator(17)
	batch, err := ev2.EvaluateAll(context.Background(), []Config{
		{Policy: PolicyNone},
		{Policy: PolicySaturate},
		cfg,
	}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo, batch[2]) {
		t.Errorf("candidate result depends on batch position:\nsolo  %+v\nbatch %+v", solo, batch[2])
	}
}

// TestTuneSearchDeterministic is the reproducibility acceptance
// criterion: with a fixed seed, two independent searches must produce
// identical Pareto fronts (indeed identical outcomes).
func TestTuneSearchDeterministic(t *testing.T) {
	a, err := Search(context.Background(), testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(context.Background(), testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Front, b.Front) {
		t.Errorf("Pareto fronts differ across runs:\n%v\n%v", names(a.Front), names(b.Front))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("outcomes differ across runs with a fixed seed")
	}
}

// TestTuneSearchRecommendationDominatesBaseline is the quality
// acceptance criterion: the recommended configuration must strictly
// beat unprotected Algorithm I on severe-failure rate while keeping
// the modelled runtime overhead within the configured budget.
func TestTuneSearchRecommendationDominatesBaseline(t *testing.T) {
	spec := testSpec()
	out, err := Search(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Recommended == nil {
		t.Fatalf("no recommendation; front = %v", names(out.Front))
	}
	rec, base := *out.Recommended, out.Baseline
	if base.Config.Policy != PolicyNone {
		t.Fatalf("baseline is %+v, want the unprotected configuration", base.Config)
	}
	if rec.Severe.P() >= base.Severe.P() {
		t.Errorf("recommended severe rate %v does not strictly beat the baseline's %v",
			rec.Severe, base.Severe)
	}
	if rec.Overhead > spec.OverheadBudget {
		t.Errorf("recommended overhead %v exceeds the budget %v", rec.Overhead, spec.OverheadBudget)
	}
	if len(out.Front) == 0 || len(out.Results) == 0 {
		t.Error("search returned no results")
	}
	for _, r := range out.Front {
		for _, other := range out.Results {
			if Dominates(other, r) {
				t.Errorf("front member %s is dominated by %s", r.Name, other.Name)
			}
		}
	}
}

func TestTuneSearchProgressAndRounds(t *testing.T) {
	spec := testSpec()
	var calls int
	var lastDone, lastTotal int
	out, err := Search(context.Background(), spec, func(done, total int) {
		calls++
		lastDone, lastTotal = done, total
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if lastDone != out.Evaluations || lastDone > lastTotal {
		t.Errorf("final progress %d/%d, evaluations %d", lastDone, lastTotal, out.Evaluations)
	}
	if len(out.Rounds) != spec.Rounds {
		t.Errorf("rounds = %d, want %d", len(out.Rounds), spec.Rounds)
	}
	if out.Rounds[1].Experiments != 2*spec.InitialExperiments {
		t.Errorf("round 1 experiments = %d, want doubled %d",
			out.Rounds[1].Experiments, 2*spec.InitialExperiments)
	}
}

// crashOnFault is a controller that panics on every Update after its
// state has been written, so every injected fault crashes it.
type crashOnFault struct {
	control.Stateful
	hit bool
}

func (c *crashOnFault) SetState(x []float64) { c.hit = true; c.Stateful.SetState(x) }

func (c *crashOnFault) Update(in []float64) []float64 {
	if c.hit {
		panic("crashOnFault: state written")
	}
	return c.Stateful.Update(in)
}

// TestTuneEvaluateRejectsCrashingCandidate: abandoned experiments count
// toward a campaign's size but never as failures, so a candidate whose
// controller panics must fail the evaluation, naming the candidate and
// its abandoned count, rather than be scored as unusually safe.
func TestTuneEvaluateRejectsCrashingCandidate(t *testing.T) {
	ev := NewEvaluator(17)
	ev.wrap = func(c control.Stateful) control.Stateful { return &crashOnFault{Stateful: c} }
	_, err := ev.EvaluateAll(context.Background(), []Config{{Policy: PolicyNone}, {Policy: PolicyRollback}}, 20)
	if err == nil {
		t.Fatal("a candidate whose controller panics on every fault was scored")
	}
	if !regexp.MustCompile(`candidate none: [1-9][0-9]* of 20 experiments abandoned`).MatchString(err.Error()) {
		t.Errorf("error %q does not name the candidate and its abandoned count", err)
	}
}

func TestTuneSearchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, testSpec(), nil); err == nil {
		t.Error("cancelled search reported success")
	}
}

func TestResultsStoreRoundTrip(t *testing.T) {
	in := []Result{
		synthetic("a", 0.01, 0.1, 0.0, 0.4),
		{Name: "study-design", Experiments: 100,
			Severe: stats.Proportion{Count: 3, N: 100}},
	}
	var buf bytes.Buffer
	if err := WriteResults(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
}

func TestReadResultsRejectsGarbage(t *testing.T) {
	if _, err := ReadResults(bytes.NewBufferString("{\"name\":\"ok\"}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}
