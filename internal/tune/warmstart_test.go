package tune

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ctrlguard/internal/control"
	"ctrlguard/internal/goofi"
)

// campaignConfigs are the controller shapes the evaluator's campaigns
// run: bare PI, and guards over static or learned assertions with and
// without rate limits.
var campaignConfigs = []Config{
	{Policy: PolicyNone},
	{Policy: PolicyRollback, Slack: 0.1},
	{Policy: PolicyRollback, Slack: 0.1, RateLimit: 8},
	{Policy: PolicyFreeze, Learned: true, Slack: 0.2},
	{Policy: PolicySaturate, Learned: true, Slack: 0.2, RateLimit: 5},
}

// TestCampaignControllersAreCloneable guards the tuner's free ride on
// the warm-started variable campaigns: every controller shape the
// evaluator hands to goofi.RunVariableBatch — bare PI, and guards over
// static or learned assertions with and without rate limits — must
// support CloneStateful, or the campaigns cannot fork experiments off
// the workers' golden cursors, silently fall back to full replay and
// Phase B loses its speedup.
func TestCampaignControllersAreCloneable(t *testing.T) {
	e := NewEvaluator(99)
	if err := e.prepare(); err != nil {
		t.Fatal(err)
	}
	for _, c := range campaignConfigs {
		factory, err := e.campaignFactory(c)
		if err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		ctrl := factory()
		cl, ok := ctrl.(interface{ CloneStateful() any })
		if !ok {
			t.Errorf("%s: controller has no CloneStateful method", c.ID())
			continue
		}
		clone, ok := cl.CloneStateful().(control.Stateful)
		if !ok || clone == nil {
			t.Errorf("%s: controller declined to clone", c.ID())
			continue
		}
		// The clone must be independent: writes do not reach the
		// original.
		orig := ctrl.State()[0]
		clone.SetState([]float64{orig + 1e6})
		if ctrl.State()[0] != orig {
			t.Errorf("%s: clone shares state with the original", c.ID())
		}
	}
}

// TestVarRecordDigests pins the record files of the evaluator's
// variable-level campaigns byte for byte: the SHA-256 of what
// goofi.SaveRecords writes for each of campaignConfigs, 200 experiments
// on the evaluator's workload and candidate seed. The digests were
// recorded when these campaigns still ran on their own worker pool,
// resuming from per-iteration golden checkpoints, so they prove the
// shared campaign loop and its golden cursors reproduce it.
func TestVarRecordDigests(t *testing.T) {
	want := map[string]string{
		"none":                              "2b4d69286f16065e1bbbe765c2c0a026109f1b4f7e17fd578e0d224e2b47c952",
		"rollback/static/slack=0.1/rate=0":  "b04d1d6dbe352654eb63daeb426c287b062996c9b27fcce5ec92c601e3b17f62",
		"rollback/static/slack=0.1/rate=8":  "4ae75c50d70fd0efbe2f3804308995a4fdf7661c9e08cac8c846ddddc0bc7991",
		"freeze/learned/slack=0.2/rate=0":   "cca5a53bbab459c4571e7fffde3ef398dfbf0deec3133886c57adac2d913379d",
		"saturate/learned/slack=0.2/rate=5": "825b184ee73f29e7fa50be07b9ab0362e50f7b4c1e524bb6f4e2b787407535f3",
	}
	e := NewEvaluator(99)
	if err := e.prepare(); err != nil {
		t.Fatal(err)
	}
	for _, c := range campaignConfigs {
		factory, err := e.campaignFactory(c)
		if err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		res, err := goofi.RunVariable(goofi.VarConfig{
			Name: c.ID(), New: factory, Experiments: 200, Seed: e.candidateSeed(c),
			Iterations: e.iters, Engine: &e.engine, Reference: e.ref, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "records.jsonl")
		if err := goofi.SaveRecords(path, res.Records); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want[c.ID()] {
			t.Errorf("%s: record file SHA-256 %s, want %s", c.ID(), got, want[c.ID()])
		}
	}
}
