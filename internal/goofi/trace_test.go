package goofi

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/trace"
	"ctrlguard/internal/workload"
)

// traceCampaignConfig is a deliberately small campaign for the tracing
// tests.
func traceCampaignConfig() Config {
	spec := workload.PaperRunSpec()
	spec.Iterations = 80
	return Config{
		Variant:     workload.AlgorithmI,
		Experiments: 6,
		Seed:        2001,
		Spec:        spec,
		Workers:     2,
	}
}

// TestTraceExperimentReplaysCampaign: replaying an experiment from
// nothing but the campaign config and its index must reproduce, byte
// for byte, a direct capture of the fault its campaign record logged.
func TestTraceExperimentReplaysCampaign(t *testing.T) {
	cfg := traceCampaignConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const target = 3
	rec := res.Records[target]
	inj := workload.Injection{
		At:  rec.At,
		Bit: cpu.StateBit{Region: cpu.Region(rec.Region), Element: rec.Element, Bit: rec.Bit},
	}
	direct, err := trace.Capture(context.Background(), cfg.Variant, cfg.Spec, inj, cfg.Classify)
	if err != nil {
		t.Fatal(err)
	}
	direct.Header.Experiment, direct.Header.Seed = target, cfg.Seed

	replayed, err := TraceExperiment(context.Background(), cfg, target)
	if err != nil {
		t.Fatalf("TraceExperiment: %v", err)
	}
	if !trace.Equal(direct, replayed) {
		t.Error("replayed trace differs from a direct capture of the recorded fault")
	}
}

func TestTraceExperimentRejectsBadIndex(t *testing.T) {
	cfg := traceCampaignConfig()
	if _, err := TraceExperiment(context.Background(), cfg, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := TraceExperiment(context.Background(), cfg, cfg.Experiments); err == nil {
		t.Error("out-of-range index accepted")
	}
	// An unbounded campaign (n = 0) still caps the index: the replay
	// draws n+1 samples to reach experiment n.
	cfg.Experiments = 0
	if _, err := TraceExperiment(context.Background(), cfg, ExperimentLimit); err == nil {
		t.Error("index at the experiment limit accepted")
	}
}

// TestTraceDigests pins detail-mode traces byte for byte: the SHA-256
// of the JSON trace of one experiment per variant and fault model,
// replayed from an 80-iteration campaign. The digests were recorded
// while traces still ran their collectors as a second per-instruction
// hook beside the monitor, so they prove the collector-as-monitor
// reproduces them.
func TestTraceDigests(t *testing.T) {
	want := map[string]string{
		"alg1/bitflip/0":                "a41302445e1640bb00522126caf662a115dba70b073e93aab87f71d646db791c",
		"alg1/pc/5":                     "d2d516539d9be3f5e9a6b426c1b3458fdaeb726e5808b4a7539db28f06b4926f",
		"alg1/transient/10":             "d67bd83e33fecba35530f5488dcc6818ecd9859f2a5d24b7d4470a4a45248ff1",
		"alg1/burst/15":                 "e0cf537a0413b010a258b58732665298fee6c00a34ab11618eb8deb8bf435e48",
		"alg2/bitflip/3":                "81129f6e5a5398f03894dfaef64c9eea35b081adf7cc34dcd234041967cbe424",
		"alg2/pc/8":                     "6a704144fe875c59ad0de571f8cfb87c18b6e4e64db8fef2be7c2ee3ae20287f",
		"alg2/transient/13":             "88f075cefb1a65ee6a28efbf477e03c3678710e37007aead4a2298d511185e72",
		"alg2/burst/2":                  "74a574891c55e5b7794ea24409dac37b555218dfbe5833190be6cbc4d59f6e03",
		"alg1-regstate/bitflip/6":       "4a06c985e0c7ab2799b425ff85693d5a0cf3f2e1ba4ad79266926fa8084fb348",
		"alg1-regstate/pc/11":           "15d4d9245915021b729c764bd92ba210a2afaa27ba8c7df60f1491ae2bc9cd7e",
		"alg1-regstate/transient/0":     "2667fc51d09173d0d720909c26cea20921039b62fc66d63d2b4c0ca114bc9538",
		"alg1-regstate/burst/5":         "b9f1ea947eaaaee8acf18b943c1eb0951699af3c41b830793c5f60c618e37e60",
		"alg2-backup-first/bitflip/9":   "47d10afe57bcc81959c0b28cee7ff1789842c43fc18ab8b31ac48d1fbfdf2123",
		"alg2-backup-first/pc/14":       "30fbb36c5a87526306696cd7570f6705191266c2c78f55ac505e1d242124f7eb",
		"alg2-backup-first/transient/3": "8da8d80402c1312b1b3bec3df97434e848b85b79afd34b3d27a2f1a1a1328608",
		"alg2-backup-first/burst/8":     "6cd2d47b021ab421dd0bb9feb8a4ba435ec934c54e5a33e6e32db2c2e7e624e2",
		"alg2-failstop/bitflip/12":      "bf3625e8a5e2b8bd071963e41871eebbec47c230af76df529320a19e963b6f26",
		"alg2-failstop/pc/1":            "2f9e0cbc30752b73c11a8bcc9c22ee5e45420e25cec17d659505543667824618",
		"alg2-failstop/transient/6":     "fe3a5b7edcf3fd51627d3278e416293fd631bbc6015d14d6fc0319cee1329e4d",
		"alg2-failstop/burst/11":        "666f7fe8bfde68488bcc9254f6842d9839e5779e1dcd2d88d96de8e219004080",
		"mimo-alg1/bitflip/15":          "addba32666fb49f8ccdbe686697b123fe4b6f07d9024a99c25f40ab5c95146a2",
		"mimo-alg1/pc/4":                "805acf72d445cc280241cdebeb64998a2f191c69c9de83979495b9175edd68ac",
		"mimo-alg1/transient/9":         "dd90c49a13fa03a61cb4cca6d8770a5e6784380f40a078b0d7cba34a7a033517",
		"mimo-alg1/burst/14":            "9390ebb807a6d74c10cd5c4d4b6bc2997690e1a29c286b94efd6338c945d6b34",
		"mimo-alg2/bitflip/2":           "6b888931efedcdecde5c9d34aed4715a7c74295f1fae8554ac8c86e8956243c6",
		"mimo-alg2/pc/7":                "2a83684b8a3299bb99b5e0da18308776ab1e37fcc460aa764de6da2718e756c2",
		"mimo-alg2/transient/12":        "d252669d63a97ad77fbace92dec97e7b9bb8b433589e2909ad41026863dde18f",
		"mimo-alg2/burst/1":             "8a6976672d778334705a687728808f4f1649e8610df0410e7b772cdcb149a9a0",
	}
	models := []workload.FaultModel{workload.ModelBitFlip, workload.ModelPC, workload.ModelTransient, workload.ModelBurst}
	for vi, v := range workload.Variants() {
		for mi, m := range models {
			spec := workload.SpecFor(v)
			spec.Iterations = 80
			cfg := Config{Variant: v, Experiments: 16, Seed: 2001, Spec: spec, Model: m}
			n := (3*vi + 5*mi) % cfg.Experiments
			tr, err := TraceExperiment(context.Background(), cfg, n)
			if err != nil {
				t.Fatalf("%s/%s/%d: %v", v, m, n, err)
			}
			b, err := json.Marshal(tr)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%s/%d", v, m, n)
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want[key] {
				t.Errorf("%s: trace JSON SHA-256 %s, want %s", key, got, want[key])
			}
		}
	}
}
