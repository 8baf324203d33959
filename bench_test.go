// Benchmarks regenerating every table and figure of the paper, plus
// the ablations of DESIGN.md §5. Campaign-backed benchmarks execute
// their campaign once (cached across b.N) and report the headline rates
// as custom metrics; the timed loop then measures the per-experiment
// cost. Run with:
//
//	go test -bench=. -benchmem
//
// Campaign sizes are reduced from the paper's (9290/2372) to keep the
// suite fast; cmd/goofi runs the full-scale campaigns.
package ctrlguard_test

import (
	"context"
	"sync"
	"testing"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/control"
	"ctrlguard/internal/core"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/detect"
	"ctrlguard/internal/fphys"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/plant"
	"ctrlguard/internal/prune"
	"ctrlguard/internal/sim"
	"ctrlguard/internal/tune"
	"ctrlguard/internal/workload"
)

const benchCampaignSize = 1500

// --- cached campaign + golden-run fixtures ---

var (
	campaignOnce sync.Once
	campaigns    map[workload.Variant]*goofi.Result

	goldenOnce sync.Once
	goldens    map[workload.Variant]*workload.Outcome
)

func campaignFor(b *testing.B, v workload.Variant) *goofi.Result {
	b.Helper()
	campaignOnce.Do(func() {
		campaigns = make(map[workload.Variant]*goofi.Result)
		for _, variant := range workload.Variants() {
			res, err := goofi.Run(goofi.Config{
				Variant:     variant,
				Experiments: benchCampaignSize,
				Seed:        2001,
			})
			if err != nil {
				b.Fatalf("campaign %s: %v", variant, err)
			}
			campaigns[variant] = res
		}
	})
	return campaigns[v]
}

func goldenFor(b *testing.B, v workload.Variant) *workload.Outcome {
	b.Helper()
	goldenOnce.Do(func() {
		goldens = make(map[workload.Variant]*workload.Outcome)
		for _, variant := range workload.Variants() {
			out := workload.Run(workload.Program(variant), workload.SpecFor(variant))
			if out.Detected() {
				b.Fatalf("golden %s trapped: %v", variant, out.Trap)
			}
			goldens[variant] = out
		}
	})
	return goldens[v]
}

// reportCampaign attaches the paper's headline rates as metrics.
func reportCampaign(b *testing.B, res *goofi.Result) {
	a := goofi.Analyze(res.Records)
	b.ReportMetric(goofi.ValueFailureProportion(a.Total).P()*100, "uwr_pct")
	b.ReportMetric(goofi.SevereProportion(a.Total).P()*100, "severe_pct")
	b.ReportMetric(goofi.DetectedProportion(a.Total).P()*100, "detected_pct")
	vf := goofi.ValueFailureProportion(a.Total)
	sev := goofi.SevereProportion(a.Total)
	if vf.Count > 0 {
		b.ReportMetric(float64(sev.Count)/float64(vf.Count)*100, "severe_share_pct")
	}
}

// benchExperiments times single fault-injection experiments against a
// cached golden run, round-robin over freshly sampled faults.
func benchExperiments(b *testing.B, v workload.Variant) {
	golden := goldenFor(b, v)
	prog := workload.Program(v)
	sampler := inject.NewSampler(7, golden.Instructions)
	injections := make([]workload.Injection, 64)
	for i := range injections {
		injections[i] = sampler.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := workload.SpecFor(v)
		inj := injections[i%len(injections)]
		spec.Injection = &inj
		out := workload.Run(prog, spec)
		if !out.Detected() {
			classify.Run(golden.Outputs, out.Outputs, true, classify.DefaultConfig())
		}
	}
	// Campaign construction in reportCampaign must not count towards
	// the per-experiment timing.
	b.StopTimer()
}

// --- Figures 3, 4, 5: the fault-free closed loop ---

func BenchmarkFig3FaultFreeSpeed(b *testing.B) {
	var finalErr float64
	for i := 0; i < b.N; i++ {
		eng := plant.NewEngine(plant.DefaultEngineConfig())
		ctrl := control.NewPI(control.PaperPIConfig(plant.DefaultSampleInterval))
		tr := sim.Run(ctrl, eng, sim.PaperConfig())
		finalErr = tr.R[tr.Len()-1] - tr.Y[tr.Len()-1]
	}
	b.ReportMetric(finalErr, "final_tracking_err_rpm")
}

func BenchmarkFig4LoadProfile(b *testing.B) {
	load := plant.HillyTerrainLoad()
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = 0
		for k := 0; k < plant.DefaultIterations; k++ {
			if v := load(float64(k) * plant.DefaultSampleInterval); v > peak {
				peak = v
			}
		}
	}
	b.ReportMetric(peak, "peak_load")
}

func BenchmarkFig5FaultFreeOutput(b *testing.B) {
	var maxU float64
	for i := 0; i < b.N; i++ {
		eng := plant.NewEngine(plant.DefaultEngineConfig())
		ctrl := control.NewPI(control.PaperPIConfig(plant.DefaultSampleInterval))
		tr := sim.Run(ctrl, eng, sim.PaperConfig())
		maxU = 0
		for _, u := range tr.U {
			if u > maxU {
				maxU = u
			}
		}
	}
	b.ReportMetric(maxU, "max_throttle_deg")
}

// --- Figures 7-10: single-fault example traces ---

// figScenario runs the deterministic injection behind one figure and
// reports the deviation profile.
func figScenario(b *testing.B, v workload.Variant, iteration int, bit uint, want classify.Outcome) {
	golden := goldenFor(b, v)
	prog := workload.Program(v)
	var verdict classify.Verdict
	for i := 0; i < b.N; i++ {
		spec := workload.PaperRunSpec()
		spec.Injection = &workload.Injection{
			At:  golden.IterationStarts[iteration] + 1,
			Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.data0", Bit: bit},
		}
		out := workload.Run(prog, spec)
		if out.Detected() {
			b.Fatalf("unexpected detection: %v", out.Trap)
		}
		verdict = classify.Run(golden.Outputs, out.Outputs, true, classify.DefaultConfig())
	}
	if verdict.Outcome != want {
		b.Fatalf("outcome = %v, want %v", verdict.Outcome, want)
	}
	b.ReportMetric(verdict.MaxDeviation, "max_dev_deg")
	b.ReportMetric(float64(verdict.StrongIterations), "strong_iters")
}

func BenchmarkFig7PermanentFailure(b *testing.B) {
	figScenario(b, workload.AlgorithmI, 300, 28, classify.Permanent)
}

func BenchmarkFig8SemiPermanentFailure(b *testing.B) {
	figScenario(b, workload.AlgorithmI, 120, 21, classify.SemiPermanent)
}

func BenchmarkFig9TransientFailure(b *testing.B) {
	figScenario(b, workload.AlgorithmI, 300, 17, classify.Transient)
}

func BenchmarkFig10AssertionMiss(b *testing.B) {
	figScenario(b, workload.AlgorithmII, 390, 20, classify.SemiPermanent)
}

// --- Campaign fast path: checkpointed warm start vs full replay ---

// The warm/full pair measures the same campaign with the checkpoint
// fast path on and off; their ratio is the speedup the CI bench gate
// asserts on (cmd/benchgate -speedup). Both ablate the fault-space
// pruner and the lockstep batcher (goofi.Config.Ablate) so the pair
// keeps measuring checkpointing alone; the pruned benchmark layers the pruner back on
// top of the warm start, and the lockstep benchmark measures the
// composed production engine. One op = one whole campaign, so run
// these with -benchtime=1x.
const fastPathExperiments = 300

func benchWholeCampaign(b *testing.B, ablate goofi.Layer) {
	var res *goofi.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = goofi.Run(goofi.Config{
			Variant:     workload.AlgorithmI,
			Experiments: fastPathExperiments,
			Seed:        2001,
			Ablate:      ablate,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fastPathExperiments*b.N)/b.Elapsed().Seconds(), "experiments/s")
	if ws := res.WarmStart; ws != nil {
		b.ReportMetric(float64(ws.Resumed), "resumed")
		b.ReportMetric(float64(ws.EarlyExits), "early_exits")
		b.ReportMetric(float64(ws.Checkpoints), "checkpoints")
	}
	if p := res.Prune; p != nil {
		b.ReportMetric(float64(p.Simulated), "simulated")
		b.ReportMetric(float64(p.PrunedDead), "pruned_dead")
		b.ReportMetric(float64(p.Collapsed), "collapsed")
		b.ReportMetric(float64(p.Classes), "classes")
	}
	if l := res.Lockstep; l != nil {
		b.ReportMetric(float64(l.Lanes), "lanes")
		b.ReportMetric(float64(l.Batches), "batches")
		b.ReportMetric(float64(l.Solo), "solo")
	}
}

func BenchmarkCampaignWarmStart(b *testing.B) {
	benchWholeCampaign(b, goofi.LayerPrune|goofi.LayerLockstep)
}

func BenchmarkCampaignFullReplay(b *testing.B) {
	benchWholeCampaign(b, goofi.LayerWarmStart|goofi.LayerPrune|goofi.LayerLockstep)
}

// BenchmarkCampaignPruned layers fault-space pruning on top of the
// warm start. The CI gate asserts its speedup over
// BenchmarkCampaignWarmStart — the pruner's contribution on top of the
// checkpoint fast path.
func BenchmarkCampaignPruned(b *testing.B) {
	benchWholeCampaign(b, goofi.LayerLockstep)
}

// BenchmarkCampaignLockstep is the production default: warm start,
// pruning, and lockstep batching over the predecoded engine. The CI
// gate asserts its speedup over BenchmarkCampaignFullReplay — the
// whole fast-path stack against the naive campaign.
func BenchmarkCampaignLockstep(b *testing.B) {
	benchWholeCampaign(b, 0)
}

// BenchmarkCampaignDetector is the production default with both
// detector families armed, the shape of ctrlbench's fault-models
// detector campaigns: Algorithm II, 60 experiments. Armed campaigns
// decline pruning and lockstep, so this measures the monitored warm
// start and the monitored idle fast-forward.
func BenchmarkCampaignDetector(b *testing.B) {
	const n = 60
	var res *goofi.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = goofi.Run(goofi.Config{
			Variant:     workload.AlgorithmII,
			Experiments: n,
			Seed:        2001,
			Detect:      detect.Spec{CFE: true, Automaton: true},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "experiments/s")
	if ws := res.WarmStart; ws != nil {
		b.ReportMetric(float64(ws.Resumed), "resumed")
		b.ReportMetric(float64(ws.EarlyExits), "early_exits")
	}
}

// BenchmarkCampaignSWIFI is a pre-runtime SWIFI campaign: Algorithm I,
// 300 image faults. Every fast path declines image faults, so this
// measures the campaign loop's solo runs and the per-experiment cost of
// a flipped image (a patched predecoded stream for code words).
func BenchmarkCampaignSWIFI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := goofi.RunSWIFI(context.Background(), goofi.Config{
			Variant:     workload.AlgorithmI,
			Experiments: fastPathExperiments,
			Seed:        2001,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fastPathExperiments*b.N)/b.Elapsed().Seconds(), "experiments/s")
}

// --- Tables 2, 3, 4: the fault-injection campaigns ---

// skipHeavyCampaigns keeps the CI bench job (-short -benchtime=1x)
// under its time budget: the table/ablation benchmarks share a cached
// seven-variant campaign fixture that alone takes minutes to build.
func skipHeavyCampaigns(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping campaign-fixture benchmark in -short mode")
	}
}

func BenchmarkTable2AlgorithmI(b *testing.B) {
	skipHeavyCampaigns(b)
	benchExperiments(b, workload.AlgorithmI)
	reportCampaign(b, campaignFor(b, workload.AlgorithmI))
}

func BenchmarkTable3AlgorithmII(b *testing.B) {
	skipHeavyCampaigns(b)
	benchExperiments(b, workload.AlgorithmII)
	reportCampaign(b, campaignFor(b, workload.AlgorithmII))
}

func BenchmarkTable4Comparison(b *testing.B) {
	skipHeavyCampaigns(b)
	r1 := campaignFor(b, workload.AlgorithmI)
	r2 := campaignFor(b, workload.AlgorithmII)
	a1, a2 := goofi.Analyze(r1.Records), goofi.Analyze(r2.Records)
	s1, s2 := goofi.SevereProportion(a1.Total), goofi.SevereProportion(a2.Total)
	b.ReportMetric(s1.P()*100, "alg1_severe_pct")
	b.ReportMetric(s2.P()*100, "alg2_severe_pct")
	if s2.P() > 0 {
		b.ReportMetric(s1.P()/s2.P(), "severe_reduction_x")
	}
	var tbl string
	for i := 0; i < b.N; i++ {
		tbl = goofi.RenderComparisonTable(a1, a2)
	}
	if len(tbl) == 0 {
		b.Fatal("empty table")
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationRegState: with the state in a register instead of
// the cache, the severe-failure mass moves from the cache region to the
// register region.
func BenchmarkAblationRegState(b *testing.B) {
	skipHeavyCampaigns(b)
	benchExperiments(b, workload.AlgorithmIRegState)
	a := goofi.Analyze(campaignFor(b, workload.AlgorithmIRegState).Records)
	b.ReportMetric(goofi.SevereProportion(a.Cache).P()*100, "cache_severe_pct")
	b.ReportMetric(goofi.SevereProportion(a.Regs).P()*100, "regs_severe_pct")
}

// BenchmarkAblationBackupFirst: backing the state up before asserting
// it poisons the recovery point, so severe failures stay near the
// Algorithm I level instead of dropping.
func BenchmarkAblationBackupFirst(b *testing.B) {
	skipHeavyCampaigns(b)
	benchExperiments(b, workload.AlgorithmIIBackupFirst)
	reportCampaign(b, campaignFor(b, workload.AlgorithmIIBackupFirst))
}

// BenchmarkAblationFailStop: trapping on assertion failure converts
// recoveries into detections — strong failure semantics at the price of
// availability (the controller stops).
func BenchmarkAblationFailStop(b *testing.B) {
	skipHeavyCampaigns(b)
	benchExperiments(b, workload.AlgorithmIIFailStop)
	res := campaignFor(b, workload.AlgorithmIIFailStop)
	a := goofi.Analyze(res.Records)
	constraint := 0
	for _, r := range res.Records {
		if r.Mechanism == string(cpu.MechConstraint) {
			constraint++
		}
	}
	b.ReportMetric(float64(constraint)/float64(len(res.Records))*100, "failstop_pct")
	b.ReportMetric(goofi.SevereProportion(a.Total).P()*100, "severe_pct")
}

// BenchmarkFutureWorkMIMO runs the paper's future-work direction on the
// simulated CPU: a two-state, two-output controller protected by the
// generalised §4.3 scheme. The reported metrics compare the severe
// share of value failures with and without the protection.
func BenchmarkFutureWorkMIMO(b *testing.B) {
	skipHeavyCampaigns(b)
	benchExperiments(b, workload.MIMOAlgorithmI)
	a1 := goofi.Analyze(campaignFor(b, workload.MIMOAlgorithmI).Records)
	a2 := goofi.Analyze(campaignFor(b, workload.MIMOAlgorithmII).Records)
	s1, s2 := goofi.SevereProportion(a1.Total), goofi.SevereProportion(a2.Total)
	b.ReportMetric(s1.P()*100, "mimo_alg1_severe_pct")
	b.ReportMetric(s2.P()*100, "mimo_alg2_severe_pct")
	if s2.P() > 0 {
		b.ReportMetric(s1.P()/s2.P(), "severe_reduction_x")
	}
}

// BenchmarkAblationGuardPolicies compares the guard's recovery policies
// on the Go controller under variable-level injection: fraction of runs
// whose worst output deviation stays under 1 degree.
func BenchmarkAblationGuardPolicies(b *testing.B) {
	policies := []struct {
		name   string
		policy core.RecoveryPolicy
	}{
		{"rollback", core.Rollback},
		{"saturate", core.Saturate},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			cfg := control.PaperPIConfig(plant.DefaultSampleInterval)
			okRuns, runs := 0, 0
			for i := 0; i < b.N; i++ {
				sampler := inject.NewVarSampler(uint64(i)+1, 1, plant.DefaultIterations)
				it, flip := sampler.Next()

				eng := plant.NewEngine(plant.DefaultEngineConfig())
				ctrl := control.NewPI(cfg)
				guard := core.NewGuard(ctrl,
					core.RangeAssertion{Min: cfg.OutMin, Max: cfg.OutMax},
					core.WithPolicy(p.policy))
				ref := plant.PaperReference()

				eng2 := plant.NewEngine(plant.DefaultEngineConfig())
				goldenCtrl := control.NewPI(cfg)
				golden := sim.Run(goldenCtrl, eng2, sim.PaperConfig())

				worst := 0.0
				y := eng.Speed()
				for k := 0; k < plant.DefaultIterations; k++ {
					if k == it {
						flip.Apply(ctrl)
					}
					t := float64(k) * plant.DefaultSampleInterval
					u, err := guard.Step([]float64{ref(t), y})
					if err != nil {
						b.Fatal(err)
					}
					if d := u[0] - golden.U[k]; d > worst {
						worst = d
					} else if -d > worst {
						worst = -d
					}
					y = eng.Step(u[0])
				}
				runs++
				if worst < 1.0 {
					okRuns++
				}
			}
			b.ReportMetric(float64(okRuns)/float64(runs)*100, "runs_under_1deg_pct")
		})
	}
}

// BenchmarkTuneEvaluate measures the tuner's evaluation throughput:
// one full candidate evaluation per op (fault-free run plus a
// 200-experiment variable-level campaign), the unit the design-space
// search spends its time on. The experiments/s metric is the budget
// planner for guardtune: evaluations × experiments ÷ rate ≈ wall time.
func BenchmarkTuneEvaluate(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping evaluator benchmark in -short mode")
	}
	const experiments = 200
	ev := tune.NewEvaluator(17)
	cand := tune.Config{Policy: tune.PolicyRollback, RateLimit: 8}
	// Warm up outside the timer: assertion learning and overhead
	// calibration happen once per evaluator.
	res, err := ev.Evaluate(context.Background(), cand, experiments)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(context.Background(), cand, experiments); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(experiments*b.N)/b.Elapsed().Seconds(), "experiments/s")
	b.ReportMetric(res.Severe.P()*100, "severe_pct")
	b.ReportMetric(res.Overhead*100, "overhead_pct")
}

// --- Fault forensics: the tracing subsystem ---

// BenchmarkTraceReplay measures a full traced replay of one campaign
// experiment — the unit of work behind goofi.TraceExperiment, the
// server's trace endpoint and every faulttrace subcommand (a golden pass
// plus an instrumented faulty pass per op).
func BenchmarkTraceReplay(b *testing.B) {
	cfg := goofi.Config{Variant: workload.AlgorithmI, Experiments: 8, Seed: 2001}
	var iters int
	for i := 0; i < b.N; i++ {
		tr, err := goofi.TraceExperiment(context.Background(), cfg, i%cfg.Experiments)
		if err != nil {
			b.Fatal(err)
		}
		iters = len(tr.Iterations)
	}
	b.ReportMetric(float64(iters), "trace_iterations")
}

// --- Micro-benchmarks of the core paths ---

func BenchmarkPIControllerStep(b *testing.B) {
	ctrl := control.NewPI(control.PaperPIConfig(plant.DefaultSampleInterval))
	for i := 0; i < b.N; i++ {
		ctrl.Step(2000, 1990)
	}
}

func BenchmarkProtectedPIStep(b *testing.B) {
	ctrl := control.NewProtectedPI(control.PaperPIConfig(plant.DefaultSampleInterval))
	for i := 0; i < b.N; i++ {
		ctrl.Step(2000, 1990)
	}
}

func BenchmarkGuardStep(b *testing.B) {
	cfg := control.PaperPIConfig(plant.DefaultSampleInterval)
	guard := core.NewGuard(control.NewPI(cfg),
		core.RangeAssertion{Min: cfg.OutMin, Max: cfg.OutMax})
	in := []float64{2000, 1990}
	for i := 0; i < b.N; i++ {
		if _, err := guard.Step(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMControlIteration(b *testing.B) {
	golden := goldenFor(b, workload.AlgorithmI)
	prog := workload.Program(workload.AlgorithmI)
	spec := workload.PaperRunSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := workload.Run(prog, spec)
		if out.Detected() {
			b.Fatal(out.Trap)
		}
	}
	perIter := float64(golden.Instructions) / float64(len(golden.Outputs))
	b.ReportMetric(perIter, "instrs_per_iteration")
}

// benchVMRun times one full fault-free run; the interpret knob selects
// the classic fetch/decode loop or the predecoded dispatch engine. The
// CI bench job uploads this pair's benchstat diff as the
// decoded-vs-interpreted artifact.
func benchVMRun(b *testing.B, interpret bool) {
	prog := workload.Program(workload.AlgorithmI)
	spec := workload.PaperRunSpec()
	spec.Interpret = interpret
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := workload.Run(prog, spec)
		if out.Detected() {
			b.Fatal(out.Trap)
		}
	}
}

func BenchmarkVMRunDecoded(b *testing.B)     { benchVMRun(b, false) }
func BenchmarkVMRunInterpreted(b *testing.B) { benchVMRun(b, true) }

// benchCapture times a pruning campaign's cold golden set-up for Alg I
// and Alg II: the state-hashed golden run with a fresh def/use capture
// attached by attach, and the sealed prune index.
func benchCapture(b *testing.B, attach func(*workload.RunSpec, *prune.Capture)) {
	for _, v := range []workload.Variant{workload.AlgorithmI, workload.AlgorithmII} {
		b.Run(string(v), func(b *testing.B) {
			prog := workload.Program(v)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec := workload.SpecFor(v)
				spec.RecordStateHashes = true
				c := prune.NewCapture()
				attach(&spec, c)
				out := workload.Run(prog, spec)
				if out.Detected() || c.Finish(out.Instructions) == nil {
					b.Fatal("golden capture failed")
				}
			}
		})
	}
}

// BenchmarkGoldenCapture attaches the capture as the golden run's
// monitor, as the campaign engine does, so the run fast-forwards the
// idle poll loop.
func BenchmarkGoldenCapture(b *testing.B) {
	benchCapture(b, func(spec *workload.RunSpec, c *prune.Capture) { spec.Monitor = c })
}

// BenchmarkSteppingCapture attaches the capture through Observer(),
// which steps every instruction: the reference BenchmarkGoldenCapture
// is measured against.
func BenchmarkSteppingCapture(b *testing.B) {
	benchCapture(b, func(spec *workload.RunSpec, c *prune.Capture) { spec.Observer = c.Observer() })
}

func BenchmarkBitFlip64(b *testing.B) {
	v := 7.0
	for i := 0; i < b.N; i++ {
		v = fphys.FlipBit64(v, uint(i%64))
	}
	_ = v
}
