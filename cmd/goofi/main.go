// Command goofi runs fault-injection campaigns against the simulated
// CPU executing the engine-control workload, and prints the paper's
// result tables.
//
// Usage:
//
//	goofi -alg 1 -n 9290            reproduce Table 2 (Algorithm I)
//	goofi -alg 2 -n 2372            reproduce Table 3 (Algorithm II)
//	goofi -compare                  reproduce Table 4 (both campaigns)
//	goofi -variant alg2-failstop    campaign on an ablation variant
//	goofi -swifi -n 2000            pre-runtime SWIFI campaign
//	goofi -analyze records.jsonl    analysis phase over logged records
//	goofi -disasm                   disassemble the workload program
//	goofi -model pc -n 2000         attack-style fault model (-list-models)
//	goofi -detector cfe+automaton   arm in-loop detectors (-list-detectors)
//
// Additional flags select the seed, worker count, and a JSONL file to
// which the per-experiment records are logged (the campaign database).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"ctrlguard/internal/detect"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/jsonl"
	"ctrlguard/internal/workload"
)

func main() {
	var (
		alg       = flag.Int("alg", 0, "algorithm to test: 1 or 2 (shorthand for -variant)")
		variant   = flag.String("variant", "", "workload variant (alg1, alg2, alg1-regstate, alg2-backup-first, alg2-failstop)")
		n         = flag.Int("n", 9290, "number of faults to inject (paper: 9290 for Alg I, 2372 for Alg II)")
		n2        = flag.Int("n2", 2372, "faults for the second campaign with -compare")
		seed      = flag.Uint64("seed", 2001, "campaign seed")
		workers   = flag.Int("workers", 0, "parallel experiments (0 = GOMAXPROCS)")
		out       = flag.String("out", "", "write per-experiment records to this JSONL file")
		compare   = flag.Bool("compare", false, "run Algorithm I and II campaigns and print Table 4")
		swifi     = flag.Bool("swifi", false, "run a pre-runtime SWIFI campaign instead of SCIFI")
		analyze   = flag.String("analyze", "", "skip injection; analyse records from this JSONL file")
		disasm    = flag.Bool("disasm", false, "print the workload's disassembly and exit")
		mark      = flag.Bool("markdown", false, "with -compare: emit a markdown report instead of tables")
		precision = flag.Float64("precision", 0, "run batches until the severe-rate 95% CI half-width is below this (e.g. 0.001)")
		model     = flag.String("model", "", "fault model (see -list-models; default is the paper's permanent single bit-flip)")
		burstW    = flag.Int("burst-width", 0, "adjacent-bit span for -model burst (0 = default)")
		detector  = flag.String("detector", "", "arm in-loop detectors: cfe, automaton, or cfe+automaton (see -list-detectors)")
		listMod   = flag.Bool("list-models", false, "list the available fault models and exit")
		listDet   = flag.Bool("list-detectors", false, "list the available detector families and exit")
		quiet     = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *listMod {
		for _, m := range inject.Models() {
			fmt.Printf("%-10s %s\n", m, inject.DescribeModel(m))
		}
		return
	}
	if *listDet {
		for _, f := range detect.Families() {
			fmt.Printf("%-10s %s\n", f.Name, f.Description)
		}
		return
	}

	// The same spec type validates ctrlguardd's JSON submissions; the
	// CLI flags are just another front end to it.
	spec := goofi.CampaignSpec{
		Alg: *alg, Variant: *variant, Experiments: *n,
		Seed: *seed, Workers: *workers, Precision: *precision,
		Model: *model, BurstWidth: *burstW, Detector: *detector,
	}
	// Cancel on SIGINT so a long campaign still flushes the records
	// completed so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg, err := spec.Resolve()
	switch {
	case err != nil:
	case *swifi && (spec.Sequential() || *compare):
		// Both would otherwise run SCIFI campaigns.
		err = errors.New("-swifi runs a fixed-count campaign of one variant; it does not combine with -precision or -compare")
	case spec.Sequential():
		err = runPrecision(ctx, cfg, *precision, *out)
	default:
		err = run(ctx, cfg, *n, *n2, *out, *compare, *swifi, *analyze, *disasm, *mark, *quiet)
	}
	if err != nil {
		// Library errors already carry the prefix; print it once.
		fmt.Fprintln(os.Stderr, "goofi:", strings.TrimPrefix(err.Error(), "goofi: "))
		os.Exit(1)
	}
}

func run(ctx context.Context, base goofi.Config, n, n2 int, out string,
	compare, swifi bool, analyze string, disasm, markdown, quiet bool) error {
	v := base.Variant
	switch {
	case disasm:
		fmt.Print(workload.Program(v).Disassemble())
		return nil
	case analyze != "":
		return runAnalyze(analyze)
	case compare:
		return runCompare(ctx, base, n, n2, markdown, quiet)
	}

	var (
		res *goofi.Result
		err error
	)
	if swifi {
		res, err = goofi.RunSWIFI(ctx, base)
	} else {
		res, err = campaign(ctx, base, v, n, base.Seed, quiet)
	}
	interrupted := errors.Is(err, context.Canceled) && res != nil
	if err != nil && !interrupted {
		return err
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "\ninterrupted after %d/%d experiments\n", len(res.Records), n)
	}
	if out != "" && len(res.Records) > 0 {
		if err := goofi.SaveRecords(out, res.Records); err != nil {
			return err
		}
		fmt.Printf("records written to %s (%d experiments)\n", out, len(res.Records))
	}
	tally, title := goofi.Analyze, fmt.Sprintf("Results for %s (cf. paper Table %s)", v, tableFor(v))
	if swifi {
		tally = goofi.AnalyzeSWIFI
		title = fmt.Sprintf("Pre-runtime SWIFI results for %s (columns: code image / data image / total)", v)
	}
	a := tally(res.Records)
	if interrupted {
		if len(res.Records) == 0 {
			return context.Canceled
		}
		fmt.Println(a.RenderRegionTable(fmt.Sprintf("Partial results for %s (interrupted)", v)))
		return nil
	}
	fmt.Println(a.RenderRegionTable(title))
	fmt.Println(a.Summary())
	return nil
}

// runPrecision runs a sequential campaign until the severe-rate
// confidence interval reaches the requested half-width, writing its
// records (the partial set when interrupted) to out if set.
func runPrecision(ctx context.Context, cfg goofi.Config, target float64, out string) error {
	fmt.Printf("sequential campaign on %s until severe-rate CI half-width <= %.4f%%\n", cfg.Variant, target*100)
	res, err := goofi.RunUntilPrecisionContext(ctx, goofi.PrecisionConfig{
		Campaign:        cfg,
		TargetHalfWidth: target,
	})
	if res == nil { // failed outright; a cancelled campaign keeps its records
		return err
	}
	if out != "" && len(res.Records) > 0 {
		if err := goofi.SaveRecords(out, res.Records); err != nil {
			return err
		}
		fmt.Printf("records written to %s (%d experiments)\n", out, len(res.Records))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "interrupted after %d experiments\n", len(res.Records))
		if len(res.Records) == 0 {
			return err
		}
	}
	fmt.Printf("experiments: %d in %d batches (converged: %v)\n", len(res.Records), res.Batches, res.Converged)
	printStats(os.Stdout, "", &res.Result)
	fmt.Printf("severe rate: %s (half-width %.4f%%)\n", res.Estimate, res.HalfWidth*100)
	a := goofi.Analyze(res.Records)
	fmt.Println(a.Summary())
	return nil
}

// runAnalyze is the standalone analysis phase: load a campaign database
// and print the tables plus the severe-failure investigation.
func runAnalyze(path string) error {
	recs, err := goofi.LoadRecords(path)
	var trunc *jsonl.TruncatedError
	if errors.As(err, &trunc) {
		// A crash-interrupted campaign log: analyse what survived.
		fmt.Fprintf(os.Stderr, "goofi: warning: %v (analysing %d intact records)\n", trunc, len(recs))
	} else if err != nil {
		return err
	}
	a := goofi.Analyze(recs)
	fmt.Println(a.RenderRegionTable(fmt.Sprintf("Analysis of %s (%d records)", path, len(recs))))
	fmt.Println(a.Summary())
	q := goofi.NewQuery(recs)
	fmt.Println(q.Severe().Report("severe value failures"))
	fmt.Println(q.Detected("").Report("detected errors"))
	return nil
}

func runCompare(ctx context.Context, base goofi.Config, n, n2 int, markdown, quiet bool) error {
	r1, err := campaign(ctx, base, workload.AlgorithmI, n, base.Seed, quiet)
	if err != nil {
		return err
	}
	r2, err := campaign(ctx, base, workload.AlgorithmII, n2, base.Seed+1, quiet)
	if err != nil {
		return err
	}
	a1, a2 := goofi.Analyze(r1.Records), goofi.Analyze(r2.Records)
	if markdown {
		if err := goofi.WriteMarkdownReport(os.Stdout, a1, a2); err != nil {
			return err
		}
		fmt.Println()
		return goofi.WriteInvestigation(os.Stdout, r1.Records)
	}
	fmt.Println(a1.RenderRegionTable("Results for Algorithm I (cf. paper Table 2)"))
	fmt.Println(a2.RenderRegionTable("Results for Algorithm II (cf. paper Table 3)"))
	fmt.Println(goofi.RenderComparisonTable(a1, a2))
	fmt.Println(a1.Summary())
	fmt.Println(a2.Summary())
	return nil
}

func campaign(ctx context.Context, base goofi.Config, v workload.Variant, n int, seed uint64, quiet bool) (*goofi.Result, error) {
	cfg := base
	cfg.Variant, cfg.Experiments, cfg.Seed = v, n, seed
	if !quiet {
		done := 0
		cfg.OnRecord = func(goofi.Record) {
			done++
			if done%500 == 0 || done == n {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d experiments", v, done, n)
				if done == n {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	res, err := goofi.RunContext(ctx, cfg)
	if res != nil && !quiet {
		printStats(os.Stderr, string(v)+": ", res)
	}
	return res, err
}

// printStats prints one line per fast-path layer and one for the armed
// detectors, each line starting with prefix: the layer's counters when
// it ran and was given them (precision campaigns carry no warm-start
// counters), the planner's reason when it declined.
func printStats(w io.Writer, prefix string, res *goofi.Result) {
	plan, ws, p, d := res.Plan, res.WarmStart, res.Prune, res.Detect
	for _, layer := range []goofi.Layer{goofi.LayerWarmStart, goofi.LayerPrune} {
		if why, ok := plan.Declined[layer.String()]; ok {
			fmt.Fprintf(w, "%s%s: declined (%s)\n", prefix, layer, why)
		}
	}
	if ws != nil {
		fmt.Fprintf(w, "%swarm-start: %d forked, %d full replays, %d early exits, %d cursors\n",
			prefix, ws.Resumed, ws.FullReplays, ws.EarlyExits, ws.Checkpoints)
	}
	if p != nil {
		fmt.Fprintf(w, "%spruning: %d planned, %d simulated, %d pruned dead, %d collapsed into %d classes\n",
			prefix, p.Planned, p.Simulated, p.PrunedDead, p.Collapsed, p.Classes)
	}
	if d != nil {
		fmt.Fprintf(w, "%sdetectors (%s): %d caught by signature monitor, %d by automaton, %d golden false positives, %.1f%% modeled overhead\n",
			prefix, detect.Spec{CFE: d.CFE, Automaton: d.Automaton}, d.CFEDetected, d.AutomatonDetected, d.FalsePositives, d.Overhead*100)
	}
}

func tableFor(v workload.Variant) string {
	switch v {
	case workload.AlgorithmI:
		return "2"
	case workload.AlgorithmII:
		return "3"
	default:
		return "2/3, ablation"
	}
}
