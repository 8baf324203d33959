// Command faulttrace is the fault-forensics front end: it replays one
// fault-injection experiment in detail mode and prints, diffs or
// renders its propagation trace. A trace is a pure function of
// (variant, fault), so it is never saved: every subcommand names the
// fault and replays it.
//
// Usage:
//
//	faulttrace show -variant alg1 -fault line0.data0:28:300
//	    replay one explicitly specified fault and print the trace's
//	    header, causal chain, and event iterations
//
//	faulttrace show -variant alg1 -seed 2001 -exp 17 -n 9290
//	    replay experiment 17 of the campaign (variant, seed, n) —
//	    deterministic, bit for bit — and print its trace
//
//	faulttrace show -defuse -variant alg1
//	    print the workload's disassembly annotated with each
//	    instruction's def/use sets (the fault-space pruner's tables)
//
//	faulttrace diff -fault line0.data0:28:300 -a alg1 -b alg2
//	    replay the same fault under two variants and compare their
//	    causal chains (the paper's Algorithm I vs II argument)
//
//	faulttrace svg -variant alg1 -fault line0.data0:28:300 -o f7.svg
//	    render the propagation timeline as SVG (-exp/-seed/-n work too)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/trace"
	"ctrlguard/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "show":
		err = runShow(ctx, os.Args[2:])
	case "diff":
		err = runDiff(ctx, os.Args[2:])
	case "svg":
		err = runSVG(ctx, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faulttrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  faulttrace show [-variant V] (-fault element:bit:iteration | -exp N [-seed S] [-n COUNT])
  faulttrace show -defuse [-variant V]
  faulttrace diff -fault element:bit:iteration [-a V1] [-b V2]
  faulttrace svg [-variant V] (-fault element:bit:iteration | -exp N [-seed S] [-n COUNT]) [-o FILE]`)
}

// experiment names the experiment a subcommand replays: an explicit
// fault, or experiment exp of the campaign (variant, seed, n).
type experiment struct {
	variant, fault string
	exp            int
	seed           uint64
	n              int
}

// experimentFlags registers the flags that name an experiment on fs.
func experimentFlags(fs *flag.FlagSet) *experiment {
	e := &experiment{}
	fs.StringVar(&e.variant, "variant", "", "workload variant (default alg1)")
	fs.StringVar(&e.fault, "fault", "", "explicit fault: element:bit:iteration")
	fs.IntVar(&e.exp, "exp", -1, "campaign experiment index to replay")
	fs.Uint64Var(&e.seed, "seed", 2001, "campaign seed (with -exp)")
	fs.IntVar(&e.n, "n", 0, "campaign experiment count (with -exp; 0 = unbounded)")
	return e
}

// replay re-runs the named experiment in detail mode.
func (e *experiment) replay(ctx context.Context) (*trace.Trace, error) {
	v, err := goofi.ResolveVariant(0, e.variant)
	if err != nil {
		return nil, err
	}
	if e.fault != "" {
		return captureFault(ctx, v, e.fault)
	}
	if e.exp < 0 {
		return nil, fmt.Errorf("need -fault or -exp")
	}
	return goofi.TraceExperiment(ctx, goofi.Config{
		Variant: v, Experiments: e.n, Seed: e.seed,
	}, e.exp)
}

// parseArgs parses a subcommand's flags. Positional arguments are
// refused: traces are replayed, never read from files.
func parseArgs(fs *flag.FlagSet, args []string) error {
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q (name the fault with -fault or -exp)", fs.Name(), fs.Arg(0))
	}
	return nil
}

// captureFault parses the element:bit:iteration shorthand (e.g.
// line0.data0:28:300), resolves it against the variant's reference
// run, and captures its trace.
func captureFault(ctx context.Context, v workload.Variant, spec string) (*trace.Trace, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad fault %q, want element:bit:iteration", spec)
	}
	bit, err := strconv.Atoi(parts[1])
	if err != nil || bit < 0 {
		return nil, fmt.Errorf("bad bit %q", parts[1])
	}
	iter, err := strconv.Atoi(parts[2])
	if err != nil || iter < 0 {
		return nil, fmt.Errorf("bad iteration %q", parts[2])
	}
	region := cpu.RegionCache
	if !strings.HasPrefix(parts[0], "line") {
		region = cpu.RegionRegisters
	}
	sb := cpu.StateBit{Region: region, Element: parts[0], Bit: uint(bit)}
	if _, err := cpu.ParseElement(region, sb.Element); err != nil {
		return nil, err
	}
	if w := cpu.StateBitWidth(sb); sb.Bit >= w {
		return nil, fmt.Errorf("bad bit %d: %s holds %d bits", bit, sb.Element, w)
	}
	golden := workload.Run(workload.Program(v), workload.SpecFor(v))
	if golden.Detected() {
		return nil, fmt.Errorf("reference execution trapped: %v", golden.Trap)
	}
	if iter >= len(golden.IterationStarts) {
		return nil, fmt.Errorf("iteration %d beyond the run (%d)", iter, len(golden.IterationStarts))
	}
	inj := workload.Injection{
		// +1 skips the landing pad so the flip lands inside the
		// iteration's first instructions, before the state is loaded.
		At:  golden.IterationStarts[iter] + 1,
		Bit: sb,
	}
	return trace.Capture(ctx, v, workload.SpecFor(v), inj, classify.Config{})
}

func runShow(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	e := experimentFlags(fs)
	defuse := fs.Bool("defuse", false, "print the workload's disassembly annotated with per-instruction def/use sets (the pruner's static tables) instead of a trace")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *defuse {
		v, err := goofi.ResolveVariant(0, e.variant)
		if err != nil {
			return err
		}
		fmt.Print(workload.Program(v).DisassembleDefUse())
		return nil
	}
	tr, err := e.replay(ctx)
	if err != nil {
		return err
	}
	printTrace(tr)
	return nil
}

// printTrace renders the header, the causal chain, and the snapshots
// around the trace's events.
func printTrace(tr *trace.Trace) {
	h := tr.Header
	fmt.Printf("variant    %s\n", h.Variant)
	if h.Experiment >= 0 {
		fmt.Printf("experiment %d (seed %d)\n", h.Experiment, h.Seed)
	}
	fmt.Printf("fault      %s (iteration %d)\n", h.Injection, h.InjectionIteration)
	fmt.Printf("outcome    %s", h.Outcome)
	if h.Mechanism != "" {
		fmt.Printf(" (%s)", h.Mechanism)
	}
	fmt.Println()
	fmt.Println()
	fmt.Print(trace.Analyze(tr, 0))

	fmt.Println()
	fmt.Println("  k     |Δx|        |Δout|      regs  cache  div   events")
	shown := 0
	for _, it := range tr.Iterations {
		interesting := it.Events != 0 || it.StateError() > 0 || it.Deviation() > 0
		if !interesting && shown > 0 {
			continue
		}
		if shown >= 12 {
			fmt.Println("  ... (use svg for the full timeline)")
			break
		}
		fmt.Printf("  %-5d %-11.3g %-11.3g %-5d %-6d %-5d %s\n",
			it.K, it.StateError(), it.Deviation(),
			popcount(it.RegsTouched), popcount(it.CacheTouched),
			it.RegDivergent+it.CacheDivergent, eventNames(it.Events))
		shown++
	}
}

func popcount(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func eventNames(e uint8) string {
	var names []string
	if e&trace.EventInjected != 0 {
		names = append(names, "injected")
	}
	if e&trace.EventStateAssertFailed != 0 {
		names = append(names, "assert-x")
	}
	if e&trace.EventOutputAssertFailed != 0 {
		names = append(names, "assert-u")
	}
	if e&trace.EventTrapped != 0 {
		names = append(names, "trapped")
	}
	return strings.Join(names, ",")
}

func runDiff(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fault := fs.String("fault", "", "fault to replay under both variants: element:bit:iteration")
	va := fs.String("a", "alg1", "first variant")
	vb := fs.String("b", "alg2", "second variant")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *fault == "" {
		return fmt.Errorf("diff needs -fault")
	}
	var labels [2]string
	var chains [2]*trace.Chain
	for i, name := range []string{*va, *vb} {
		v, err := goofi.ResolveVariant(0, name)
		if err != nil {
			return err
		}
		tr, err := captureFault(ctx, v, *fault)
		if err != nil {
			return err
		}
		labels[i], chains[i] = string(v), trace.Analyze(tr, 0)
	}
	fmt.Print(trace.Diff(labels[0], chains[0], labels[1], chains[1]))
	return nil
}

func runSVG(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("svg", flag.ExitOnError)
	e := experimentFlags(fs)
	out := fs.String("o", "", "output file (default stdout)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	tr, err := e.replay(ctx)
	if err != nil {
		return err
	}
	svg := trace.TimelineSVG(tr, nil)
	if *out == "" {
		fmt.Print(svg)
		return nil
	}
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}
