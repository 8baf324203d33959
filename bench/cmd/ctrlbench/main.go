// Command ctrlbench is the repository's end-to-end and per-layer
// benchmark (see bench/README.md).
//
// Usage, from the bench directory (or through bench/run.sh from the
// repository root):
//
//	go run ./cmd/ctrlbench -seed 1                   every workload, untraced then traced
//	go run ./cmd/ctrlbench -workload service -seed 2 one workload, end-to-end metrics
//	go run ./cmd/ctrlbench -workload service -trace 1
//	                                                 per-layer metrics and a span file
//	go run ./cmd/ctrlbench -write-digests            regenerate testdata/digests.json
//
// Every metric is printed as "<workload> <metric> <value> <unit>"; the
// last line is one JSON object with the declared metrics of
// BENCHMARK.json. The exit status is non-zero on any failure.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"ctrlguard/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(bench.Workloads)+" (default: every workload, untraced then traced)")
		seed     = flag.Uint64("seed", 1, "seed every generated campaign spec is drawn from")
		seconds  = flag.Float64("seconds", 0, "cap on the measured seconds of one run (0 = run_seconds of BENCHMARK.json)")
		ops      = flag.Int("ops", 0, "run only the first ops operations of the workload (0 = all)")
		trace    = flag.String("trace", "0", "0 = off; 1 = traced run, spans under -build-dir; otherwise the span file to write")
		root     = flag.String("root", "", "repository root (default: found from the working directory)")
		buildDir = flag.String("build-dir", "", "directory for binaries, temp dirs and span files (default <root>/.bench_build)")
		jsonOut  = flag.String("json", "", "result file (default under -build-dir)")
		child    = flag.Bool("child", false, "internal: run one workload in this process")
		warmup   = flag.Bool("warmup", false, "internal: one in-process cold start")
		digests  = flag.Bool("write-digests", false, "regenerate testdata/digests.json from seed 1's campaigns")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *warmup {
		exitOn(bench.Warmup(ctx))
		return
	}
	if *root == "" {
		r, err := findRoot()
		exitOn(err)
		*root = r
	}
	if *buildDir == "" {
		*buildDir = filepath.Join(*root, ".bench_build")
	}
	if *digests {
		path := filepath.Join(*root, "bench", bench.DigestFile)
		exitOn(bench.WriteDigests(ctx, path, func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "digests: %d/%d campaigns\n", done, total)
			}
		}))
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		return
	}

	spec, err := bench.LoadBenchmarkFile(filepath.Join(*root, "BENCHMARK.json"))
	exitOn(err)
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	opt := bench.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		MaxOps:   *ops,
		Trace:    *trace != "0" && *trace != "",
		Root:     *root,
		BuildDir: *buildDir,
	}
	if *child {
		opt.SpanFile = *trace
		b, err := json.Marshal(bench.RunChild(ctx, opt))
		exitOn(err)
		fmt.Printf("%s\n", b)
		return
	}

	var results []*bench.Result
	run := func(o bench.Options) {
		if o.Trace {
			o.SpanFile = *trace
			if *trace == "1" || *workload == "" {
				o.SpanFile = filepath.Join(o.BuildDir, fmt.Sprintf("spans-%s-seed%d.json", o.Workload, o.Seed))
			}
		}
		res, err := bench.Run(ctx, o)
		exitOn(err)
		bench.PrintLines(os.Stdout, res)
		results = append(results, res)
	}
	if *workload != "" {
		run(opt)
	} else {
		for _, w := range bench.Workloads {
			opt.Workload = w
			opt.Trace = false
			run(opt)
			opt.Trace = true
			run(opt)
		}
	}

	if *jsonOut == "" {
		name := "all"
		if *workload != "" {
			name = *workload
			if opt.Trace {
				name += "-traced"
			}
		}
		*jsonOut = filepath.Join(*buildDir, fmt.Sprintf("ctrlbench-%s-seed%d.json", name, *seed))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	exitOn(enc.Encode(results))
	exitOn(os.WriteFile(*jsonOut, buf.Bytes(), 0o644))

	line, errs := bench.NewResultLine(results, spec.Declared)
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "ctrlbench:", err)
	}
	b, err := json.Marshal(line)
	exitOn(err)
	fmt.Printf("%s\n", b)
	if !line.Correct {
		os.Exit(1)
	}
}

// findRoot walks up from the working directory to the ctrlguard module
// root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module ctrlguard\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("ctrlbench: no ctrlguard module root above the working directory (pass -root)")
		}
		dir = parent
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctrlbench:", err)
		os.Exit(1)
	}
}
