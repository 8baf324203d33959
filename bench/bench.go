// Package bench is ctrlbench, the repository's end-to-end and per-layer
// benchmark. Each workload runs in a fresh child process against this
// tree's code: the paper's table campaigns and the fault-model campaigns
// in-process, and the ctrlguardd service solo and distributed as real
// daemon processes driven over HTTP. The benchmark measures layers only
// from outside — by timing calls into each package's public functions
// and by reading what the daemon writes (journal, /metrics, cache dir).
//
// See README.md for the workloads, the metrics and how to run it.
package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"ctrlguard/internal/goofi"
)

// Options configures one invocation for one workload.
type Options struct {
	Workload string
	Seed     uint64

	// Seconds caps the measured phase, which otherwise runs the
	// workload's fixed operations; a traced run gives half of it to the
	// first half of them and repeats those operations traced.
	Seconds float64

	// MaxOps, if positive, runs only the first MaxOps operations.
	MaxOps int

	// Trace records spans, probes each layer and reports the per-layer
	// metrics; SpanFile receives the spans.
	Trace    bool
	SpanFile string

	// Root is the repository root; BuildDir holds the binaries, the
	// workload temp dirs and the span files.
	Root     string
	BuildDir string
}

func (o Options) binDir() string { return filepath.Join(o.BuildDir, "bin") }
func (o Options) tmpDir() string { return filepath.Join(o.BuildDir, "tmp") }

// Metric is one reported number. N is the sample count behind a timing.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Result is one workload run.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []Metric `json:"metrics"`
}

func (r *Result) add(ms ...Metric) { r.Metrics = append(r.Metrics, ms...) }

// fail counts one failed operation.
func (r *Result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// Metric returns the named metric.
func (r *Result) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// coldStarts is how many set-ups setup_s takes the median of.
const coldStarts = 5

// Run benchmarks one workload: it builds the daemon binaries, measures
// set-up time over cold starts, then runs the workload in a fresh child
// process (this binary with -child) and merges the two.
func Run(ctx context.Context, opt Options) (*Result, error) {
	if !slices.Contains(Workloads, opt.Workload) {
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", opt.Workload, Workloads)
	}
	if err := buildBinaries(ctx, opt); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.tmpDir(), 0o755); err != nil {
		return nil, err
	}
	var setup []float64
	var setupErrs []error
	for i := 0; i < coldStarts; i++ {
		d, err := coldStart(ctx, opt)
		if err != nil {
			setupErrs = append(setupErrs, fmt.Errorf("cold start: %w", err))
			continue
		}
		setup = append(setup, d.Seconds())
	}
	res, err := runChildProcess(ctx, opt)
	if err != nil {
		return nil, err
	}
	res.Attempted += coldStarts
	for _, err := range setupErrs {
		res.fail(err)
	}
	if len(setup) > 0 {
		res.Metrics = append([]Metric{{Name: "setup_s", Value: median(setup), Unit: "s", N: len(setup)}}, res.Metrics...)
	}
	res.Metrics = append(res.Metrics, Metric{Name: "failed_frac", Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", N: res.Attempted})
	return res, nil
}

// buildBinaries builds this tree's ctrlguardd and ctrlexec before any
// timing starts.
func buildBinaries(ctx context.Context, opt Options) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", opt.binDir()+string(filepath.Separator), "./cmd/ctrlguardd", "./cmd/ctrlexec")
	cmd.Dir = opt.Root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("bench: build ctrlguardd/ctrlexec: %w", err)
	}
	return nil
}

// childCmd prepares this binary as a child process. The child is asked
// to stop with SIGTERM (so it can stop its daemon and remove its temp
// dir) when ctx ends or this process dies.
func childCmd(ctx context.Context, args ...string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// runChildProcess runs the workload in a fresh child and decodes the
// Result it prints as its last line.
func runChildProcess(ctx context.Context, opt Options) (*Result, error) {
	trace := "0"
	if opt.Trace {
		trace = opt.SpanFile
	}
	cmd, err := childCmd(ctx, "-child",
		"-workload", opt.Workload,
		"-seed", strconv.FormatUint(opt.Seed, 10),
		"-seconds", strconv.FormatFloat(opt.Seconds, 'g', -1, 64),
		"-ops", strconv.Itoa(opt.MaxOps),
		"-trace", trace,
		"-root", opt.Root,
		"-build-dir", opt.BuildDir)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: %s child: %w", opt.Workload, err)
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res Result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("bench: %s child printed no result: %w", opt.Workload, err)
	}
	return &res, nil
}

// coldStart measures one set-up: a fresh process — this binary with
// -warmup for in-process workloads, the daemon for service workloads —
// until the warm-up campaign's result is back.
func coldStart(ctx context.Context, opt Options) (time.Duration, error) {
	if opt.Workload == PaperTables || opt.Workload == FaultModels {
		cmd, err := childCmd(ctx, "-warmup")
		if err != nil {
			return 0, err
		}
		t := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, err
		}
		return time.Since(t), nil
	}
	dir, err := os.MkdirTemp(opt.tmpDir(), "coldstart-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t := time.Now()
	d, err := startDaemon(ctx, opt.binDir(), dir, opt.Workload == ServiceDist)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	c := &client{http: hc, base: d.base, key: benchTenants[0].Key}
	if _, err := c.submit(ctx, warmupSpec, nil, 0, 0); err != nil {
		return 0, err
	}
	return time.Since(t), nil
}

// Warmup is the in-process cold start's body: run the warm-up campaign
// the way an operation would.
func Warmup(ctx context.Context) error {
	_, err := inprocOp(ctx, []goofi.CampaignSpec{warmupSpec}, nil, 0, 0, nil)
	return err
}
