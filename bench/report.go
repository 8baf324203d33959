package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// MetricSpec is one metric as BENCHMARK.json declares it.
type MetricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// BenchmarkFile is the part of BENCHMARK.json, at the repository root,
// that ctrlbench reads: the run length, the workloads and the metrics it
// promises to report.
type BenchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// LoadBenchmarkFile reads BENCHMARK.json.
func LoadBenchmarkFile(path string) (*BenchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read %s: %w", path, err)
	}
	var f BenchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &f, nil
}

// Declared is the metric list a run reports in its result line: the
// per-layer metrics for a traced run, the end-to-end ones otherwise.
func (f *BenchmarkFile) Declared(traced bool) []MetricSpec {
	if traced {
		return f.PerLayer
	}
	return f.EndToEnd
}

// PrintLines writes every metric of res as "<workload> <metric> <value>
// <unit>", followed by the sample count behind it where there is one.
func PrintLines(w io.Writer, res *Result) {
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%s %s %s %s", res.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " (n=%d)", m.N)
		}
		fmt.Fprintln(w)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "%s error: %s\n", res.Workload, e)
	}
}

// MetricValue is one metric of the result line.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ResultLine is the last line a run prints.
type ResultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

// NewResultLine selects the declared metrics from results (keyed
// "<workload>/<metric>" when there is more than one result). A declared
// metric that is missing or in another unit makes the line incorrect
// and is returned as an error.
func NewResultLine(results []*Result, declared func(traced bool) []MetricSpec) (ResultLine, []error) {
	line := ResultLine{Correct: true, Metrics: make(map[string]MetricValue)}
	var errs []error
	for _, res := range results {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, spec := range declared(res.Traced) {
			key := spec.Name
			if len(results) > 1 {
				key = res.Workload + "/" + spec.Name
			}
			m, ok := res.Metric(spec.Name)
			switch {
			case !ok:
				errs = append(errs, fmt.Errorf("%s: metric %s not reported", res.Workload, spec.Name))
			case m.Unit != spec.Unit:
				errs = append(errs, fmt.Errorf("%s: metric %s in %s, declared in %s", res.Workload, spec.Name, m.Unit, spec.Unit))
			default:
				line.Metrics[key] = MetricValue{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	line.Correct = line.Failed == 0 && len(errs) == 0
	return line, errs
}
