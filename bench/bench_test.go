package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke builds ctrlbench and runs every workload traced at two
// operations — the first one untraced, then again traced — then checks
// that every metric BENCHMARK.json declares is printed with its unit and
// that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(Workloads, " ") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, Workloads)
	}
	declared := append(append([]MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, m := range declared {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
	}

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "ctrlbench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/ctrlbench").CombinedOutput(); err != nil {
		t.Fatalf("build ctrlbench: %v\n%s", err, out)
	}
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			cmd := exec.Command(bin, "-root", root, "-build-dir", filepath.Join(tmp, "build"),
				"-workload", w, "-seed", "1", "-seconds", "120", "-ops", "2", "-trace", "1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("ctrlbench -workload %s: %v\nstdout:\n%s\nstderr:\n%s", w, err, stdout.String(), stderr.String())
			}
			units := make(map[string]string)
			values := make(map[string]float64)
			var last string
			sc := bufio.NewScanner(&stdout)
			for sc.Scan() {
				last = sc.Text()
				f := strings.Fields(last)
				if len(f) < 4 || f[0] != w {
					continue
				}
				if !metricName.MatchString(f[1]) {
					t.Errorf("printed metric name %q does not match %s", f[1], metricName)
				}
				units[f[1]] = f[3]
				values[f[1]], _ = strconv.ParseFloat(f[2], 64)
			}
			for _, m := range declared {
				if u, ok := units[m.Name]; !ok || u != m.Unit {
					t.Errorf("metric %s printed with unit %q, want %q", m.Name, u, m.Unit)
				}
			}
			if v, ok := values["failed_frac"]; !ok || v != 0 {
				t.Errorf("failed_frac = %v (printed %v), want 0", v, ok)
			}
			var line ResultLine
			if err := json.Unmarshal([]byte(last), &line); err != nil || !line.Correct || line.Attempted == 0 {
				t.Errorf("result line %q: correct=%v attempted=%d err=%v", last, line.Correct, line.Attempted, err)
			}
			if _, err := os.Stat(filepath.Join(tmp, "build", "spans-"+w+"-seed1.json")); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
