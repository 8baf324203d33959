package bench

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest of the usual tail percentiles that still
// leaves at least ten samples above it, or 0 when even the median does
// not.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75, 50} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// timeIt runs f reps times and returns the median wall time of one call.
func timeIt(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// ms and us convert a duration to fractional milliseconds and
// microseconds for reporting.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads a process's high-water resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("bench: read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parse VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM for process %s", pid)
}

// cpuTime is the CPU time (user + system) this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
