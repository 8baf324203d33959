package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
	"ctrlguard/internal/tenant"
)

// benchTenants are the service workloads' two tenants, with unequal
// fair-share weights; submissions alternate between their API keys.
var benchTenants = []tenant.Tenant{
	{Name: "t1", Key: "k1", Weight: 1},
	{Name: "t2", Key: "k2", Weight: 2},
}

// daemon is one ctrlguardd process with its own data, journal and cache
// directories. It runs in its own process group so stop also kills the
// ctrlexec executors it spawned.
type daemon struct {
	cmd  *exec.Cmd
	dir  string
	base string
	done chan struct{}
}

// startDaemon launches ctrlguardd on a port chosen by the kernel and
// returns once it accepts connections.
func startDaemon(ctx context.Context, binDir, dir string, distributed bool) (*daemon, error) {
	for _, sub := range []string{"data", "journal", "cache", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	tenants, err := json.Marshal(benchTenants)
	if err != nil {
		return nil, err
	}
	tenantFile := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenantFile, tenants, 0o644); err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-data", filepath.Join(dir, "data"),
		"-journal", filepath.Join(dir, "journal"),
		"-cache", filepath.Join(dir, "cache"),
		"-tenants", tenantFile,
	}
	if distributed {
		args = append(args, "-executors", "2", "-shard-size", "500", "-exec-bin", filepath.Join(binDir, "ctrlexec"))
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(binDir, "ctrlguardd"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Join(dir, "tmp"))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start ctrlguardd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		port, err := listenPort(cmd.Process.Pid)
		if err == nil {
			d.base = "http://127.0.0.1:" + strconv.Itoa(port)
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("bench: ctrlguardd exited during start-up (see %s)", logf.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("bench: ctrlguardd did not listen within 30 s")
		}
	}
}

// stop kills the daemon's process group and waits for the daemon to
// exit; a group that outlives it (executors) is killed again and polled
// until it is gone.
func (d *daemon) stop() {
	pgid := d.cmd.Process.Pid
	syscall.Kill(-pgid, syscall.SIGKILL)
	<-d.done
	for i := 0; i < 200; i++ {
		if err := syscall.Kill(-pgid, syscall.SIGKILL); errors.Is(err, syscall.ESRCH) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// peakRSSMB is the daemon's VmHWM; call it before stop.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// listenPort finds the TCP port a process listens on by matching its
// socket descriptors against the kernel's table of listening sockets.
func listenPort(pid int) (int, error) {
	fdDir := fmt.Sprintf("/proc/%d/fd", pid)
	ents, err := os.ReadDir(fdDir)
	if err != nil {
		return 0, err
	}
	inodes := make(map[string]bool)
	for _, e := range ents {
		link, err := os.Readlink(filepath.Join(fdDir, e.Name()))
		if err == nil && strings.HasPrefix(link, "socket:[") {
			inodes[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	for _, table := range []string{"tcp", "tcp6"} {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/net/%s", pid, table))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			f := strings.Fields(line)
			// local_address is f[1] ("ADDR:PORT" in hex), st is f[3]
			// (0A = LISTEN), inode is f[9].
			if len(f) < 10 || f[3] != "0A" || !inodes[f[9]] {
				continue
			}
			colon := strings.LastIndexByte(f[1], ':')
			port, err := strconv.ParseInt(f[1][colon+1:], 16, 32)
			if err == nil {
				return int(port), nil
			}
		}
	}
	return 0, fmt.Errorf("bench: process %d has no listening socket yet", pid)
}

// client submits campaigns to a daemon as one tenant.
type client struct {
	http *http.Client
	base string
	key  string
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}}
}

// statusError is a non-2xx answer.
type statusError struct {
	method, path string
	status       int
	body         string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.method, e.path, e.status, strings.TrimSpace(e.body))
}

func (c *client) do(ctx context.Context, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &statusError{method, path, resp.StatusCode, string(b)}
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// campaignView is the part of the daemon's campaign view the benchmark
// reads.
type campaignView struct {
	ID       string `json:"id"`
	CacheHit bool   `json:"cacheHit"`
}

// submission is one service operation's observations.
type submission struct {
	id        string
	cacheHit  bool
	terminal  time.Time // when the client read the terminal event
	recs      []goofi.Record
	reportRec int
}

// submit runs one submission end to end: POST the spec, follow the
// event stream to its terminal event, fetch the report, then page
// through every record.
func (c *client) submit(ctx context.Context, sp goofi.CampaignSpec, rec *Recorder, op, root int) (*submission, error) {
	s := &submission{}
	span := rec.Start(op, root, "http.submit")
	var v campaignView
	err := c.do(ctx, http.MethodPost, "/api/v1/campaigns", sp, &v)
	rec.End(span)
	if err != nil {
		return nil, err
	}
	s.id, s.cacheHit = v.ID, v.CacheHit

	span = rec.Start(op, root, "http.events")
	rec.Tag(span, v.ID)
	state, err := c.waitTerminal(ctx, v.ID)
	s.terminal = time.Now()
	rec.End(span)
	if err != nil {
		return nil, err
	}
	if state != "done" {
		return nil, fmt.Errorf("campaign %s ended %s", v.ID, state)
	}

	span = rec.Start(op, root, "http.report")
	var rep struct {
		Records int `json:"records"`
	}
	err = c.do(ctx, http.MethodGet, "/api/v1/campaigns/"+v.ID+"/report", nil, &rep)
	rec.End(span)
	if err != nil {
		return nil, err
	}
	s.reportRec = rep.Records

	span = rec.Start(op, root, "http.records")
	defer rec.End(span)
	const limit = 1000
	for offset := 0; ; offset += limit {
		var page struct {
			Total   int            `json:"total"`
			Count   int            `json:"count"`
			Records []goofi.Record `json:"records"`
		}
		path := fmt.Sprintf("/api/v1/campaigns/%s/records?offset=%d&limit=%d", v.ID, offset, limit)
		if err := c.do(ctx, http.MethodGet, path, nil, &page); err != nil {
			return nil, err
		}
		s.recs = append(s.recs, page.Records...)
		if page.Count < limit || offset+limit >= page.Total {
			return s, nil
		}
	}
}

// waitTerminal follows the campaign's NDJSON event stream and returns
// its terminal state.
func (c *client) waitTerminal(ctx context.Context, id string) (string, error) {
	path := "/api/v1/campaigns/" + id + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", &statusError{http.MethodGet, path, resp.StatusCode, string(b)}
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("%s: bad event: %w", path, err)
		}
		switch ev.Type {
		case "done", "failed", "cancelled", "interrupted":
			return ev.Type, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: stream ended without a terminal event", path)
}

// serverMetrics reads the daemon's /metrics counters.
func (c *client) serverMetrics(ctx context.Context) (map[string]float64, error) {
	var raw map[string]any
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// readJournal returns the entries of the daemon's write-ahead journal.
func (d *daemon) readJournal() ([]journal.Entry, error) {
	f, err := os.Open(filepath.Join(d.dir, "journal", "journal.wal"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return journal.ReadEntries(f)
}
