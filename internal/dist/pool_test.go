package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
)

// The pool's contract: a process serves shard after shard as long as
// each ends with a clean done event, any other outcome retires it for
// good, two shards never share a process, and Close leaves nothing
// running.

// leaseLog records every lease's pid, in lease order.
type leaseLog struct {
	mu     sync.Mutex
	leases []lease
}

type lease struct {
	shard, attempt, pid int
}

func (l *leaseLog) observe(task ShardTask, pid int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.leases = append(l.leases, lease{task.Shard, task.Attempt, pid})
}

func (l *leaseLog) snapshot() []lease {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]lease(nil), l.leases...)
}

func (l *leaseLog) pids() map[int]bool {
	out := make(map[int]bool)
	for _, ls := range l.snapshot() {
		out[ls.pid] = true
	}
	return out
}

// reaped reports whether pid no longer names a process (not even a
// zombie), i.e. it died and was waited for.
func reaped(pid int) bool {
	return errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}

// TestPoolReusesProcesses pins the point of the pool: six 500-experiment
// shards on two slots run on exactly two processes, where a process per
// lease would spawn six, and the records stay byte-identical.
func TestPoolReusesProcesses(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 3000, Seed: 51}
	want := soloBytes(t, spec)

	var seen leaseLog
	var jnl shardJournal
	res, err := Run(context.Background(), spec, procExecutors(t, 2, seen.observe), Options{
		ShardSize:  500,
		SegmentDir: t.TempDir(),
		Campaign:   "c-reuse",
		Logger:     quietLogger(),
		Journal:    jnl.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if shards, releases := jnl.count(journal.EventShardCompleted), jnl.count(journal.EventShardExpired); shards != 6 || releases != 0 {
		t.Fatalf("Shards = %d, Releases = %d, want 6 and 0", shards, releases)
	}
	if n := len(seen.snapshot()); n != 6 {
		t.Fatalf("%d leases, want 6", n)
	}
	if pids := seen.pids(); len(pids) != 2 {
		t.Fatalf("6 shards ran on %d processes, want 2: %v", len(pids), pids)
	}
	if got := distBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("pooled record file differs from solo run")
	}
}

// TestPoolFreshProcessAfterFailure fails shard 0's first lease in each
// way an executor can fail. On one slot the leases go: shard 0 (fails),
// shard 1, shard 0 again. The failed process must be reaped and never
// lease again, the next lease must run on a new process, and that
// process, having finished cleanly, must serve the lease after it.
func TestPoolFreshProcessAfterFailure(t *testing.T) {
	type failure struct {
		name     string
		ttl      time.Duration
		taskHook func(*ShardTask)
		// killOnRecord SIGKILLs the leased process on its first record.
		// The case holds the process still after that record, so the
		// kill lands mid-shard: a process left running could finish
		// shard 0 first, and the kill would then hit shard 1. Its lease
		// TTL is far longer than the run, and the run must end before
		// it, so the re-lease comes from the kill, not the watchdog.
		killOnRecord bool
	}
	firstLease := func(task *ShardTask) bool { return task.Shard == 0 && task.Attempt == 0 }
	for _, tc := range []failure{
		{name: "self-kill", taskHook: func(task *ShardTask) {
			if firstLease(task) {
				task.ChaosKillAfter = 2
			}
		}},
		{name: "external SIGKILL", ttl: time.Minute, killOnRecord: true, taskHook: func(task *ShardTask) {
			if firstLease(task) {
				task.ChaosHangAfter = 1
			}
		}},
		{name: "wedge", ttl: time.Second, taskHook: func(task *ShardTask) {
			if firstLease(task) {
				task.ChaosHangAfter = 2
			}
		}},
		{name: "error event", taskHook: func(task *ShardTask) {
			if firstLease(task) {
				task.Spec.Variant = "no-such-variant"
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 40, Seed: 53}
			want := soloBytes(t, spec)

			var (
				seen   leaseLog
				mu     sync.Mutex
				killed bool
			)
			var out bytes.Buffer // written by the coordinator's logger, read after Run
			var jnl shardJournal
			start := time.Now()
			res, err := Run(context.Background(), spec, procExecutors(t, 1, seen.observe), Options{
				ShardSize:  20,
				LeaseTTL:   tc.ttl,
				SegmentDir: t.TempDir(),
				Campaign:   "c-fail",
				Logger:     log.New(&out, "", 0),
				Journal:    jnl.add,
				TaskHook:   tc.taskHook,
				OnRecord: func(rec goofi.Record, _ int) {
					mu.Lock()
					defer mu.Unlock()
					if !tc.killOnRecord || killed {
						return
					}
					killed = true
					syscall.Kill(seen.snapshot()[0].pid, syscall.SIGKILL)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); tc.killOnRecord && elapsed >= tc.ttl {
				t.Fatalf("finished in %v — the %v lease may have expired rather than the kill re-leasing it", elapsed, tc.ttl)
			}
			if n := jnl.count(journal.EventShardExpired); n != 1 {
				t.Fatalf("Releases = %d, want 1", n)
			}
			if got := distBytes(t, res); !bytes.Equal(got, want) {
				t.Fatal("record file differs from solo run")
			}
			leases := seen.snapshot()
			wantOrder := []lease{{shard: 0}, {shard: 1}, {shard: 0, attempt: 1}}
			if len(leases) != len(wantOrder) {
				t.Fatalf("leases = %+v, want shards 0, 1, 0", leases)
			}
			for i, w := range wantOrder {
				if leases[i].shard != w.shard || leases[i].attempt != w.attempt {
					t.Fatalf("lease %d = %+v, want shard %d attempt %d", i, leases[i], w.shard, w.attempt)
				}
			}
			failed := leases[0].pid
			if leases[1].pid == failed || leases[2].pid == failed {
				t.Fatalf("failed process %d leased again: %+v", failed, leases)
			}
			if leases[2].pid != leases[1].pid {
				t.Fatalf("clean process %d not reused: %+v", leases[1].pid, leases)
			}
			if !reaped(failed) {
				t.Fatalf("failed process %d still exists", failed)
			}
			if !strings.Contains(out.String(), "stderr: ") {
				t.Fatalf("the failed lease's error carries no stderr tail:\n%s", out.String())
			}
		})
	}
}

// busyTracker flags any process that is handed a lease while another
// one is still running on it. A lease ends at its done event, which
// arrives before the pool can hand the process on, or when its Run
// fails, after which the process is dead.
type busyTracker struct {
	mu       sync.Mutex
	busy     map[int]string // pid -> running lease
	leases   map[string]int // running lease -> pid
	overlaps []string
}

func leaseKey(task ShardTask) string {
	return fmt.Sprintf("%s/%d/%d", task.Campaign, task.Shard, task.Attempt)
}

func (b *busyTracker) begin(task ShardTask, pid int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := leaseKey(task)
	if other, ok := b.busy[pid]; ok {
		b.overlaps = append(b.overlaps, fmt.Sprintf("pid %d: %s leased while %s runs", pid, key, other))
	}
	b.busy[pid], b.leases[key] = key, pid
}

func (b *busyTracker) end(task ShardTask) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := leaseKey(task)
	pid, ok := b.leases[key]
	if !ok {
		return
	}
	delete(b.leases, key)
	if b.busy[pid] == key {
		delete(b.busy, pid)
	}
}

// trackedExec reports its leases' ends to a busyTracker.
type trackedExec struct {
	Executor
	tr *busyTracker
}

func (e trackedExec) Run(ctx context.Context, task ShardTask, sink func(Event)) error {
	err := e.Executor.Run(ctx, task, func(ev Event) {
		if ev.Type == EventDone {
			e.tr.end(task)
		}
		sink(ev)
	})
	e.tr.end(task)
	return err
}

// TestPoolNoSharedProcesses: no process may ever run two shards at
// the same time. A first campaign leaves two idle processes behind; two
// more campaigns then start at once on four slots, so their first
// leases race for those processes, and each kills one executor
// mid-shard, so a slot also leases without having handed a process
// back. Every record file must still match its solo run.
func TestPoolNoSharedProcesses(t *testing.T) {
	tr := &busyTracker{busy: map[int]string{}, leases: map[string]int{}}
	pool := &Pool{Bin: ctrlexecBin, OnLease: tr.begin}
	t.Cleanup(pool.Close)

	run := func(name string, spec goofi.CampaignSpec) error {
		var slots []Executor
		for _, ex := range poolSlots(pool, 2) {
			slots = append(slots, trackedExec{ex, tr})
		}
		var jnl shardJournal
		res, err := Run(context.Background(), spec, slots, Options{
			ShardSize: 100,
			Campaign:  name,
			Logger:    quietLogger(),
			Journal:   jnl.add,
			TaskHook: func(task *ShardTask) {
				if task.Shard == 2 && task.Attempt == 0 {
					task.ChaosKillAfter = 2
				}
			},
		})
		if err != nil {
			return fmt.Errorf("campaign %s: %w", name, err)
		}
		if n := jnl.count(journal.EventShardExpired); n != 1 {
			return fmt.Errorf("campaign %s: Releases = %d, want 1", name, n)
		}
		if !bytes.Equal(distBytes(t, res), soloBytes(t, spec)) {
			return fmt.Errorf("campaign %s record file differs from solo run", name)
		}
		return nil
	}

	if err := run("c-first", goofi.CampaignSpec{Variant: "alg1", Experiments: 400, Seed: 55}); err != nil {
		t.Fatal(err)
	}
	specs := []goofi.CampaignSpec{
		{Variant: "alg1", Experiments: 600, Seed: 57},
		{Variant: "alg2", Experiments: 600, Seed: 59},
	}
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(fmt.Sprintf("c-concurrent-%d", i), spec)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.overlaps) > 0 {
		t.Fatalf("processes shared between running shards:\n%s", strings.Join(tr.overlaps, "\n"))
	}
}

// TestPoolCloseReapsEveryProcess: prestarted processes serve the first
// leases (no extra spawns), and Close kills and reaps all of them.
func TestPoolCloseReapsEveryProcess(t *testing.T) {
	var seen leaseLog
	pool := &Pool{Bin: ctrlexecBin, OnLease: seen.observe}
	defer pool.Close()
	pool.Prestart(2)
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 80, Seed: 61}
	if _, err := Run(context.Background(), spec, poolSlots(pool, 2), Options{
		ShardSize: 20,
		Campaign:  "c-close",
		Logger:    quietLogger(),
	}); err != nil {
		t.Fatal(err)
	}
	pids := seen.pids()
	if len(pids) != 2 {
		t.Fatalf("2 prestarted processes, but leases ran on %d: %v", len(pids), pids)
	}
	pool.Close()
	for pid := range pids {
		if !reaped(pid) {
			t.Fatalf("process %d survived Close", pid)
		}
	}
	if err := (&Proc{Pool: pool}).Run(context.Background(), ShardTask{Spec: spec}, func(Event) {}); !errors.Is(err, errPoolClosed) {
		t.Fatalf("lease after Close: err = %v, want errPoolClosed", err)
	}
}

// TestCtrlexecExitsOnStdinEOF: a supervised ctrlexec announces its
// address, serves, and exits cleanly once its stdin closes.
func TestCtrlexecExitsOnStdinEOF(t *testing.T) {
	cmd := exec.Command(ctrlexecBin)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("read address line: %v", err)
	}
	resp, err := http.Get("http://" + strings.TrimSpace(line) + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	stdin.Close()
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("ctrlexec exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ctrlexec still running 10s after its stdin closed")
	}
}

// TestPoolSpawnFailureFailsLease: a binary that cannot start fails the
// lease with the spawn error instead of hanging it.
func TestPoolSpawnFailureFailsLease(t *testing.T) {
	pool := &Pool{Bin: filepath.Join(t.TempDir(), "no-such-ctrlexec")}
	defer pool.Close()
	err := (&Proc{Pool: pool}).Run(context.Background(), ShardTask{}, func(Event) {})
	if err == nil || !strings.Contains(err.Error(), "spawn") {
		t.Fatalf("lease on a missing binary: err = %v, want a spawn error", err)
	}
}
