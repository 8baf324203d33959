package dist

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
)

// The chaos suite runs shards on real pooled ctrlexec processes and
// kills them in every way the coordinator claims to survive: a SIGKILL
// mid-stream, a self-exit mid-shard, and a silent wedge that only the
// lease watchdog can detect. Each case must still end with a record
// file byte-identical to a single-process run — the acceptance bar for
// the whole distributed layer.

var ctrlexecBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "ctrlexec-build-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctrlexecBin = filepath.Join(tmp, "ctrlexec")
	out, err := exec.Command("go", "build", "-o", ctrlexecBin, "ctrlguard/cmd/ctrlexec").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "build ctrlexec: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// procExecutors returns n local executor slots over a fresh pool that
// the test closes when it ends.
func procExecutors(t *testing.T, n int, onLease func(ShardTask, int)) []Executor {
	pool := &Pool{Bin: ctrlexecBin, OnLease: onLease}
	t.Cleanup(pool.Close)
	return poolSlots(pool, n)
}

func poolSlots(pool *Pool, n int) []Executor {
	out := make([]Executor, n)
	for i := range out {
		out[i] = &Proc{Pool: pool, Tag: fmt.Sprintf("local-%d", i+1)}
	}
	return out
}

func TestProcExecutorsByteIdentical(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 60, Seed: 21}
	want := soloBytes(t, spec)

	var jnl shardJournal
	res, err := Run(context.Background(), spec, procExecutors(t, 2, nil), Options{
		ShardSize:  20,
		SegmentDir: t.TempDir(),
		Campaign:   "c-proc",
		Logger:     quietLogger(),
		Journal:    jnl.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := jnl.count(journal.EventShardExpired); n != 0 {
		t.Fatalf("Releases = %d, want 0", n)
	}
	if got := distBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("subprocess-distributed record file differs from solo run")
	}
}

// TestProcChaosSelfKillReLease: the executor leasing shard 0 exits with
// status 137 mid-shard (after streaming 3 records). The coordinator
// must salvage the streamed records, re-lease the shard, and still
// produce the solo run's bytes.
func TestProcChaosSelfKillReLease(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 60, Seed: 23}
	want := soloBytes(t, spec)

	var jnl shardJournal
	res, err := Run(context.Background(), spec, procExecutors(t, 2, nil), Options{
		ShardSize:  30,
		SegmentDir: t.TempDir(),
		Campaign:   "c-kill",
		Logger:     quietLogger(),
		Journal:    jnl.add,
		TaskHook: func(task *ShardTask) {
			if task.Shard == 0 && task.Attempt == 0 {
				task.ChaosKillAfter = 3
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := jnl.count(journal.EventShardExpired); n < 1 {
		t.Fatalf("Releases = %d, want >= 1 (the killed executor's shard)", n)
	}
	if got := distBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("record file differs from solo run after mid-shard executor death")
	}
}

// TestProcExternalSIGKILLReLease delivers a real kill -9 to the
// executor process running shard 0 once it has streamed a few records
// — the genuine article, not a simulated exit. The executor holds
// still after its third record, so the kill always lands mid-shard: an
// executor left running could finish and flush all 30 records before
// the coordinator has read the third, and then nothing is re-leased.
// The lease TTL is far longer than the run, so the re-lease can only
// come from the kill, not from the watchdog expiring the held lease.
func TestProcExternalSIGKILLReLease(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg2", Experiments: 60, Seed: 29}
	want := soloBytes(t, spec)
	const ttl = time.Minute
	start := time.Now()

	var mu sync.Mutex
	pids := map[int]int{} // shard -> pid of its attempt-0 executor
	killed := false
	shard0Records := 0

	var jnl shardJournal
	res, err := Run(context.Background(), spec, procExecutors(t, 2, func(task ShardTask, pid int) {
		mu.Lock()
		if task.Attempt == 0 {
			pids[task.Shard] = pid
		}
		mu.Unlock()
	}), Options{
		ShardSize:  30,
		LeaseTTL:   ttl,
		SegmentDir: t.TempDir(),
		Campaign:   "c-sigkill",
		Logger:     quietLogger(),
		Journal:    jnl.add,
		TaskHook: func(task *ShardTask) {
			if task.Shard == 0 && task.Attempt == 0 {
				task.ChaosHangAfter = 3
			}
		},
		OnRecord: func(rec goofi.Record, _ int) {
			mu.Lock()
			defer mu.Unlock()
			if rec.ID >= 30 || killed {
				return
			}
			// Shard 0 is streaming; after its third record, kill its
			// executor dead mid-shard.
			shard0Records++
			if shard0Records >= 3 {
				killed = true
				if pid := pids[0]; pid > 0 {
					syscall.Kill(pid, syscall.SIGKILL)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("the kill never fired; test exercised nothing")
	}
	if n := jnl.count(journal.EventShardExpired); n < 1 {
		t.Fatalf("Releases = %d, want >= 1 after SIGKILL", n)
	}
	if elapsed := time.Since(start); elapsed >= ttl {
		t.Fatalf("finished in %v — the %v lease may have expired rather than the kill re-leasing it", elapsed, ttl)
	}
	if got := distBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("record file differs from solo run after SIGKILL'd executor was re-leased")
	}
}

// TestProcChaosWedgeLeaseExpiry wedges the shard-0 executor after two
// records: it stops streaming everything, heartbeats included. Only the
// lease watchdog can notice; it must kill the process and re-lease.
func TestProcChaosWedgeLeaseExpiry(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: 40, Seed: 31}
	want := soloBytes(t, spec)

	start := time.Now()
	const ttl = 1500 * time.Millisecond
	var jnl shardJournal
	res, err := Run(context.Background(), spec, procExecutors(t, 2, nil), Options{
		ShardSize:  20,
		LeaseTTL:   ttl,
		SegmentDir: t.TempDir(),
		Campaign:   "c-wedge",
		Logger:     quietLogger(),
		Journal:    jnl.add,
		TaskHook: func(task *ShardTask) {
			if task.Shard == 0 && task.Attempt == 0 {
				task.ChaosHangAfter = 2
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := jnl.count(journal.EventShardExpired); n < 1 {
		t.Fatalf("Releases = %d, want >= 1 (the wedged executor's lease)", n)
	}
	if elapsed := time.Since(start); elapsed < ttl {
		t.Fatalf("finished in %v — the wedge cannot have expired a %v lease", elapsed, ttl)
	}
	if got := distBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("record file differs from solo run after wedged executor was expired")
	}
}

// TestHTTPExecutorByteIdentical drives the remote transport end to end
// against an in-process ShardHandler.
func TestHTTPExecutorByteIdentical(t *testing.T) {
	spec := goofi.CampaignSpec{Variant: "alg2", Experiments: 50, Seed: 37}
	want := soloBytes(t, spec)

	ts := httptest.NewServer(ShardHandler(quietLogger(), false))
	defer ts.Close()

	res, err := Run(context.Background(), spec, []Executor{&HTTP{URL: ts.URL, Tag: "remote-1"}}, Options{
		ShardSize:  15,
		SegmentDir: t.TempDir(),
		Campaign:   "c-http",
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := distBytes(t, res); !bytes.Equal(got, want) {
		t.Fatal("HTTP-distributed record file differs from solo run")
	}
}
