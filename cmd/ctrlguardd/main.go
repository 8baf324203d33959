// Command ctrlguardd serves fault-injection campaigns over HTTP — the
// long-running counterpart to cmd/goofi's one-shot runs, playing the
// role of the paper's interactive GOOFI service: queue campaigns, watch
// their progress live, and query the stored per-experiment records.
//
// Usage:
//
//	ctrlguardd -addr :8077 -data ./results/campaigns -journal ./results/journal
//
// Then, for example:
//
//	curl -d '{"variant":"alg1","n":2000,"seed":2001}' localhost:8077/api/v1/campaigns
//	curl -N localhost:8077/api/v1/campaigns/c000001/events
//	curl localhost:8077/api/v1/campaigns/c000001/report
//	curl -X DELETE localhost:8077/api/v1/campaigns/c000001
//	curl localhost:8077/metrics
//
// Each finished experiment is appended to the campaign's record
// segments under -data as it happens, and a finished campaign's records
// are served from its one <id>.jsonl there. Without -data they go to a
// private temporary directory that a graceful shutdown removes. With
// -journal set, every job transition is written through an fsync'd
// write-ahead journal. SIGINT/SIGTERM shuts down gracefully: running
// campaigns stop at the next experiment boundary and are journaled as
// interrupted; the next start replays the journal and resumes them
// from their persisted records, skipping every experiment that already
// completed. A hard crash (SIGKILL, power loss) loses at most the
// unsynced tail of the running campaign's records — the restart
// re-runs just those experiments. -no-resume parks interrupted
// campaigns instead of re-running them.
//
// Every campaign runs through the same shard coordinator. By default
// it is one shard on the daemon's own engine; with -executors N,
// campaigns are split into shards and leased to N local ctrlexec
// processes the daemon starts with it and reuses shard after shard
// (plus any remote ctrlexec -serve instances that register
// themselves), with dead or wedged executors detected by lease expiry,
// killed, and their shards re-leased. The merged result is
// byte-identical to an in-process run.
//
// With -tenants pointing at a JSON tenant file, submissions
// authenticate by API key and pass per-tenant admission control: token
// buckets (429), quotas on outstanding work (429), and a weighted
// fair-share queue that sheds overload with 503 instead of buffering
// it. -cache enables content-addressed memoization of completed
// deterministic campaigns; -retain-age/-retain-bytes bound the data
// directory by deleting finished campaigns' record files oldest-first.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"

	"ctrlguard/internal/server"
	"ctrlguard/internal/tenant"
)

// findCtrlexec locates the executor binary: first as a sibling of the
// running ctrlguardd binary (the usual `go build ./...` layout), then
// on $PATH.
func findCtrlexec() string {
	if self, err := os.Executable(); err == nil {
		sib := filepath.Join(filepath.Dir(self), "ctrlexec")
		if st, err := os.Stat(sib); err == nil && !st.IsDir() {
			return sib
		}
	}
	if p, err := exec.LookPath("ctrlexec"); err == nil {
		return p
	}
	return ""
}

func main() {
	var (
		addr      = flag.String("addr", ":8077", "listen address")
		workers   = flag.Int("workers", 1, "campaigns executed concurrently (each parallelises its own experiments)")
		queue     = flag.Int("queue", 16, "max campaigns waiting in the queue")
		data      = flag.String("data", "", "directory for per-campaign JSONL record files (empty = a private temporary directory, removed on exit)")
		jdir      = flag.String("journal", "", "directory for the crash-recovery job journal (empty = no journal, no resume)")
		jnlMax    = flag.Int64("journal-max-bytes", 8<<20, "auto-compact the journal past this size (0 = startup-only compaction)")
		noResume  = flag.Bool("no-resume", false, "replay the journal but do not re-run interrupted campaigns")
		executors = flag.Int("executors", 0, "run campaigns sharded across this many local ctrlexec processes (0 = in-process)")
		shardSize = flag.Int("shard-size", 0, "experiments per shard for distributed campaigns (0 = default)")
		execBin   = flag.String("exec-bin", "", "ctrlexec binary for -executors (default: next to this binary, then $PATH)")
		execTTL   = flag.Duration("exec-ttl", 0, "remote executor registration TTL without a heartbeat (0 = 15s default)")
		tenants   = flag.String("tenants", "", "JSON file of tenant definitions (API keys, weights, rate limits, quotas); empty = open single-tenant server")
		cacheDir  = flag.String("cache", "", "directory for the content-addressed result cache (empty = no memoization)")
		cacheMax  = flag.Int64("cache-max-bytes", 0, "LRU-evict the result cache past this size (0 = unbounded)")
		retainAge = flag.Duration("retain-age", 0, "delete record files of campaigns finished longer ago than this (0 = keep forever)")
		retainB   = flag.Int64("retain-bytes", 0, "bound total record bytes of finished campaigns, oldest deleted first (0 = unbounded)")
	)
	flag.Parse()

	var tenantList []tenant.Tenant
	if *tenants != "" {
		var err error
		tenantList, err = tenant.LoadFile(*tenants)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ctrlguardd:", err)
			os.Exit(1)
		}
	}

	if *executors > 0 && *execBin == "" {
		*execBin = findCtrlexec()
		if *execBin == "" {
			fmt.Fprintln(os.Stderr, "ctrlguardd: -executors needs ctrlexec; build it and put it next to ctrlguardd, on $PATH, or pass -exec-bin")
			os.Exit(1)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := server.New(server.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		DataDir:         *data,
		JournalDir:      *jdir,
		JournalMaxBytes: *jnlMax,
		NoResume:        *noResume,
		Executors:       *executors,
		ExecBin:         *execBin,
		ShardSize:       *shardSize,
		ExecTTL:         *execTTL,
		Tenants:         tenantList,
		CacheDir:        *cacheDir,
		CacheMaxBytes:   *cacheMax,
		RetainAge:       *retainAge,
		RetainBytes:     *retainB,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctrlguardd:", err)
		os.Exit(1)
	}
	if err := srv.ListenAndServe(ctx, *addr); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "ctrlguardd:", err)
		os.Exit(1)
	}
}
