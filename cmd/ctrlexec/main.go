// Command ctrlexec executes campaign shards on behalf of a ctrlguardd
// coordinator — the worker half of distributed campaigns. It is
// deliberately dumb: it holds no queue and no durable state. The
// coordinator owns the plan, the leases, and every streamed record;
// ctrlexec just runs the deterministic engine over one contiguous
// experiment-ID range at a time and streams the results back. Either
// way it serves POST /api/v1/shards/run: a shard task in, the shard's
// NDJSON event stream out in the response body.
//
// Two modes:
//
// Supervised child (default): how ctrlguardd -executors runs its local
// executors. ctrlexec listens on a free loopback port, writes its
// host:port as the only line on stdout, and serves until its stdin
// reaches EOF — so a daemon that dies, however it dies, leaves no
// orphans. The daemon keeps the process for as many shards as finish
// cleanly, so the golden set-up is built once per process and variant;
// a crashed, wedged or failed shard gets its process SIGKILLed:
//
//	ctrlexec -timeout 10m -mem 512
//
// Serve (-serve): a long-lived HTTP executor for remote machines. With
// -register the executor announces itself to a coordinator and
// re-announces periodically as a liveness heartbeat:
//
//	ctrlexec -serve :9077 -register http://coordinator:8077 -advertise http://worker1:9077
//
// Self-limits: -timeout bounds each shard's wall clock and -mem caps
// the Go heap (debug.SetMemoryLimit), so a pathological shard dies on
// the worker without waiting for the coordinator's lease to expire.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"ctrlguard/internal/dist"
)

func main() {
	var (
		serve     = flag.String("serve", "", "serve shards over HTTP on this address instead of as a supervised local child")
		register  = flag.String("register", "", "coordinator base URL to register with (serve mode)")
		advertise = flag.String("advertise", "", "URL the coordinator should reach this executor at (default http://localhost<serve-addr>)")
		name      = flag.String("name", "", "executor name for registration (default host-pid)")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit per shard (0 = none)")
		memMB     = flag.Int64("mem", 0, "soft Go heap limit in MiB (0 = none)")
	)
	flag.Parse()

	if *memMB > 0 {
		debug.SetMemoryLimit(*memMB << 20)
	}

	logger := log.New(os.Stderr, "ctrlexec: ", log.LstdFlags)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	if *serve != "" {
		err = serveMode(ctx, logger, *serve, *register, *advertise, *name, *timeout)
	} else {
		err = childMode(ctx, logger, *timeout)
	}
	if err != nil {
		logger.Fatal(err)
	}
}

// shardMux is the handler both modes serve: the shard endpoint, each
// request bounded by timeout when it is positive, and a health probe.
func shardMux(logger *log.Logger, timeout time.Duration) http.Handler {
	handler := dist.ShardHandler(logger, true)
	if timeout > 0 {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			inner.ServeHTTP(w, r.WithContext(tctx))
		})
	}
	mux := http.NewServeMux()
	mux.Handle("POST /api/v1/shards/run", handler)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// childMode serves shards on a free loopback port, announced as the
// only line on stdout, until stdin reaches EOF or ctx ends. Stdout
// carries nothing else; all logging goes to stderr.
func childMode(ctx context.Context, logger *log.Logger, timeout time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if _, err := fmt.Println(ln.Addr()); err != nil {
		return fmt.Errorf("announce address: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		io.Copy(io.Discard, os.Stdin)
		cancel()
	}()

	srv := &http.Server{Handler: shardMux(logger, timeout)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// The supervisor is gone or stopping: a shard still running has
	// nobody to stream to.
	return srv.Close()
}

// serveMode runs the HTTP executor, optionally registering with (and
// heartbeating to) a coordinator until shut down.
func serveMode(ctx context.Context, logger *log.Logger, addr, register, advertise, name string, timeout time.Duration) error {
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "ctrlexec"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if advertise == "" {
		// ":9077" has no reachable host; a full "host:port" does.
		if strings.HasPrefix(addr, ":") {
			advertise = "http://localhost" + addr
		} else {
			advertise = "http://" + addr
		}
	}

	srv := &http.Server{Addr: addr, Handler: shardMux(logger, timeout)}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("serving shards on %s (advertising %s)", addr, advertise)
		errc <- srv.ListenAndServe()
	}()

	var hbStop func()
	if register != "" {
		hbStop = heartbeat(ctx, logger, register, name, advertise)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if hbStop != nil {
		hbStop()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}

// Initial-registration retry policy: a coordinator that is still
// starting (or briefly partitioned) should not kill the executor, but
// a misconfigured URL should not retry forever either.
const (
	registerAttempts = 6
	registerBaseWait = 500 * time.Millisecond
	registerMaxWait  = 10 * time.Second
)

// heartbeat registers the executor with the coordinator and keeps the
// registration alive by re-posting it — registration and heartbeat are
// the same idempotent upsert, so a coordinator restart just sees the
// executor reappear on the next beat. The initial registration retries
// with jittered exponential backoff before giving up; afterwards the
// beat cadence follows the TTL the coordinator returns (a third of it,
// so two beats can be lost before the lease lapses). Returns a stop
// function that deregisters.
func heartbeat(ctx context.Context, logger *log.Logger, coordinator, name, url string) (stop func()) {
	body, _ := json.Marshal(map[string]string{"name": name, "url": url})
	post := func() (time.Duration, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			coordinator+"/api/v1/executors", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("%s", resp.Status)
		}
		var ack struct {
			TTL string `json:"ttl"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err == nil {
			if ttl, err := time.ParseDuration(ack.TTL); err == nil && ttl > 0 {
				return ttl, nil
			}
		}
		return 0, nil
	}

	// Bounded initial registration: exponential backoff with jitter so a
	// fleet of executors restarting together does not hammer the
	// coordinator in lockstep.
	interval := 5 * time.Second
	registered := false
	wait := registerBaseWait
	for attempt := 1; attempt <= registerAttempts && ctx.Err() == nil; attempt++ {
		ttl, err := post()
		if err == nil {
			if ttl > 0 {
				interval = ttl / 3
			}
			registered = true
			logger.Printf("registered with %s (heartbeat every %s)", coordinator, interval)
			break
		}
		logger.Printf("register with %s: %v (attempt %d/%d)", coordinator, err, attempt, registerAttempts)
		if attempt == registerAttempts {
			break
		}
		jittered := wait/2 + time.Duration(rand.Int63n(int64(wait)/2+1))
		select {
		case <-ctx.Done():
		case <-time.After(jittered):
		}
		if wait *= 2; wait > registerMaxWait {
			wait = registerMaxWait
		}
	}
	if !registered {
		logger.Printf("registration with %s failed after %d attempts; heartbeats continue every %s",
			coordinator, registerAttempts, interval)
	}

	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if ttl, err := post(); err != nil {
					logger.Printf("heartbeat to %s: %v", coordinator, err)
				} else if ttl > 0 && ttl/3 != interval {
					interval = ttl / 3
					t.Reset(interval)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			req, err := http.NewRequest(http.MethodDelete, coordinator+"/api/v1/executors/"+name, nil)
			if err != nil {
				return
			}
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		})
	}
}
