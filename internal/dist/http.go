package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"ctrlguard/internal/jsonl"
)

// HTTP is the Executor transport to a ctrlexec process serving
// ShardHandler — a remote one on another machine, or a Pool's local
// child on loopback: the task is POSTed, and the response body streams
// the shard's NDJSON events. Record events double as heartbeats;
// cancelling ctx (lease expiry) aborts the request, which closes the
// connection and lets the executor's own context kill the shard run.
type HTTP struct {
	// URL is the executor's base URL (e.g. http://host:9077); the task
	// is POSTed to URL + "/api/v1/shards/run".
	URL string

	// Tag names this executor in journals and logs (default the URL).
	Tag string

	// Client, if nil, uses a client with no overall timeout — shard
	// duration is bounded by the coordinator's lease, not the
	// transport.
	Client *http.Client
}

// Name implements Executor.
func (h *HTTP) Name() string {
	if h.Tag != "" {
		return h.Tag
	}
	return h.URL
}

// Run implements Executor.
func (h *HTTP) Run(ctx context.Context, task ShardTask, sink func(Event)) error {
	body, err := json.Marshal(task)
	if err != nil {
		return fmt.Errorf("dist: encode task: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.URL+"/api/v1/shards/run", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	client := h.Client
	if client == nil {
		client = &http.Client{}
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("dist: executor %s: %w", h.Name(), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("dist: executor %s: %s: %s", h.Name(), resp.Status, bytes.TrimSpace(msg))
	}

	sawDone, evErr, err := readEvents(resp.Body, sink)
	switch {
	case ctx.Err() != nil:
		return ctx.Err()
	case evErr != "":
		return fmt.Errorf("dist: executor %s failed: %s", h.Name(), evErr)
	case err != nil:
		return fmt.Errorf("dist: executor %s stream: %w", h.Name(), err)
	case !sawDone:
		return fmt.Errorf("dist: executor %s stream ended without a done event", h.Name())
	}
	return nil
}

// readEvents decodes an NDJSON event stream, passing each well-formed
// event to sink in order. Only newline-terminated lines count: the
// torn tail of a dying executor's stream is dropped, and so are lines
// that do not parse, while everything streamed before them is kept.
// sawDone reports a done event, evErr the last error event's message.
func readEvents(r io.Reader, sink func(Event)) (sawDone bool, evErr string, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), jsonl.MaxLine)
	sc.Split(jsonl.ScanTerminatedLines)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if json.Unmarshal(line, &ev) != nil {
			continue
		}
		switch ev.Type {
		case EventDone:
			sawDone = true
		case EventError:
			evErr = ev.Error
		}
		sink(ev)
	}
	return sawDone, evErr, sc.Err()
}

// ShardHandler serves shard tasks over HTTP — the remote side of the
// HTTP transport, mounted by ctrlexec -serve at
// POST /api/v1/shards/run. Events stream back as NDJSON, flushed per
// line so records reach the coordinator (and renew the lease) as they
// complete. Chaos knobs in the task are honored only when allowChaos
// is set (ctrlexec enables it; embedding servers should not).
func ShardHandler(logger *log.Logger, allowChaos bool) http.Handler {
	if logger == nil {
		logger = log.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a shard task", http.StatusMethodNotAllowed)
			return
		}
		var task ShardTask
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
		if err := dec.Decode(&task); err != nil {
			http.Error(w, fmt.Sprintf("bad shard task: %v", err), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)

		var mu sync.Mutex
		enc := json.NewEncoder(w)
		emit := func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			if err := enc.Encode(&ev); err != nil {
				return // coordinator went away; ctx will cancel the run
			}
			if flusher != nil {
				flusher.Flush()
			}
		}

		logger.Printf("shard %d [%d,%d) of %s leased to this executor (attempt %d, %d resume records)",
			task.Shard, task.Start, task.End, task.Campaign, task.Attempt, len(task.Resume))
		if err := ServeShard(r.Context(), task, allowChaos, emit); err != nil {
			logger.Printf("shard %d failed: %v", task.Shard, err)
			return
		}
		logger.Printf("shard %d done", task.Shard)
	})
}

// keepAlive emits periodic beat events until stopped, covering the
// stretches when the engine is working but no record completes (the
// golden run, a long experiment): the lease must not expire on an
// executor that is merely busy. Returns a stop function.
func keepAlive(ctx context.Context, shard int, emit func(Event)) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				emit(Event{Type: EventBeat, Shard: shard})
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
