package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Live progress streaming. The default wire format is NDJSON — one
// Event JSON object per line, flushed as it happens — which curl and
// any line-oriented consumer can read. Clients that ask for
// text/event-stream get the same events framed as SSE instead.
//
// The stream is: one "snapshot" event on connect, "progress" events as
// experiments complete, and a final event whose type is the terminal
// state ("done", "failed" or "cancelled"), after which the stream
// closes.

// minEventGap throttles progress events per connection so a large fast
// campaign doesn't drown the wire; snapshot and terminal events always
// go out.
const minEventGap = 50 * time.Millisecond

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	events, unsubscribe := c.Subscribe()
	defer unsubscribe()

	write := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		if err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	// Write the snapshot Subscribe queued before anything else: once the
	// campaign is done, the loop below could otherwise take the Done
	// case first and drain the snapshot away.
	if !write(<-events) {
		return
	}
	var lastProgress time.Time
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-events:
			if ev.Type == "progress" {
				if time.Since(lastProgress) < minEventGap {
					continue
				}
				lastProgress = time.Now()
			}
			if !write(ev) {
				return
			}
			if State(ev.Type).Terminal() {
				return
			}
		case <-c.Done():
			// Drain anything buffered, then emit the terminal event
			// built from the final state (the broadcast copy may have
			// been dropped for a slow reader).
			for {
				select {
				case ev := <-events:
					if State(ev.Type).Terminal() {
						write(ev)
						return
					}
				default:
					c.mu.Lock()
					ev := c.eventLocked(string(c.state))
					c.mu.Unlock()
					write(ev)
					return
				}
			}
		}
	}
}
