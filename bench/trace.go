package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of benchmark work: a call into a layer, or
// an interval read back from an artifact the daemon wrote (its journal).
// Times are nanoseconds since the recorder's epoch. Parent is 0 for an
// operation's root span; every span of one operation shares its Op.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Job    string `json:"job,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced mode: every method is a no-op, so traced and untraced
// runs execute the same code.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	ops   int
}

// NewRecorder starts an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NewOp allocates the identifier shared by all spans of one operation.
func (r *Recorder) NewOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// Start opens a span now and returns its ID (0 on a nil recorder).
func (r *Recorder) Start(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	return r.Add(Span{Op: op, Parent: parent, Name: name, Start: now, End: now})
}

// End closes the span id now.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span with explicit times and returns its ID.
func (r *Recorder) Add(s Span) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// At converts a wall-clock time, such as a journal timestamp, to the
// recorder's time base.
func (r *Recorder) At(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch).Nanoseconds()
}

// Tag names the daemon job a span waited on, so spans read back from
// the daemon's journal can attach under it.
func (r *Recorder) Tag(id int, job string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Job = job
	r.mu.Unlock()
}

// AttachJob records a span under the span tagged with job and returns
// it; ok is false when no span carries that job.
func (r *Recorder) AttachJob(job, name string, start, end time.Time) (s Span, ok bool) {
	if r == nil {
		return Span{}, false
	}
	r.mu.Lock()
	var parent Span
	for _, sp := range r.spans {
		if sp.Job == job {
			parent = sp
			break
		}
	}
	r.mu.Unlock()
	if parent.ID == 0 {
		return Span{}, false
	}
	s = Span{Op: parent.Op, Parent: parent.ID, Name: name, Start: r.At(start), End: r.At(end)}
	s.ID = r.Add(s)
	return s, true
}

// Spans returns a copy of every recorded span in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteSpans writes spans as one JSON document.
func WriteSpans(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(struct {
		Spans []Span `json:"spans"`
	}{spans}); err != nil {
		return fmt.Errorf("bench: write spans: %w", err)
	}
	return nil
}

// ReadSpans parses a document written by WriteSpans.
func ReadSpans(r io.Reader) ([]Span, error) {
	var doc struct {
		Spans []Span `json:"spans"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("bench: read spans: %w", err)
	}
	return doc.Spans, nil
}

// SelfTimes returns each span's self time by ID: its duration minus the
// part of its interval its children cover. Children may overlap (two
// workers, or a client waiting while the daemon runs), so the covered
// part is the union of the children's intervals, clipped to the parent.
func SelfTimes(spans []Span) map[int]int64 {
	children := make(map[int][][2]int64)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if lo < hi {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - unionLen(children[s.ID])
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// SelfByName sums self time per span name across all operations.
func SelfByName(spans []Span) map[string]int64 {
	self := SelfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// Ops counts the distinct operations the spans belong to.
func Ops(spans []Span) int {
	seen := make(map[int]bool)
	for _, s := range spans {
		seen[s.Op] = true
	}
	return len(seen)
}

// DurByName collects the durations of every span with the given name,
// in milliseconds.
func DurByName(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/1e6)
		}
	}
	return out
}
