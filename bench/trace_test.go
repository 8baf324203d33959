package bench

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// Two workers' children overlap on [30,50]: the parent's covered
	// part is their union, 60, not the sum of their durations, 80.
	spans := []Span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "worker", Start: 10, End: 50},
		{ID: 3, Parent: 1, Op: 1, Name: "worker", Start: 30, End: 70},
	}
	self := SelfTimes(spans)
	if self[1] != 40 {
		t.Errorf("parent self time = %d, want 40", self[1])
	}
	if got := SelfByName(spans)["worker"]; got != 80 {
		t.Errorf("worker self time = %d, want 80 (each child's own duration)", got)
	}
}

func TestSelfTimeNesting(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "goofi.run", Start: 10, End: 60},
		{ID: 3, Parent: 2, Op: 1, Name: "goofi.plan", Start: 20, End: 30},
		// A child running past its parent's end covers the parent only
		// up to that end.
		{ID: 4, Parent: 2, Op: 1, Name: "goofi.simulate", Start: 50, End: 80},
	}
	self := SelfTimes(spans)
	want := map[int]int64{1: 50, 2: 30, 3: 10, 4: 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestSpansShareTheirOperationID(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 2; i++ {
		op := r.NewOp()
		root := r.Start(op, 0, "op")
		r.End(r.Start(op, root, "goofi.run"))
		r.End(root)
	}
	spans := r.Spans()
	if got := Ops(spans); got != 2 {
		t.Fatalf("Ops = %d, want 2", got)
	}
	for _, s := range spans {
		if s.Parent != 0 && s.Op != spans[s.Parent-1].Op {
			t.Errorf("span %d has op %d, its parent op %d", s.ID, s.Op, spans[s.Parent-1].Op)
		}
	}
	if got := len(DurByName(spans, "goofi.run")); got != 2 {
		t.Errorf("goofi.run spans = %d, want 2", got)
	}
}

func TestJournalSpansAttachByJobID(t *testing.T) {
	r := NewRecorder()
	op := r.NewOp()
	root := r.Start(op, 0, "op")
	events := r.Start(op, root, "http.events")
	r.Tag(events, "c000002")
	r.End(events)
	r.End(root)

	now := time.Now()
	run, ok := r.AttachJob("c000002", "server.run", now.Add(-time.Second), now)
	if !ok {
		t.Fatal("AttachJob found no span tagged c000002")
	}
	if run.Parent != events || run.Op != op {
		t.Errorf("server.run attached under span %d of op %d, want span %d of op %d", run.Parent, run.Op, events, op)
	}
	if got := run.Dur(); got != int64(time.Second) {
		t.Errorf("server.run duration = %d, want %d", got, time.Second)
	}
	if _, ok := r.AttachJob("c000009", "server.run", now, now); ok {
		t.Error("AttachJob attached a span for a job no span carries")
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Name: "op", Start: 5, End: 900},
		{ID: 2, Parent: 1, Op: 1, Name: "http.events", Start: 10, End: 800, Job: "c000001"},
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Errorf("round trip = %+v, want %+v", got, spans)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	op := r.NewOp()
	id := r.Start(op, 0, "op")
	r.Tag(id, "c000001")
	r.End(id)
	if _, ok := r.AttachJob("c000001", "server.run", time.Now(), time.Now()); ok || id != 0 || r.Spans() != nil {
		t.Error("a nil recorder recorded something")
	}
}
