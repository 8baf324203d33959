package dist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ctrlguard/internal/goofi"
)

// eventLines encodes events as an executor streams them, one JSON line
// each.
func eventLines(t testing.TB, evs ...Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

type readOut struct {
	events  []Event
	sawDone bool
	evErr   string
}

func collectEvents(t testing.TB, stream []byte) readOut {
	t.Helper()
	var out readOut
	var err error
	out.sawDone, out.evErr, err = readEvents(bytes.NewReader(stream), func(ev Event) {
		out.events = append(out.events, ev)
	})
	if err != nil {
		t.Fatalf("readEvents: %v", err)
	}
	return out
}

// referenceEvents is readEvents' contract spelled out: every
// newline-terminated line that parses as an event, in order.
func referenceEvents(stream []byte) readOut {
	var out readOut
	lines := bytes.Split(stream, []byte("\n"))
	for _, line := range lines[:len(lines)-1] { // the last piece has no newline
		var ev Event
		if line = bytes.TrimSpace(line); len(line) == 0 || json.Unmarshal(line, &ev) != nil {
			continue
		}
		switch ev.Type {
		case EventDone:
			out.sawDone = true
		case EventError:
			out.evErr = ev.Error
		}
		out.events = append(out.events, ev)
	}
	return out
}

func TestReadEvents(t *testing.T) {
	rec := goofi.Record{ID: 4, Outcome: "overwritten"}
	beat := Event{Type: EventBeat, Shard: 2}
	record := Event{Type: EventRecord, Shard: 2, Done: 1, Record: &rec}
	done := Event{Type: EventDone, Shard: 2, Done: 1, Result: &goofi.Stats{Faults: goofi.FaultStats{Retried: 1}}}
	doneLine := eventLines(t, done)

	for _, tc := range []struct {
		name   string
		stream []byte
		want   readOut
	}{
		{"clean", eventLines(t, beat, record, done), readOut{events: []Event{beat, record, done}, sawDone: true}},
		{"torn done", append(eventLines(t, beat, record), doneLine[:len(doneLine)/2]...), readOut{events: []Event{beat, record}}},
		{"done without its newline", append(eventLines(t, record), doneLine[:len(doneLine)-1]...), readOut{events: []Event{record}}},
		{"garbage and blank lines skipped", append(append([]byte("{oops\n\n  \r\n"), eventLines(t, record)...), "[1]\n"...), readOut{events: []Event{record}}},
		{"error event", eventLines(t, beat, Event{Type: EventError, Shard: 2, Error: "boom"}),
			readOut{events: []Event{beat, {Type: EventError, Shard: 2, Error: "boom"}}, evErr: "boom"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := collectEvents(t, tc.stream); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("readEvents = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// FuzzReadEvents checks the event decoder on arbitrary streams: it
// never panics, passes exactly the well-formed newline-terminated lines
// to the sink in order, drops a torn trailing line, and reports a done
// event only when a complete done line was parsed.
func FuzzReadEvents(f *testing.F) {
	rec := goofi.Record{ID: 9, Outcome: "latent"}
	f.Add(eventLines(f, Event{Type: EventBeat}, Event{Type: EventRecord, Done: 1, Record: &rec},
		Event{Type: EventDone, Done: 1, Result: &goofi.Stats{}}), uint16(0))
	f.Add(eventLines(f, Event{Type: EventRecord, Record: &rec}, Event{Type: EventError, Error: "x"}), uint16(17))
	f.Add([]byte("{\"type\":\"done\"}"), uint16(40))
	f.Add([]byte("\n\r\n{\"type\":\"beat\",\"shard\":\"x\"}\n{\"type\":\"rec"), uint16(5))
	f.Add([]byte("not json\n[]\nnull\n{}\n"), uint16(1))

	doneLine, err := json.Marshal(Event{Type: EventDone, Shard: 1, Done: 3, Result: &goofi.Stats{Faults: goofi.FaultStats{Resumed: 3}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, stream []byte, cut uint16) {
		got := collectEvents(t, stream)
		if want := referenceEvents(stream); !reflect.DeepEqual(got, want) {
			t.Fatalf("readEvents = %+v, want %+v", got, want)
		}

		// A done line cut anywhere short of its newline — even whole —
		// adds nothing to the stream's last complete line.
		whole := stream[:bytes.LastIndexByte(stream, '\n')+1]
		torn := append(whole[:len(whole):len(whole)], doneLine[:int(cut)%(len(doneLine)+1)]...)
		if got, want := collectEvents(t, torn), collectEvents(t, whole); !reflect.DeepEqual(got, want) {
			t.Fatalf("torn done line changed the result: %+v, want %+v", got, want)
		}
	})
}
