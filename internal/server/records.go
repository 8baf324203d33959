package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"ctrlguard/internal/dist"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/jsonl"
)

// A campaign's records have one source at each stage: its live
// segments while it runs, its canonical <id>.jsonl once it is
// finished. Neither is held in memory whole. A finished file is read
// through an index of its line offsets, built once, so a page reads
// only its own lines; its unfiltered report is computed once, where
// the records are in hand anyway.

// recordSet is a campaign's records as one source holds them now, in
// experiment order.
type recordSet interface {
	total() int
	records(lo, hi int) ([]goofi.Record, error)
	page(lo, hi int) ([]json.RawMessage, error) // as /records serves them
}

// recordFile is a finished campaign's record file: the start offset of
// each record line, then the end of the last, and the unfiltered
// report over them.
type recordFile struct {
	path    string
	offs    []int64
	summary report
}

// indexRecordFile indexes the record file read from r, to be served
// from path. recs, if set, are the file's records in hand, and the
// file is taken to be written whole from them; otherwise every line is
// decoded for the report, as jsonl.Scanner would decode it. A torn
// final line is left out and reported by a *jsonl.TruncatedError
// alongside the index.
func indexRecordFile(path string, r io.Reader, recs []goofi.Record) (*recordFile, error) {
	var each func(goofi.Record)
	if recs == nil {
		each = func(rec goofi.Record) { recs = append(recs, rec) }
	}
	offs, err := indexLines(r, each)
	if offs == nil {
		return nil, err
	}
	return &recordFile{path: path, offs: offs, summary: newReport(recs)}, err
}

// saveRecordFile writes a finished campaign's records to path and
// indexes the file.
func saveRecordFile(path string, recs []goofi.Record) (*recordFile, error) {
	if err := goofi.SaveRecords(path, recs); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return indexRecordFile(path, f, recs)
}

// indexLines returns the start offset of each record line r holds,
// then the end of the last, by jsonl.Scanner's rules: blank lines are
// skipped, an unparsable final line is a torn tail, left out and
// reported by a *jsonl.TruncatedError, and an unparsable line
// elsewhere is an error. With each, every line is decoded and handed
// to it; without, only the final line is decoded, which is all the
// torn-tail rule needs of a file written whole.
func indexLines(r io.Reader, each func(goofi.Record)) ([]int64, error) {
	var pos, start, end int64
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, jsonl.MaxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := jsonl.ScanTerminatedLines(data, atEOF)
		if adv == 0 && atEOF && len(data) > 0 {
			adv, tok = len(data), data // an unterminated final line
		}
		start, pos = pos, pos+int64(adv)
		return adv, tok, err
	})
	decode := func(b []byte) error {
		var rec goofi.Record
		err := json.Unmarshal(b, &rec)
		if err == nil && each != nil {
			each(rec)
		}
		return err
	}
	var offs []int64
	var last []byte // the latest line; whether it is the final one is not known yet
	line, lastLine := 0, 0
	for ; sc.Scan(); line++ {
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		if last != nil && each != nil {
			if err := decode(last); err != nil {
				return nil, fmt.Errorf("jsonl: decode line %d: %w", lastLine+1, err)
			}
		}
		offs, last, lastLine, end = append(offs, start), append(last[:0], b...), line, pos
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jsonl: read: %w", err)
	}
	if last != nil {
		if err := decode(last); err != nil { // the torn line's start ends the index
			return offs, &jsonl.TruncatedError{Line: lastLine + 1, Err: err}
		}
	}
	return append(offs, end), nil
}

func (f *recordFile) total() int { return len(f.offs) - 1 }

func (f *recordFile) page(lo, hi int) ([]json.RawMessage, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	buf := make([]byte, f.offs[hi]-f.offs[lo])
	if _, err := fh.ReadAt(buf, f.offs[lo]); err != nil {
		return nil, err
	}
	out := make([]json.RawMessage, hi-lo)
	for i := range out {
		out[i] = bytes.TrimSpace(buf[f.offs[lo+i]-f.offs[lo] : f.offs[lo+i+1]-f.offs[lo]])
	}
	return out, nil
}

func (f *recordFile) records(lo, hi int) ([]goofi.Record, error) {
	raw, err := f.page(lo, hi)
	recs := make([]goofi.Record, len(raw))
	for i := 0; i < len(raw) && err == nil; i++ {
		err = json.Unmarshal(raw[i], &recs[i])
	}
	return recs, err
}

// liveSet is the records a running campaign's segments hold now.
type liveSet []goofi.Record

func (s liveSet) total() int                                 { return len(s) }
func (s liveSet) records(lo, hi int) ([]goofi.Record, error) { return s[lo:hi], nil }

func (s liveSet) page(lo, hi int) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, hi-lo)
	for i := range out {
		out[i], _ = json.Marshal(&s[lo+i]) // a decoded record always encodes
	}
	return out, nil
}

// eachBatch calls fn on a campaign's segment directory, or on a
// precision-driven campaign's batch directories in turn until one holds
// no records, with the campaign-wide ID of the directory's first
// experiment. fn returns the number of records it found.
func eachBatch(spec goofi.CampaignSpec, segDir string, fn func(dir string, first int) int) {
	if !spec.Sequential() {
		fn(segDir, 0)
		return
	}
	for b := 0; fn(batchDir(segDir, b), b*goofi.DefaultBatchSize) > 0; b++ {
	}
}

// liveRecords reads the records in a campaign's segments in
// experiment-ID order.
func liveRecords(spec goofi.CampaignSpec, segDir string) liveSet {
	var out liveSet
	eachBatch(spec, segDir, func(dir string, first int) int {
		recs, _ := dist.LoadSegments(dir)
		for _, rec := range recs {
			out = append(out, goofi.ShiftID(rec, first))
		}
		return len(recs)
	})
	return out
}

// liveCount counts the records in a campaign's segments by their lines,
// decoding only each segment's last for the torn-tail rule. The count
// is exact, as a segment holds each experiment's record once: a resumed
// shard reuses its salvaged records without streaming them again.
func liveCount(spec goofi.CampaignSpec, segDir string) (n int) {
	eachBatch(spec, segDir, func(dir string, _ int) int {
		k := 0
		// dist.Run opens every shard's segment before it runs any.
		for i := 0; ; i++ {
			f, err := os.Open(dist.SegmentPath(dir, i))
			if err != nil {
				n += k
				return k
			}
			offs, _ := indexLines(f, nil)
			f.Close()
			k += max(len(offs)-1, 0)
		}
	})
	return n
}

// recordsLocked returns the records the campaign serves now: its
// finished file, indexed on first use, or else what its live segments
// hold. c.mu must be held: conclude swaps one source for the other
// under it.
func (c *Campaign) recordsLocked() (recordSet, error) {
	switch {
	case c.Kind != KindCampaign:
	case c.dataPath != "":
		if c.file == nil {
			f, err := os.Open(c.dataPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			// A restored campaign's file was written by an earlier
			// process, so every line is checked; a torn tail is
			// tolerated.
			if c.file, err = indexRecordFile(c.dataPath, f, nil); c.file == nil {
				return nil, err
			}
		}
		return c.file, nil
	case c.segDir != "":
		return liveRecords(c.Spec, c.segDir), nil
	}
	return liveSet(nil), nil
}

// recordCountLocked returns the total /records serves, counting a
// running campaign's segment lines; c.mu must be held.
func (c *Campaign) recordCountLocked() int {
	if c.Kind == KindCampaign && c.dataPath == "" && c.segDir != "" {
		return liveCount(c.Spec, c.segDir)
	}
	if set, err := c.recordsLocked(); err == nil {
		return set.total()
	}
	return 0
}

// RecordPage returns the JSON of records [offset, offset+limit) plus
// the total count.
func (c *Campaign) RecordPage(offset, limit int) ([]json.RawMessage, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, err := c.recordsLocked()
	if err != nil {
		return nil, 0, err
	}
	lo := min(offset, set.total())
	page, err := set.page(lo, min(lo+limit, set.total()))
	return page, set.total(), err
}

// Record returns the record of experiment id, nil if there is none,
// and the campaign's record count. Records are in ID order, so it
// bisects them.
func (c *Campaign) Record(id int) (*goofi.Record, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, err := c.recordsLocked()
	if err != nil {
		return nil, 0, err
	}
	n := set.total()
	var rec []goofi.Record
	i := sort.Search(n, func(i int) bool {
		if err == nil {
			rec, err = set.records(i, i+1)
		}
		return err != nil || rec[0].ID >= id
	})
	if i < n && err == nil {
		rec, err = set.records(i, i+1)
	}
	if i == n || err != nil || rec[0].ID != id {
		return nil, n, err
	}
	return &rec[0], n, nil
}

// Report runs the analysis phase over the records keep accepts, all of
// them without keep; nil if the campaign has none.
func (c *Campaign) Report(keep func(goofi.Record) bool) (*report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, err := c.recordsLocked()
	if err != nil || set.total() == 0 {
		return nil, err
	}
	if f, ok := set.(*recordFile); ok && keep == nil {
		rep := f.summary
		return &rep, nil
	}
	recs, err := scanRecords(set, keep)
	rep := newReport(recs)
	return &rep, err
}

// Scan decodes the records keep accepts, all of them without keep.
func (c *Campaign) Scan(keep func(goofi.Record) bool) ([]goofi.Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, err := c.recordsLocked()
	if err != nil {
		return nil, err
	}
	return scanRecords(set, keep)
}

// scanRecords decodes the records of set that keep accepts a page at a
// time.
func scanRecords(set recordSet, keep func(goofi.Record) bool) ([]goofi.Record, error) {
	var out []goofi.Record
	for lo := 0; lo < set.total(); lo += recordsMaxLimit {
		recs, err := set.records(lo, min(lo+recordsMaxLimit, set.total()))
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if keep == nil || keep(rec) {
				out = append(out, rec)
			}
		}
	}
	return out, nil
}
