package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/jsonl"
	"ctrlguard/internal/tenant"
	"ctrlguard/internal/tune"
	"ctrlguard/internal/workload"
)

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.mgr.opts.Logger.Printf("encode response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// resolveTenant authenticates the request against the tenant registry
// using the Authorization header (Bearer or bare API key). On an open
// server every request maps to the default tenant; on a configured
// one an unknown or missing key is a 401.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (tenant.Tenant, bool) {
	ten, err := s.mgr.Registry().Resolve(r.Header.Get("Authorization"))
	if err != nil {
		s.writeError(w, http.StatusUnauthorized, "unknown or missing API key")
		return tenant.Tenant{}, false
	}
	return ten, true
}

// writeSubmitError maps admission failures onto overload-aware HTTP
// answers: rate limits and quotas are 429 (the former with the exact
// token wait), a full or draining queue is 503 — always an immediate
// answer, never a blocked request.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var rle *RateLimitError
	var qe *QuotaError
	switch {
	case errors.As(err, &rle):
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(rle.RetryAfter.Seconds()))))
		s.writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.As(err, &qe):
		s.writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		s.writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// handleSubmit validates a JSON campaign spec and enqueues it for the
// authenticated tenant.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ten, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	var spec goofi.CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad campaign spec: %v", err)
		return
	}
	c, err := s.mgr.SubmitAs(ten, spec)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.mgr.opts.Logger.Printf("campaign %s submitted by %s: %+v", c.ID, ten.Name, spec)
	w.Header().Set("Location", "/api/v1/campaigns/"+c.ID)
	s.writeJSON(w, http.StatusAccepted, c.Snapshot())
}

// handleList lists campaigns in submission order, optionally filtered
// by ?state=.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	stateFilter := State(r.URL.Query().Get("state"))
	views := make([]View, 0)
	for _, c := range s.mgr.List() {
		v := c.Snapshot()
		if stateFilter != "" && v.State != stateFilter {
			continue
		}
		views = append(views, v)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"campaigns": views})
}

// campaign resolves {id}, writing 404 on miss.
func (s *Server) campaign(w http.ResponseWriter, r *http.Request) *Campaign {
	id := r.PathValue("id")
	c, err := s.mgr.Get(id)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "no campaign %q", id)
		return nil
	}
	return c
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if c := s.campaign(w, r); c != nil {
		s.writeJSON(w, http.StatusOK, c.Snapshot())
	}
}

// handleCancel cancels a queued or running campaign.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	stopped, err := s.mgr.Cancel(c.ID)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if !stopped {
		s.writeError(w, http.StatusConflict, "campaign %s already %s", c.ID, c.Snapshot().State)
		return
	}
	s.mgr.opts.Logger.Printf("campaign %s cancelled", c.ID)
	s.writeJSON(w, http.StatusAccepted, c.Snapshot())
}

// report is the JSON answer of /report: the analysis phase over the
// campaign's stored records, optionally filtered.
type report struct {
	Campaign     string               `json:"campaign"`
	State        State                `json:"state"`
	Filters      map[string]string    `json:"filters,omitempty"`
	Records      int                  `json:"records"`
	Outcomes     map[string]int       `json:"outcomes"`
	Severe       int                  `json:"severe"`
	Detected     int                  `json:"detected"`
	TopElements  []goofi.ElementCount `json:"topElements,omitempty"`
	MaxDeviation struct {
		Min  float64 `json:"min"`
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"maxDeviation"`
}

// newReport runs the analysis phase over recs, reusing the goofi query
// layer; the caller names the campaign, its state and the filters.
func newReport(recs []goofi.Record) report {
	q := goofi.NewQuery(recs)
	rep := report{
		Records:  q.Len(),
		Outcomes: map[string]int{},
		Severe:   q.Severe().Len(),
		Detected: q.Detected("").Len(),
	}
	for _, rec := range recs {
		rep.Outcomes[rec.Outcome]++
	}
	rep.TopElements = q.TopElements(5)
	rep.MaxDeviation.Min, rep.MaxDeviation.Mean, rep.MaxDeviation.Max = q.MaxDeviationStats()
	return rep
}

// handleReport runs the analysis phase over a campaign's records.
// Filters: ?region=, ?outcome=, ?element=. With ?format=table the
// paper-style region table is returned as plain text instead.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	if r.URL.Query().Get("format") == "table" {
		recs, err := c.Scan(nil)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "reading records: %v", err)
			return
		}
		if len(recs) == 0 {
			s.writeError(w, http.StatusConflict, "campaign %s has no records yet (state %s)", c.ID, c.Snapshot().State)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		a := goofi.Analyze(recs)
		fmt.Fprintln(w, a.RenderRegionTable(fmt.Sprintf("Campaign %s (%d records)", c.ID, len(recs))))
		fmt.Fprintln(w, a.Summary())
		return
	}

	filters := map[string]string{}
	for _, k := range []string{"region", "element", "outcome"} {
		if v := r.URL.Query().Get(k); v != "" {
			filters[k] = v
		}
	}
	var keep func(goofi.Record) bool
	if len(filters) > 0 {
		keep = func(rec goofi.Record) bool {
			return (filters["region"] == "" || rec.Region == filters["region"]) &&
				(filters["element"] == "" || rec.Element == filters["element"]) &&
				(filters["outcome"] == "" || rec.Outcome == filters["outcome"])
		}
	} else {
		filters = nil
	}
	rep, err := c.Report(keep)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "reading records: %v", err)
		return
	}
	if rep == nil {
		s.writeError(w, http.StatusConflict, "campaign %s has no records yet (state %s)", c.ID, c.Snapshot().State)
		return
	}
	rep.Campaign, rep.State, rep.Filters = c.ID, c.Snapshot().State, filters
	s.writeJSON(w, http.StatusOK, rep)
}

// Raw-record pagination bounds: a campaign can hold hundreds of
// thousands of records, so /records never returns more than a page.
const (
	recordsDefaultLimit = 100
	recordsMaxLimit     = 1000
)

// handleRecords serves a campaign's raw records one page at a time:
// GET /api/v1/campaigns/{id}/records?offset=&limit=. Records are in
// experiment order; offset past the end yields an empty page rather
// than an error, so clients can walk until they get fewer than limit.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	offset, err := queryInt(r, "offset", 0)
	if err != nil || offset < 0 {
		s.writeError(w, http.StatusBadRequest, "offset must be a non-negative integer")
		return
	}
	limit, err := queryInt(r, "limit", recordsDefaultLimit)
	if err != nil || limit <= 0 || limit > recordsMaxLimit {
		s.writeError(w, http.StatusBadRequest, "limit must be an integer in [1,%d]", recordsMaxLimit)
		return
	}
	page, total, err := c.RecordPage(offset, limit)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "reading records: %v", err)
		return
	}
	// The body is laid out byte for byte as writeJSON lays out the map
	// of these fields, but the records, already JSON, are indented in
	// one pass: handing them to the encoder would scan each twice.
	id, _ := json.Marshal(c.ID)
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"campaign\": %s,\n  \"count\": %d,\n  \"limit\": %d,\n  \"offset\": %d,\n  \"records\": [",
		id, len(page), limit, offset)
	for i, rec := range page {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		if err := json.Indent(&b, rec, "    ", "  "); err != nil {
			s.writeError(w, http.StatusInternalServerError, "reading records: %v", err)
			return
		}
	}
	if len(page) > 0 {
		b.WriteString("\n  ")
	}
	fmt.Fprintf(&b, "],\n  \"total\": %d\n}\n", total)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b.Bytes())
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

// handleSubmitTune validates a JSON tuning spec and enqueues a
// design-space search job. The job shares the campaign endpoints for
// listing, state, events, and cancellation; its outcome is served by
// /api/v1/tune/{id}/result once done.
func (s *Server) handleSubmitTune(w http.ResponseWriter, r *http.Request) {
	ten, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	var spec tune.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad tune spec: %v", err)
		return
	}
	c, err := s.mgr.SubmitTuneAs(ten, spec)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.mgr.opts.Logger.Printf("tune job %s submitted by %s: %d planned evaluations", c.ID, ten.Name, c.Snapshot().Total)
	w.Header().Set("Location", "/api/v1/tune/"+c.ID+"/result")
	s.writeJSON(w, http.StatusAccepted, c.Snapshot())
}

// handleTuneResult serves a finished tune job's outcome — the Pareto
// front, the baseline, and the recommendation — from the job's file.
func (s *Server) handleTuneResult(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	if c.Kind != KindTune {
		s.writeError(w, http.StatusConflict, "campaign %s is not a tune job", c.ID)
		return
	}
	v := c.Snapshot()
	if v.RecordsPath == "" {
		s.writeError(w, http.StatusConflict, "tune job %s has no result yet (state %s)", c.ID, v.State)
		return
	}
	outcome, err := jsonl.Load[tune.Outcome](v.RecordsPath)
	if err == nil && len(outcome) != 1 {
		err = fmt.Errorf("%d outcomes, want 1", len(outcome))
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "reading tune result: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, outcome[0])
}

// handleVariants lists the workload variants a spec may name.
func (s *Server) handleVariants(w http.ResponseWriter, _ *http.Request) {
	vs := workload.Variants()
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = string(v)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"variants": names})
}

// handleMetrics serves this daemon's counters and derived gauges as
// one JSON object, keys sorted.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.mgr.metricsPage().String())
}
