package server

import (
	"io"
	"net/http"
	"strconv"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/trace"
)

// handleTrace replays experiment {n} of a campaign in detail mode and
// serves its propagation trace. The replay is derived from the
// campaign spec's seed — no trace is stored ahead of time — so it
// works for any experiment of any campaign, detector campaigns
// included, at the cost of two instrumented runs per request.
// ?format= selects the shape: json (default: record + trace + causal
// chain), svg (the propagation timeline), or text (the chain).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	if c.Kind != KindCampaign {
		s.writeError(w, http.StatusConflict, "campaign %s is not a fault-injection campaign", c.ID)
		return
	}
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 0 {
		s.writeError(w, http.StatusNotFound, "bad experiment index %q", r.PathValue("n"))
		return
	}
	rec, total, err := c.Record(n)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "reading records: %v", err)
		return
	}
	if rec == nil {
		s.writeError(w, http.StatusNotFound,
			"campaign %s has no record for experiment %d (state %s, %d records)",
			c.ID, n, c.Snapshot().State, total)
		return
	}
	cfg, err := c.Spec.Resolve()
	if err != nil { // validated at Submit; only a programming error lands here
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	local := n
	if c.Spec.Sequential() {
		// Experiment n of a precision-driven campaign is experiment
		// n mod B of its batch n / B, a fixed-count campaign with the
		// batch's own seed.
		pc := goofi.PrecisionConfig{Campaign: cfg, MaxExperiments: c.Spec.MaxExperiments}
		cfg, local = pc.Batch(n/goofi.DefaultBatchSize), n%goofi.DefaultBatchSize
	}

	tr, err := goofi.TraceExperiment(r.Context(), cfg, local)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away mid-trace; nothing to answer
		}
		s.writeError(w, http.StatusInternalServerError, "trace: %v", err)
		return
	}
	tr.Header.Experiment = n

	format := r.URL.Query().Get("format")
	switch format {
	case "", "json":
		s.writeJSON(w, http.StatusOK, map[string]any{
			"record": rec,
			"trace":  tr,
			"chain":  trace.Analyze(tr, 0),
		})
	case "svg":
		w.Header().Set("Content-Type", "image/svg+xml")
		io.WriteString(w, trace.TimelineSVG(tr, nil))
	case "text", "chain":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, trace.Analyze(tr, 0).String())
	default:
		s.writeError(w, http.StatusBadRequest, "unknown trace format %q", format)
	}
}
