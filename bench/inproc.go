package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ctrlguard/internal/goofi"
)

// campaignTimes accumulates the goofi layer's timings over the
// campaigns this process runs with tracing on.
type campaignTimes struct {
	byKind   map[string][]float64 // RunContext ms per campaign kind
	plan     []float64            // RunContext start → first record, ms
	simulate []float64            // first record → RunContext end, ms
	util     []float64            // CPU time ÷ (wall × GOMAXPROCS)
	write    []float64            // WriteRecords ms
	analyze  []float64            // Analyze ms
	layers   resultLayers
	sample   []byte // one campaign's encoded records, for the read probe
}

func newCampaignTimes() *campaignTimes {
	return &campaignTimes{byKind: make(map[string][]float64)}
}

// campaignRun is one campaign's records plus what the op needs of them.
type campaignRun struct {
	recs     []goofi.Record
	analysis *goofi.Analysis
	encoded  []byte
}

// runCampaign runs one campaign in-process — RunContext, WriteRecords,
// Analyze — recording a span around each call when rec is non-nil and
// the goofi layer's timings into ct when ct is non-nil.
func runCampaign(ctx context.Context, sp goofi.CampaignSpec, rec *Recorder, op, parent int, ct *campaignTimes) (*campaignRun, error) {
	cfg, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	var first time.Time
	if rec != nil || ct != nil {
		cfg.OnRecord = func(goofi.Record) {
			if first.IsZero() {
				first = time.Now()
			}
		}
	}
	runSpan := rec.Start(op, parent, "goofi.run")
	cpu0, t0 := cpuTime(), time.Now()
	res, err := goofi.RunContext(ctx, cfg)
	t1, cpu1 := time.Now(), cpuTime()
	rec.End(runSpan)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", specKey(sp), err)
	}
	if rec != nil && !first.IsZero() {
		rec.Add(Span{Op: op, Parent: runSpan, Name: "goofi.plan", Start: rec.At(t0), End: rec.At(first)})
		rec.Add(Span{Op: op, Parent: runSpan, Name: "goofi.simulate", Start: rec.At(first), End: rec.At(t1)})
	}

	wSpan := rec.Start(op, parent, "goofi.write_records")
	w0 := time.Now()
	encoded, err := encodeRecords(res.Records)
	w1 := time.Now()
	rec.End(wSpan)
	if err != nil {
		return nil, err
	}
	aSpan := rec.Start(op, parent, "goofi.analyze")
	a := goofi.Analyze(res.Records)
	a1 := time.Now()
	rec.End(aSpan)

	if ct != nil {
		ct.byKind[specKind(sp)] = append(ct.byKind[specKind(sp)], ms(t1.Sub(t0)))
		if !first.IsZero() {
			ct.plan = append(ct.plan, ms(first.Sub(t0)))
			ct.simulate = append(ct.simulate, ms(t1.Sub(first)))
		}
		if wall := t1.Sub(t0); wall > 0 {
			ct.util = append(ct.util, float64(cpu1-cpu0)/(float64(wall)*float64(runtime.GOMAXPROCS(0))))
		}
		ct.write = append(ct.write, ms(w1.Sub(w0)))
		ct.analyze = append(ct.analyze, ms(a1.Sub(w1)))
		ct.layers.add(res)
		if ct.sample == nil {
			ct.sample = encoded
		}
	}
	return &campaignRun{recs: res.Records, analysis: a, encoded: encoded}, nil
}

// inprocOp runs one paper-tables or fault-models operation: every
// campaign of the op, and for paper-tables the three rendered tables.
// It returns the campaigns for the correctness check, which the caller
// does outside the timed interval.
func inprocOp(ctx context.Context, specs []goofi.CampaignSpec, rec *Recorder, op, root int, ct *campaignTimes) ([]*campaignRun, error) {
	runs := make([]*campaignRun, 0, len(specs))
	for _, sp := range specs {
		r, err := runCampaign(ctx, sp, rec, op, root, ct)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 2 {
		span := rec.Start(op, root, "goofi.render_tables")
		a1, a2 := runs[0].analysis, runs[1].analysis
		tables := a1.RenderRegionTable("Results for Algorithm I (cf. paper Table 2)") +
			a2.RenderRegionTable("Results for Algorithm II (cf. paper Table 3)") +
			goofi.RenderComparisonTable(a1, a2)
		rec.End(span)
		if len(tables) == 0 {
			return nil, fmt.Errorf("empty tables")
		}
	}
	return runs, nil
}

// metrics reports the goofi layer's timings and the fast-path layers'
// counters gathered in ct.
func (ct *campaignTimes) metrics() []Metric {
	kinds := make([]string, 0, len(ct.byKind))
	for kind := range ct.byKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	var all []float64
	var out []Metric
	for _, kind := range kinds {
		xs := ct.byKind[kind]
		all = append(all, xs...)
		out = append(out, Metric{Name: "goofi.campaign_ms." + kind, Value: median(xs), Unit: "ms", N: len(xs)})
	}
	out = append(out,
		Metric{Name: "goofi.campaign_ms", Value: median(all), Unit: "ms", N: len(all)},
		Metric{Name: "goofi.plan_ms", Value: median(ct.plan), Unit: "ms", N: len(ct.plan)},
		Metric{Name: "goofi.simulate_ms", Value: median(ct.simulate), Unit: "ms", N: len(ct.simulate)},
		Metric{Name: "goofi.cpu_util", Value: median(ct.util), Unit: "ratio", N: len(ct.util)},
		Metric{Name: "goofi.write_records_ms", Value: median(ct.write), Unit: "ms", N: len(ct.write)},
		Metric{Name: "goofi.analyze_ms", Value: median(ct.analyze), Unit: "ms", N: len(ct.analyze)},
	)
	if ct.sample != nil {
		d := timeIt(3, func() { _, _ = goofi.ReadRecords(bytes.NewReader(ct.sample)) })
		out = append(out, Metric{Name: "goofi.read_records_ms", Value: ms(d), Unit: "ms", N: 3})
	}
	return append(out, ct.layers.metrics()...)
}
