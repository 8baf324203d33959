package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"ctrlguard/internal/castore"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
)

// RunChild runs one workload in this process: a measured phase with
// tracing off, and for a traced run the same operations again with
// spans recorded, followed by the layer probes. Any error counts as a
// failed operation of the returned Result.
func RunChild(ctx context.Context, opt Options) *Result {
	res := &Result{Workload: opt.Workload, Seed: opt.Seed, Traced: opt.Trace}
	if err := runChild(ctx, opt, res); err != nil {
		res.Attempted++
		res.fail(err)
	}
	return res
}

// workloadRun is the state one child run shares across its phases.
type workloadRun struct {
	opt Options
	res *Result
	tmp string
	chk *checker
}

func runChild(ctx context.Context, opt Options, res *Result) error {
	if err := os.MkdirAll(opt.tmpDir(), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(opt.tmpDir(), opt.Workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	digests, err := LoadDigests(filepath.Join(opt.Root, "bench", DigestFile))
	if err != nil {
		return err
	}
	w := &workloadRun{opt: opt, res: res, tmp: tmp, chk: newChecker(digests)}
	if opt.Workload == PaperTables || opt.Workload == FaultModels {
		return w.inproc(ctx)
	}
	return w.service(ctx)
}

// phase is one pass of operations; the slices are indexed by operation.
type phase struct {
	ops  [][]goofi.CampaignSpec
	lat  []time.Duration
	ok   []bool
	wall time.Duration
	rss  float64 // MB, the campaign process's peak RSS at the end
}

// opFunc runs operation idx and returns its latency.
type opFunc func(ctx context.Context, idx int, specs []goofi.CampaignSpec) (time.Duration, error)

// runPhase runs ops in order as a closed loop with one caller — each
// operation is sent only once the previous one completed — and then
// reads the campaign process's peak RSS through rss. Operations that
// would start after limit (if not zero) are skipped; the first always
// runs. Every workload has one caller. The in-process campaigns use
// every core themselves. On the service workloads a second caller made
// each submission's latency depend on which campaign the other had
// queued ahead of it on the daemon's single campaign worker.
func runPhase(ctx context.Context, ops [][]goofi.CampaignSpec, limit time.Duration, do opFunc, rss func() (float64, error), res *Result) (*phase, error) {
	p := &phase{}
	start := time.Now()
	for idx, specs := range ops {
		if ctx.Err() != nil || (idx > 0 && limit > 0 && time.Since(start) > limit) {
			fmt.Fprintf(os.Stderr, "ctrlbench: %s: stopped after %d of %d operations\n", res.Workload, idx, len(ops))
			break
		}
		lat, err := safeDo(ctx, do, idx, specs)
		res.Attempted++
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", idx, err))
		}
		p.ops = append(p.ops, specs)
		p.lat = append(p.lat, lat)
		p.ok = append(p.ok, err == nil)
	}
	p.wall = time.Since(start)
	var err error
	p.rss, err = rss()
	return p, err
}

// safeDo runs one operation, turning a panic into a failed operation so
// the phase still ends through its normal path, which stops the daemon.
func safeDo(ctx context.Context, do opFunc, idx int, specs []goofi.CampaignSpec) (lat time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return do(ctx, idx, specs)
}

// measuredOps is the untraced phase's operations and its time limit. A
// run takes the workload's fixed operations (the first MaxOps of them
// if set), and gives up to Seconds to them. A traced run takes the
// first half of them and half the time, and then repeats them traced.
func (w *workloadRun) measuredOps() ([][]goofi.CampaignSpec, time.Duration) {
	ops := workloadOps(w.opt.Workload, w.opt.Seed)
	if w.opt.MaxOps > 0 && w.opt.MaxOps < len(ops) {
		ops = ops[:w.opt.MaxOps]
	}
	seconds := w.opt.Seconds
	if w.opt.Trace {
		ops = ops[:(len(ops)+1)/2]
		seconds /= 2
	}
	return ops, time.Duration(seconds * float64(time.Second))
}

// opAlias is what each workload calls one operation's latency.
var opAlias = map[string]string{
	PaperTables: "tables_s",
	FaultModels: "campaign_s",
	Service:     "submit_to_report_s",
	ServiceDist: "submit_to_report_s",
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (w *workloadRun) endToEnd(p *phase) []Metric {
	var lat []float64
	exps := 0
	for i := range p.ops {
		if p.ok[i] {
			lat = append(lat, p.lat[i].Seconds())
			exps += experiments(p.ops[i])
		}
	}
	wall := p.wall.Seconds()
	if wall <= 0 {
		wall = 1
	}
	alias := opAlias[w.opt.Workload]
	out := []Metric{
		{Name: "experiments_per_s", Value: float64(exps) / wall, Unit: "1/s", N: len(lat)},
		{Name: "ops_per_s", Value: float64(len(lat)) / wall, Unit: "1/s", N: len(lat)},
		{Name: "op_s.p50", Value: median(lat), Unit: "s", N: len(lat)},
		{Name: alias + ".p50", Value: median(lat), Unit: "s", N: len(lat)},
		{Name: "peak_rss_mb", Value: p.rss, Unit: "MB"},
	}
	if k := tailPercentile(len(lat)); k > 50 {
		out = append(out, Metric{Name: alias + ".p" + strconv.Itoa(k), Value: quantile(lat, float64(k)/100), Unit: "s", N: len(lat)})
	}
	if w.opt.Workload == Service || w.opt.Workload == ServiceDist {
		out = append(out, Metric{Name: "campaigns_per_s", Value: float64(len(lat)) / wall, Unit: "1/s", N: len(lat)})
	}
	return out
}

// verifyFirst re-derives the first campaign's records with the
// in-process engine when the digest file does not pin it (any seed but
// 1): with one worker for the in-process workloads, as a solo run for
// the service workloads.
func (w *workloadRun) verifyFirst(ctx context.Context, p *phase, workers int) {
	if len(p.ops) == 0 {
		return
	}
	first := p.ops[0][0]
	if w.chk.covered(first) {
		return
	}
	w.res.Attempted++
	recs, err := runSpec(ctx, first, workers)
	if err == nil {
		err = w.chk.check(first, recs)
	}
	if err != nil {
		w.res.fail(fmt.Errorf("reference run: %w", err))
	}
}

func (w *workloadRun) inproc(ctx context.Context) error {
	// Let the process-wide caches (assembled programs, predecoded
	// streams) fill before timing, as a long-running caller's would.
	if err := Warmup(ctx); err != nil {
		return err
	}
	do := func(rec *Recorder, ct *campaignTimes) opFunc {
		return func(ctx context.Context, _ int, specs []goofi.CampaignSpec) (time.Duration, error) {
			op := rec.NewOp()
			root := rec.Start(op, 0, "op")
			t := time.Now()
			runs, err := inprocOp(ctx, specs, rec, op, root, ct)
			lat := time.Since(t)
			rec.End(root)
			if err != nil {
				return 0, err
			}
			for i, r := range runs {
				if err := w.chk.check(specs[i], r.recs); err != nil {
					return 0, err
				}
			}
			return lat, nil
		}
	}
	selfRSS := func() (float64, error) { return peakRSSMB("self") }
	ops, limit := w.measuredOps()
	a, err := runPhase(ctx, ops, limit, do(nil, nil), selfRSS, w.res)
	if err != nil {
		return err
	}
	w.res.add(w.endToEnd(a)...)
	if w.opt.Trace {
		rec, ct := NewRecorder(), newCampaignTimes()
		decodes := cpu.DecodeCalls()
		b, err := runPhase(ctx, a.ops, 0, do(rec, ct), selfRSS, w.res)
		if err != nil {
			return err
		}
		w.res.add(Metric{Name: "cpu.decode_calls", Value: float64(cpu.DecodeCalls() - decodes), Unit: "count"})
		w.res.add(ct.metrics()...)
		if err := w.traceMetrics(a, b, rec); err != nil {
			return err
		}
	}
	w.verifyFirst(ctx, a, 1)
	return nil
}

// serviceObs is what one service phase read from its daemon.
type serviceObs struct {
	metrics map[string]float64
	journal []journal.Entry
	cacheB  int64
	subs    map[int]*submission
}

func (w *workloadRun) service(ctx context.Context) error {
	ops, limit := w.measuredOps()
	a, obsA, err := w.servicePhase(ctx, "a", ops, limit, nil)
	if err != nil {
		return err
	}
	w.res.add(w.endToEnd(a)...)
	hits, misses := obsA.metrics["cache_hits"], obsA.metrics["cache_misses"]
	w.res.add(Metric{Name: "server.cache_hit_frac", Value: ratio(hits, hits+misses), Unit: "ratio", N: int(hits + misses)})

	if w.opt.Trace {
		rec := NewRecorder()
		decodes := cpu.DecodeCalls()
		b, obsB, err := w.servicePhase(ctx, "b", a.ops, 0, rec)
		if err != nil {
			return err
		}
		w.res.add(Metric{Name: "cpu.decode_calls", Value: float64(cpu.DecodeCalls() - decodes), Unit: "count"})
		w.res.add(serverMetrics(b, obsB, rec)...)

		// The daemon ran the campaigns, so the goofi layer is probed by
		// running the workload's own specs here.
		ct := newCampaignTimes()
		for _, sp := range probeSpecs(a.ops) {
			if _, err := runCampaign(ctx, sp, nil, 0, 0, ct); err != nil {
				return err
			}
		}
		w.res.add(ct.metrics()...)
		if err := w.traceMetrics(a, b, rec); err != nil {
			return err
		}
	}
	w.verifyFirst(ctx, a, 0)
	return nil
}

// servicePhase runs one pass of submissions against a fresh daemon and
// reads back what the daemon recorded about them.
func (w *workloadRun) servicePhase(ctx context.Context, name string, ops [][]goofi.CampaignSpec, limit time.Duration, rec *Recorder) (*phase, *serviceObs, error) {
	dir := filepath.Join(w.tmp, name)
	d, err := startDaemon(ctx, w.opt.binDir(), dir, w.opt.Workload == ServiceDist)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	// Submissions alternate between the two tenants' API keys.
	clients := make([]*client, len(benchTenants))
	for i, t := range benchTenants {
		clients[i] = &client{http: hc, base: d.base, key: t.Key}
	}
	if _, err := clients[0].submit(ctx, warmupSpec, nil, 0, 0); err != nil {
		return nil, nil, fmt.Errorf("warm-up submission: %w", err)
	}

	obs := &serviceObs{subs: make(map[int]*submission)}
	do := func(ctx context.Context, idx int, specs []goofi.CampaignSpec) (time.Duration, error) {
		sp := specs[0]
		op := rec.NewOp()
		root := rec.Start(op, 0, "op")
		t := time.Now()
		s, err := clients[idx%len(clients)].submit(ctx, sp, rec, op, root)
		lat := time.Since(t)
		rec.End(root)
		if err != nil {
			return 0, err
		}
		if s.reportRec != sp.Experiments {
			return 0, fmt.Errorf("campaign %s: report covers %d records, want %d", s.id, s.reportRec, sp.Experiments)
		}
		if err := w.chk.check(sp, s.recs); err != nil {
			return 0, err
		}
		obs.subs[idx] = s
		return lat, nil
	}
	p, err := runPhase(ctx, ops, limit, do, d.peakRSSMB, w.res)
	if err != nil {
		return nil, nil, err
	}
	if obs.metrics, err = clients[0].serverMetrics(ctx); err != nil {
		return nil, nil, err
	}
	if obs.journal, err = d.readJournal(); err != nil {
		return nil, nil, err
	}
	store, err := castore.Open(filepath.Join(dir, "cache"), 0)
	if err != nil {
		return nil, nil, err
	}
	_, obs.cacheB = store.Stats()
	return p, obs, nil
}

// serverMetrics derives the server-side layer metrics of a traced
// service phase: the client's view of each HTTP call, and the daemon's
// own view read back from its journal and attached to each submission
// by job ID.
func serverMetrics(p *phase, obs *serviceObs, rec *Recorder) []Metric {
	type jobTimes struct{ submitted, started, terminal time.Time }
	jobs := make(map[string]*jobTimes)
	type shardKey struct {
		job   string
		shard int
	}
	leased := make(map[shardKey]time.Time)
	type lease struct {
		key        shardKey
		start, end time.Time
	}
	var leases []lease
	for _, e := range obs.journal {
		j := jobs[e.Job]
		if j == nil {
			j = &jobTimes{}
			jobs[e.Job] = j
		}
		switch e.Type {
		case journal.EventSubmitted:
			j.submitted = e.Time
		case journal.EventStarted:
			j.started = e.Time
		case journal.EventTerminal:
			j.terminal = e.Time
		case journal.EventShardLeased:
			if e.Shard != nil {
				leased[shardKey{e.Job, *e.Shard}] = e.Time
			}
		case journal.EventShardCompleted:
			if e.Shard != nil {
				k := shardKey{e.Job, *e.Shard}
				leases = append(leases, lease{k, leased[k], e.Time})
			}
		}
	}
	runSpans := make(map[string]Span)
	for id, j := range jobs {
		if j.terminal.IsZero() {
			continue
		}
		if j.started.IsZero() {
			rec.AttachJob(id, "server.cached", j.submitted, j.terminal)
			continue
		}
		rec.AttachJob(id, "server.queue_wait", j.submitted, j.started)
		if s, ok := rec.AttachJob(id, "server.run", j.started, j.terminal); ok {
			runSpans[id] = s
		}
	}
	shards := make(map[string]int)
	for _, l := range leases {
		shards[l.key.job]++
		if s, ok := runSpans[l.key.job]; ok {
			rec.Add(Span{Op: s.Op, Parent: s.ID, Name: "dist.lease", Start: rec.At(l.start), End: rec.At(l.end)})
		}
	}

	var notify, hitLat []float64
	for idx, s := range obs.subs {
		if j := jobs[s.id]; j != nil && !j.terminal.IsZero() {
			notify = append(notify, ms(s.terminal.Sub(j.terminal)))
		}
		if s.cacheHit {
			hitLat = append(hitLat, p.lat[idx].Seconds())
		}
	}
	spans := rec.Spans()
	medianOf := func(metric, span string) Metric {
		xs := DurByName(spans, span)
		return Metric{Name: metric, Value: median(xs), Unit: "ms", N: len(xs)}
	}
	out := []Metric{
		medianOf("server.submit_ms", "http.submit"),
		medianOf("server.report_ms", "http.report"),
		medianOf("server.records_ms", "http.records"),
		medianOf("server.queue_wait_ms", "server.queue_wait"),
		medianOf("server.run_ms", "server.run"),
		{Name: "server.notify_ms", Value: median(notify), Unit: "ms", N: len(notify)},
		{Name: "journal.entries_per_campaign", Value: ratio(float64(len(obs.journal)), float64(len(jobs))), Unit: "count", N: len(jobs)},
		{Name: "castore.bytes", Value: float64(obs.cacheB), Unit: "bytes"},
	}
	if len(hitLat) > 0 {
		out = append(out, Metric{Name: "server.cache_hit_s.p50", Value: median(hitLat), Unit: "s", N: len(hitLat)})
	}
	if len(leases) > 0 {
		out = append(out,
			medianOf("dist.lease_ms", "dist.lease"),
			Metric{Name: "dist.shards_per_campaign", Value: ratio(float64(len(leases)), float64(len(shards))), Unit: "count", N: len(shards)},
			Metric{Name: "dist.shards_expired", Value: obs.metrics["shards_expired"], Unit: "count"},
		)
	}
	return out
}

// traceMetrics adds the metrics every traced run reports — the layer
// probes, self times from the spans, and the tracing overhead — and
// writes the span file.
func (w *workloadRun) traceMetrics(a, b *phase, rec *Recorder) error {
	probes, err := probeLayers(probeSpecs(a.ops), w.tmp)
	if err != nil {
		return err
	}
	w.res.add(probes...)
	w.res.add(Metric{Name: "trace_overhead_frac", Value: ratio(float64(b.wall), float64(a.wall)) - 1, Unit: "ratio", N: len(b.ops)})

	spans := rec.Spans()
	ops := float64(max(Ops(spans), 1))
	self := SelfByName(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		metric := "self_ms." + name
		if name == "op" {
			metric = "op.self_ms"
		}
		w.res.add(Metric{Name: metric, Value: float64(self[name]) / 1e6 / ops, Unit: "ms", N: int(ops)})
	}

	if w.opt.SpanFile == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(w.opt.SpanFile), 0o755); err != nil {
		return err
	}
	f, err := os.Create(w.opt.SpanFile)
	if err != nil {
		return err
	}
	if err := WriteSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
