package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	blazeit "repro"
	"repro/internal/core"
	"repro/internal/frameql"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/vidsim"
)

// tracer keeps the spans of one replay in memory. A nil tracer records
// nothing, so the plain replay runs the same code without spans.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one recorded call: times are microseconds from the tracer's
// start, and spans of one request share its request id (-1 for set-up).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int     `json:"request"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	req    int
	name   string
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(req int, parent *openSpan, name string) *openSpan {
	if t == nil {
		return nil
	}
	o := &openSpan{t: t, id: t.ids.Add(1), req: req, name: name, start: time.Now()}
	if parent != nil {
		o.parent = parent.id
	}
	return o
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	now := time.Now()
	t := o.t
	sp := span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: float64(o.start.Sub(t.t0).Nanoseconds()) / 1e3,
		End:   float64(now.Sub(t.t0).Nanoseconds()) / 1e3,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// stack is the serving stack assembled from the layers' own entry points:
// the registry, result cache and worker pool the server wires together,
// in the server's configuration.
type stack struct {
	reg      *serve.Registry
	cache    *serve.ResultCache
	pool     *serve.Pool
	ingestMu sync.Mutex
	dirs     []string
}

// serverCacheEntries is the server's default result-cache capacity.
const serverCacheEntries = 256

func newStack(c *config) *stack {
	st := &stack{cache: serve.NewResultCache(serverCacheEntries), pool: serve.NewPool(workers, 64)}
	st.reg = serve.NewRegistry(func(name string) (*core.Engine, error) {
		dir, err := os.MkdirTemp(c.tmpDir(), "replay-")
		if err != nil {
			return nil, err
		}
		st.dirs = append(st.dirs, dir)
		sys, err := blazeit.Open(name, c.engineOptions(dir))
		if err != nil {
			return nil, err
		}
		return sys.Engine(), nil
	})
	return st
}

func (st *stack) close() {
	st.pool.Close()
	for _, eng := range st.reg.Close() {
		_ = eng.FlushIndex() // the directory is removed next
	}
	for _, d := range st.dirs {
		os.RemoveAll(d)
	}
}

// buildIndex trains each class's specialized network and materializes
// its index segments, the set-up a server's background index build does.
func (st *stack) buildIndex(tr *tracer) error {
	eng, err := st.reg.Engine(context.Background(), stream)
	if err != nil {
		return err
	}
	errs := make([]error, len(classes))
	var wg sync.WaitGroup
	for i, class := range classes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set := []vidsim.Class{vidsim.Class(class)}
			sp := tr.begin(-1, nil, "specnn.train")
			_, _, err := eng.Model(set)
			sp.end()
			if err == nil {
				sp = tr.begin(-1, nil, "index.build")
				err = eng.BuildIndex(set)
				sp.end()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// executed is one replayed query.
type executed struct {
	res    *core.Result
	cached bool
	// rangeFrames is the frame count of the query's timestamp range at
	// the pinned horizon.
	rangeFrames int
	canonical   string
}

// query replays what the server's POST /query handler calls: analyze,
// pin, cache lookup, then on the worker pool the registry, pin, plan,
// scan and finalize, and last the cache store.
func (st *stack) query(tr *tracer, id int, q string, noCache bool) (executed, error) {
	root := tr.begin(id, nil, "request")
	defer root.end()
	sp := tr.begin(id, root, "frameql.analyze")
	info, err := frameql.Analyze(q)
	sp.end()
	if err != nil {
		return executed{}, err
	}
	canonical := info.Stmt.String()
	var epoch uint64
	if eng, ok := st.reg.Peek(stream); ok {
		sp = tr.begin(id, root, "core.pin")
		_, epoch = eng.Pin()
		sp.end()
	}
	if !noCache {
		sp = tr.begin(id, root, "serve.cache_get")
		hit := st.cache.Get(serve.CacheKey(stream, epoch, canonical))
		sp.end()
		if hit != nil {
			return executed{res: hit, cached: true, canonical: canonical}, nil
		}
	}
	var res *core.Result
	var execErr error
	var execEpoch uint64
	var horizon int
	do := tr.begin(id, root, "serve.pool_do")
	wait := tr.begin(id, do, "serve.pool_wait")
	poolErr := st.pool.Do(context.Background(), func() {
		wait.end()
		sp := tr.begin(id, do, "serve.registry")
		eng, err := st.reg.Engine(context.Background(), stream)
		sp.end()
		if err != nil {
			execErr = err
			return
		}
		sp = tr.begin(id, do, "core.pin")
		pe, ep := eng.Pin()
		sp.end()
		execEpoch, horizon = ep, pe.Horizon()
		sp = tr.begin(id, do, "core.plan")
		x, err := pe.BeginQuery(info, 0)
		sp.end()
		if err != nil {
			execErr = err
			return
		}
		sp = tr.begin(id, do, "core.scan")
		err = x.RunTo(-1)
		sp.end()
		if err != nil {
			execErr = err
			return
		}
		sp = tr.begin(id, do, "core.finalize")
		res, execErr = x.Result()
		sp.end()
	})
	do.end()
	if poolErr != nil {
		return executed{}, poolErr
	}
	if execErr != nil {
		return executed{}, execErr
	}
	sp = tr.begin(id, root, "serve.cache_put")
	st.cache.Put(serve.CacheKey(stream, execEpoch, canonical), res)
	sp.end()
	return executed{res: res, rangeFrames: rangeFrames(info, horizon), canonical: canonical}, nil
}

// rangeFrames is the number of frames in the query's timestamp range,
// clipped to the horizon as the engine clips it.
func rangeFrames(info *frameql.Info, horizon int) int {
	lo, hi := 0, horizon
	if info.TimeMin > 0 {
		lo = int(info.TimeMin)
	}
	if info.TimeMax >= 0 && int(info.TimeMax) < hi {
		hi = int(info.TimeMax)
	}
	if lo > hi {
		lo = hi
	}
	return hi - lo
}

// standing is one replayed standing query.
type standing struct {
	req  request
	cur  *plan.Cursor
	last *core.Result
}

// subscribe replays the POST /subscribe handler's engine calls.
func (st *stack) subscribe(r request) (*standing, error) {
	info, err := frameql.Analyze(r.Query)
	if err != nil {
		return nil, err
	}
	s := &standing{req: r}
	var execErr error
	poolErr := st.pool.Do(context.Background(), func() {
		eng, err := st.reg.Engine(context.Background(), stream)
		if err != nil {
			execErr = err
			return
		}
		x, err := eng.BeginQuery(info, 0)
		if err != nil {
			execErr = err
			return
		}
		if execErr = x.RunTo(-1); execErr != nil {
			return
		}
		if s.last, execErr = x.Result(); execErr != nil {
			return
		}
		s.cur, execErr = x.Suspend()
	})
	if poolErr != nil {
		return nil, poolErr
	}
	return s, execErr
}

// poll replays the GET /poll handler: when the stream has grown past the
// cursor, advance it on the worker pool. It returns the frames advanced.
func (st *stack) poll(tr *tracer, id int, s *standing) (int, error) {
	root := tr.begin(id, nil, "request")
	defer root.end()
	eng, ok := st.reg.Peek(stream)
	if !ok || eng.Horizon() <= s.cur.Horizon {
		return 0, nil
	}
	var res *core.Result
	var ncur *plan.Cursor
	var advErr error
	do := tr.begin(id, root, "serve.pool_do")
	wait := tr.begin(id, do, "serve.pool_wait")
	poolErr := st.pool.Do(context.Background(), func() {
		wait.end()
		sp := tr.begin(id, do, "core.advance")
		res, ncur, advErr = eng.Advance(s.cur)
		sp.end()
	})
	do.end()
	if poolErr != nil {
		return 0, poolErr
	}
	if advErr != nil {
		return 0, advErr
	}
	frames := ncur.Horizon - s.cur.Horizon
	s.cur, s.last = ncur, res
	return frames, nil
}

// ingest replays the POST /ingest handler's engine calls.
func (st *stack) ingest(tr *tracer, id, frames int) error {
	root := tr.begin(id, nil, "request")
	defer root.end()
	var ingErr error
	do := tr.begin(id, root, "serve.pool_do")
	wait := tr.begin(id, do, "serve.pool_wait")
	poolErr := st.pool.Do(context.Background(), func() {
		wait.end()
		sp := tr.begin(id, do, "serve.registry")
		eng, err := st.reg.Engine(context.Background(), stream)
		sp.end()
		if err != nil {
			ingErr = err
			return
		}
		st.ingestMu.Lock()
		defer st.ingestMu.Unlock()
		sp = tr.begin(id, do, "core.append")
		_, ingErr = eng.AppendLive(frames)
		sp.end()
	})
	do.end()
	if poolErr != nil {
		return poolErr
	}
	return ingErr
}

// httpPhase is the untraced HTTP run a traced invocation starts with.
type httpPhase struct {
	samples  []sample
	live     *liveOutcome
	subs     []*liveSub
	plan     livePlan
	warm     *warmState
	requests int
	allocMB  float64
	gcPause  time.Duration
}

// runHTTP sets a server up once and sends the workload's fixed reference
// sequence (for live, the full ingest schedule) without a time window.
func runHTTP(c *config, w *workload) (*httpPhase, error) {
	s, ws, subs, _, err := setUp(c, w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	h := &httpPhase{warm: ws, subs: subs}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if c.workload == "live" {
		h.plan = newLivePlan(c, dayFrames(c))
		h.live = liveLoop(s, subs, h.plan)
		if h.live.err != nil {
			return nil, h.live.err
		}
		h.requests = len(h.live.polls) + len(h.live.ingests)
	} else {
		h.samples = closedLoop(s, w.at, 0, w.ref, w.noCache)
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i].req.Seq < h.samples[j].req.Seq })
		h.requests = len(h.samples)
	}
	runtime.ReadMemStats(&after)
	h.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	h.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return h, nil
}

// runTraced measures the per-layer metrics: the untraced HTTP run, then
// a replay of the same requests through the layers' entry points, each
// request once plainly and once traced.
func runTraced(c *config, res *result) error {
	w := newWorkload(c)
	h, err := runHTTP(c, w)
	if err != nil {
		return err
	}
	progress("http run: %d requests", h.requests)
	releaseMemory()

	tr := newTracer()
	st, ws, err := prepareStack(c, w, tr)
	if err != nil {
		return err
	}
	defer st.close()
	lm := &layerMeasure{tr: tr, fam: map[int]string{}, detector: map[string][]float64{}}
	if c.workload == "live" {
		// A standing query advances once per batch, so its traced and
		// plain advances run on two stacks brought to the same state.
		plain, _, err := prepareStack(c, w, nil)
		if err != nil {
			return err
		}
		defer plain.close()
		err = replayLive(res, plain, st, w, h, lm)
	} else {
		err = replayQueries(c, res, st, w, h, ws, lm)
	}
	if err != nil {
		return err
	}
	lm.report(res, h)
	return writeSpans(c, res, tr)
}

// prepareStack builds a replay stack and brings it to the state the
// server's set-up leaves: specialized networks trained, index segments
// built (both spanned on tr) and the workload's warm-up run.
func prepareStack(c *config, w *workload, tr *tracer) (*stack, *warmState, error) {
	st := newStack(c)
	if err := st.buildIndex(tr); err != nil {
		st.close()
		return nil, nil, fmt.Errorf("replay index build: %w", err)
	}
	ws, err := warmUp(w.warm, func(r request) (outcome, error) {
		ex, err := st.query(nil, -1, r.Query, true)
		if err != nil {
			return outcome{}, err
		}
		return outcome{canonical: ex.canonical, pick: ex.res.PlanReport.Chosen, sim: ex.res.Stats.TotalSeconds()}, nil
	})
	if err != nil {
		st.close()
		return nil, nil, fmt.Errorf("replay warm-up: %w", err)
	}
	return st, ws, nil
}

// layerMeasure accumulates what the per-layer metrics are computed from.
type layerMeasure struct {
	tr *tracer
	// fam maps a traced request id to its plan family ("" for ingest).
	fam map[int]string
	// plain and traced are paired per-request durations in milliseconds
	// (live: per batch and standing query).
	plain, traced []float64
	detector      map[string][]float64
	candidates    []float64
	estErr        []float64
	skipped       int
	inRange       int
	advFrames     []float64
	cacheDelta    serve.CacheStats
}

// replayQueries replays the reference prefix from two clients; each
// request runs plainly and traced back to back, in alternating order.
func replayQueries(c *config, res *result, st *stack, w *workload, h *httpPhase, ws *warmState, lm *layerMeasure) error {
	n := min(w.ref, len(h.samples))
	type rec struct {
		plain, traced executed
		dp, dt        time.Duration
		err           error
	}
	recs := make([]rec, n)
	for i := 0; i < n; i++ {
		lm.fam[i] = h.samples[i].req.Family
	}
	before := st.cache.Stats()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				q := h.samples[i].req.Query
				r := &recs[i]
				runPlain := func() {
					t := time.Now()
					ex, err := st.query(nil, i, q, w.noCache)
					r.dp, r.plain = time.Since(t), ex
					if err != nil {
						r.err = err
					}
				}
				runTraced := func() {
					t := time.Now()
					ex, err := st.query(lm.tr, i, q, w.noCache)
					r.dt, r.traced = time.Since(t), ex
					if err != nil {
						r.err = err
					}
				}
				if i%2 == 0 {
					runPlain()
					runTraced()
				} else {
					runTraced()
					runPlain()
				}
			}
		}()
	}
	wg.Wait()
	after := st.cache.Stats()
	lm.cacheDelta = serve.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}

	// Answer check: every replayed answer must equal the HTTP answer for
	// the same query and plan; pairs only one side ran are re-executed
	// with the plan forced on the replay engine.
	want := map[pairKey]answer{}
	count := map[pairKey]int{}
	for _, sm := range h.samples[:n] {
		res.attempted++
		if sm.err != nil {
			res.failed++
			res.note("request %d failed: %v", sm.req.Seq, sm.err)
			continue
		}
		k := pairKey{sm.resp.Canonical, sm.resp.chosen()}
		a, err := answerOf(sm.resp)
		if err != nil {
			return err
		}
		want[k] = a
		count[k]++
	}
	extra := map[pairKey]answer{}
	covered := map[pairKey]bool{}
	for i, r := range recs {
		res.attempted += 2
		if r.err != nil {
			res.failed += 2
			res.note("replay of request %d failed: %v", i, r.err)
			continue
		}
		for _, ex := range []executed{r.plain, r.traced} {
			k := pairKey{ex.canonical, ex.res.PlanReport.Chosen}
			a := answerOfResult(ex.res)
			if wa, ok := want[k]; ok {
				covered[k] = true
				if !reflect.DeepEqual(wa, a) {
					res.failed++
					res.note("answer check: %s [%s]: replay differs from the HTTP reply", k.canonical, k.plan)
				}
			} else if ea, ok := extra[k]; ok && !reflect.DeepEqual(ea, a) {
				res.failed++
				res.note("answer check: %s [%s]: plain and traced replays differ", k.canonical, k.plan)
			} else {
				extra[k] = a
			}
		}
		lm.plain = append(lm.plain, ms(r.dp))
		lm.traced = append(lm.traced, ms(r.dt))
		if ex := r.traced; !ex.cached {
			rep := ex.res.PlanReport
			lm.detector[rep.Family] = append(lm.detector[rep.Family], float64(ex.res.Stats.DetectorCalls))
			lm.candidates = append(lm.candidates, float64(len(rep.Candidates)))
			lm.skipped += rep.IndexFramesSkipped
			lm.inRange += ex.rangeFrames
			if !ws.texts[ex.canonical] {
				est := rep.CalibratedSeconds
				if est == 0 {
					est = rep.EstimateSeconds
				}
				if est > 0 {
					lm.estErr = append(lm.estErr, math.Abs(rep.ActualSeconds-est)/est)
				}
			}
		}
	}
	for k, a := range want {
		if !covered[k] {
			extra[k] = a
		}
	}
	eng, _ := st.reg.Peek(stream)
	bad := checkPairs(eng, extra)
	for k, reason := range bad {
		res.failed += max(count[k], 1)
		res.note("answer check: %s [%s]: %s", k.canonical, k.plan, reason)
	}
	res.facts["checked_pairs"] = len(want) + len(extra)
	res.facts["mismatched_pairs"] = len(bad)
	res.layer["plan.pick_changes"] = float64(pickChanges(h.warm, h.samples))
	res.layer["serve.http_ms"] = median(httpLatencies(h.samples[:n])) - median(lm.plain)
	if c.workload == "adhoc" {
		keyShare, textShare := repeatShares(h.samples)
		res.facts["key_repeat_share"] = keyShare
		res.facts["text_repeat_share"] = textShare
	}
	return nil
}

func httpLatencies(samples []sample) []float64 {
	var out []float64
	for _, sm := range samples {
		if sm.err == nil {
			out = append(out, ms(sm.latency))
		}
	}
	return out
}

// replayLive replays the live schedule batch-synchronously on two stacks
// in the same state, one plain and one traced: each batch is ingested into
// both, then every standing query advances over it on both, in
// alternating order, so each advance is timed plainly and traced.
func replayLive(res *result, plain, traced *stack, w *workload, h *httpPhase, lm *layerMeasure) error {
	stacks := [2]*stack{plain, traced}
	tracers := [2]*tracer{nil, lm.tr}
	var subs [2][]*standing
	for i, st := range stacks {
		for _, r := range w.subs {
			s, err := st.subscribe(r)
			if err != nil {
				return fmt.Errorf("replay subscribe %q: %w", r.Query, err)
			}
			subs[i] = append(subs[i], s)
		}
	}
	id := 0
	for k, is := range h.live.ingests {
		if is.err != nil {
			continue
		}
		lm.fam[id] = ""
		for i, st := range stacks {
			res.attempted++
			if err := st.ingest(tracers[i], id, h.plan.batchFrames); err != nil {
				return fmt.Errorf("replay ingest: %w", err)
			}
		}
		id++
		for j, r := range w.subs {
			lm.fam[id] = r.Family
			var d [2]time.Duration
			for n := range stacks {
				i := (n + k + j) % 2
				t := time.Now()
				frames, err := stacks[i].poll(tracers[i], id, subs[i][j])
				d[i] = time.Since(t)
				res.attempted++
				if err != nil {
					return fmt.Errorf("replay advance of %s: %w", r.Family, err)
				}
				if i == 1 {
					lm.advFrames = append(lm.advFrames, float64(frames))
				}
			}
			lm.plain = append(lm.plain, ms(d[0]))
			lm.traced = append(lm.traced, ms(d[1]))
			id++
		}
	}

	// Answer check: the HTTP run's final standing answers and the replayed
	// ones must equal a fresh forced query at the final horizon.
	eng, _ := traced.reg.Peek(stream)
	pe, _ := eng.Pin()
	for _, ps := range h.live.polls {
		res.attempted++
		if ps.err != nil {
			res.failed++
			res.note("poll failed: %v", ps.err)
		}
	}
	for _, is := range h.live.ingests {
		res.attempted++
		if is.err != nil {
			res.failed++
			res.note("ingest failed: %v", is.err)
		}
	}
	want := map[pairKey]answer{}
	for _, sub := range h.subs {
		if sub.horizon != pe.Horizon() {
			res.failed++
			res.note("answer check: %s ended at horizon %d, replay stream at %d", sub.req.Family, sub.horizon, pe.Horizon())
			continue
		}
		a, err := answerOf(sub.last.Result)
		if err != nil {
			return err
		}
		want[pairKey{sub.last.Result.Canonical, sub.last.Plan}] = a
	}
	// A drift re-plan may leave a replayed copy on another plan than the
	// HTTP run's; such a pair is checked on its own.
	for _, s := range append(subs[0], subs[1]...) {
		k := pairKey{s.cur.Query, s.cur.Plan}
		a := answerOfResult(s.last)
		if wa, ok := want[k]; ok && !reflect.DeepEqual(wa, a) {
			res.failed++
			res.note("answer check: %s [%s]: replayed standing answer differs", k.canonical, k.plan)
			continue
		}
		want[k] = a
	}
	bad := checkPairs(pe, want)
	for k, reason := range bad {
		res.failed++
		res.note("answer check: %s [%s]: %s", k.canonical, k.plan, reason)
	}
	res.facts["checked_pairs"] = len(want)
	res.facts["mismatched_pairs"] = len(bad)
	ingest, _ := ingestLatencies(h.live)
	res.layer["serve.ingest_p50_ms"] = percentile(ingest, 50)
	res.layer["plan.pick_changes"] = float64(livePickChanges(h.warm, h.subs, h.live.polls))
	return nil
}
