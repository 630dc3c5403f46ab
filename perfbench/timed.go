package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Fixed reference prefixes: sim_s sums the first refAdhoc adhoc or
// refDashboard dashboard requests, and the traced replay replays them.
const (
	refAdhoc     = 100
	refDashboard = 2000
	// seqLen bounds the generated sequence; longer runs cycle through it.
	seqLen = 20000
)

// workload is a generated workload: its warm-up queries, its timed
// request sequence and, for live, its standing queries.
type workload struct {
	warm    []request
	seq     []request
	ref     int
	noCache bool
	subs    []request
}

func newWorkload(c *config) *workload {
	switch c.workload {
	case "adhoc":
		return &workload{warm: warmupQueries(c.seed), seq: adhocSequence(c.seed, seqLen), ref: refAdhoc, noCache: true}
	case "dashboard":
		panel := dashboardPanel(c.seed)
		return &workload{warm: panel, seq: dashboardSequence(c.seed, panel, seqLen), ref: refDashboard}
	default:
		subs := liveSubscriptions(c.seed)
		return &workload{warm: subs, subs: subs}
	}
}

func (w *workload) at(i int) request {
	r := w.seq[i%len(w.seq)]
	r.Seq = i
	return r
}

// setUp builds a fresh server and brings it to the state the timed
// requests meet: the stream open, its specialized networks trained and
// index segments built by warm-up, the planner's picks settled, and for
// dashboard the panel cached, for live the standing queries registered.
func setUp(c *config, w *workload) (*server, *warmState, []*liveSub, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(c)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	fail := func(err error) (*server, *warmState, []*liveSub, time.Duration, error) {
		s.close()
		return nil, nil, nil, 0, err
	}
	if err := s.srv.Preopen(context.Background(), stream); err != nil {
		return fail(err)
	}
	ws, err := warmUp(w.warm, func(r request) (outcome, error) {
		resp, err := s.query(r.Query, true)
		if err != nil {
			return outcome{}, err
		}
		return outcome{canonical: resp.Canonical, pick: resp.chosen(), sim: resp.Stats.TotalSeconds}, nil
	})
	if err != nil {
		return fail(err)
	}
	var subs []*liveSub
	for _, r := range w.subs {
		resp, err := s.subscribe(r.Query)
		if err != nil {
			return fail(fmt.Errorf("subscribe %q: %w", r.Query, err))
		}
		subs = append(subs, &liveSub{req: r, id: resp.ID, horizon: resp.Horizon, last: resp})
	}
	return s, ws, subs, time.Since(t0), nil
}

// releaseMemory returns freed heap to the operating system, so one
// set-up's garbage does not raise the next phase's resident memory.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runTimed measures the end-to-end metrics: set-up several times, run the
// timed window on the last server, and check every answer.
func runTimed(c *config, res *result) error {
	w := newWorkload(c)
	var setupTimes []float64
	var s *server
	var ws *warmState
	var subs []*liveSub
	for i := 0; i < c.setups; i++ {
		si, wsi, subsi, d, err := setUp(c, w)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		progress("set-up %d/%d: %.2fs (%d warm-up executions)", i+1, c.setups, d.Seconds(), wsi.runs)
		setupTimes = append(setupTimes, d.Seconds())
		if i < c.setups-1 {
			si.close()
			releaseMemory()
			continue
		}
		s, ws, subs = si, wsi, subsi
	}
	res.set("setup_s", median(setupTimes), len(setupTimes))
	res.facts["setup_runs_s"] = setupTimes
	res.facts["warmup_executions"] = ws.runs

	if c.workload == "live" {
		return timedLive(c, res, s, ws, subs)
	}
	// Set-up's garbage goes back to the operating system first, so the
	// sampled peak is the memory serving holds.
	releaseMemory()
	rss := startRSSSampler()
	samples := closedLoop(s, w.at, c.window(), w.ref, w.noCache)
	peak, n := rss.finish()
	res.set("peak_rss_mb", peak, n)
	// The replies hold everything the check needs; closing the server
	// first keeps its engine and the check's from being resident at once.
	s.close()
	releaseMemory()
	progress("timed window: %d requests", len(samples))
	summarizeQueries(c, res, w, ws, samples)
	return checkQueries(c, res, samples)
}

// summarizeQueries computes the end-to-end metrics of a closed-loop run.
func summarizeQueries(c *config, res *result, w *workload, ws *warmState, samples []sample) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].req.Seq < samples[j].req.Seq })
	var lat []float64
	answered, timed := 0, 0
	sim := 0.0
	if c.workload == "dashboard" {
		// The timed requests are all cache hits and charge nothing; the
		// dashboard's cost is the execution that primed each panel entry,
		// summed in panel order.
		for _, v := range ws.primedSim {
			sim += v
		}
	}
	simFam := map[string]float64{}
	latFam := map[string][]float64{}
	for _, sm := range samples {
		res.attempted++
		if sm.err != nil {
			res.failed++
			res.note("request %d failed: %v", sm.req.Seq, sm.err)
		}
		if sm.req.Seq < w.ref && sm.err == nil {
			sim += sm.resp.Stats.TotalSeconds
			simFam[sm.req.Family] += sm.resp.Stats.TotalSeconds
		}
		if !sm.timed {
			continue
		}
		timed++
		if sm.err == nil {
			if sm.start+sm.latency <= c.window() {
				answered++
			}
			lat = append(lat, ms(sm.latency))
			latFam[sm.req.Family] = append(latFam[sm.req.Family], ms(sm.latency))
		}
	}
	famP50 := map[string]float64{}
	for f, v := range latFam {
		famP50[f] = median(v)
	}
	res.facts["latency_p50_ms_by_family"] = famP50
	// Throughput counts replies that arrived inside the window, so a long
	// request still running when the window closes does not stretch it.
	res.set("throughput_qps", float64(answered)/c.window().Seconds(), answered)
	res.set("latency_p50_ms", percentile(lat, 50), len(lat))
	res.set("latency_p95_ms", percentile(lat, 95), len(lat))
	// A static stream's answer reflects everything due by the time the
	// request was sent, so its freshness is its latency.
	res.set("freshness_p50_ms", percentile(lat, 50), len(lat))
	res.set("freshness_p95_ms", percentile(lat, 95), len(lat))
	res.set("sim_s", sim, min(w.ref, len(samples)))
	res.facts["sim_by_family"] = simFam
	res.facts["timed_requests"] = timed
	res.facts["prefix_requests"] = w.ref
	res.facts["pick_changes"] = pickChanges(ws, samples)
	if c.workload == "adhoc" {
		keyShare, textShare := repeatShares(samples)
		res.facts["key_repeat_share"] = keyShare
		res.facts["text_repeat_share"] = textShare
	}
}

// pickChanges counts, per template key in sequence order, executed
// replies whose plan differs from the key's previous pick (warm-up's
// last pick first).
func pickChanges(ws *warmState, samples []sample) int {
	last := map[string]string{}
	for k, v := range ws.lastPick {
		last[k] = v
	}
	changes := 0
	for _, sm := range samples {
		if sm.err != nil || sm.resp.Cached {
			continue
		}
		p := sm.resp.chosen()
		if prev, ok := last[sm.req.Key]; ok && prev != p {
			changes++
		}
		last[sm.req.Key] = p
	}
	return changes
}

// repeatShares returns the share of requests whose (class set, content
// predicate) key appeared earlier in the sequence, and the share whose
// canonical text did.
func repeatShares(samples []sample) (keyShare, textShare float64) {
	keys, texts := map[string]bool{}, map[string]bool{}
	var keyRep, textRep, n int
	for _, sm := range samples {
		if sm.err != nil {
			continue
		}
		n++
		if keys[sm.req.Key] {
			keyRep++
		}
		if texts[sm.resp.Canonical] {
			textRep++
		}
		keys[sm.req.Key], texts[sm.resp.Canonical] = true, true
	}
	if n == 0 {
		return 0, 0
	}
	return float64(keyRep) / float64(n), float64(textRep) / float64(n)
}

// timedLive runs the live timed window and computes its metrics.
func timedLive(c *config, res *result, s *server, ws *warmState, subs []*liveSub) error {
	p := newLivePlan(c, dayFrames(c))
	releaseMemory()
	rss := startRSSSampler()
	lo := liveLoop(s, subs, p)
	peak, n := rss.finish()
	res.set("peak_rss_mb", peak, n)
	s.close()
	releaseMemory()
	if lo.err != nil {
		return lo.err
	}
	progress("live window: %d ingests, %d polls in %.2fs", len(lo.ingests), len(lo.polls), lo.end.Seconds())
	summarizeLive(c, res, p, ws, subs, lo)
	return checkLive(c, res, p, subs, lo)
}

func summarizeLive(c *config, res *result, p livePlan, ws *warmState, subs []*liveSub, lo *liveOutcome) {
	var lat, fresh []float64
	latFam := map[string][]float64{}
	for _, ps := range lo.polls {
		res.attempted++
		if ps.err != nil {
			res.failed++
			res.note("poll of %s failed: %v", subs[ps.sub].req.Family, ps.err)
			continue
		}
		lat = append(lat, ms(ps.latency))
		f := subs[ps.sub].req.Family
		latFam[f] = append(latFam[f], ms(ps.latency))
	}
	for _, is := range lo.ingests {
		res.attempted++
		if is.err != nil {
			res.failed++
			res.note("ingest failed: %v", is.err)
			continue
		}
		// Freshness: for each subscription, the first poll whose answer
		// covers this batch.
		for j := range subs {
			for _, ps := range lo.polls {
				if ps.sub == j && ps.err == nil && ps.horizon >= is.horizon {
					fresh = append(fresh, ms(ps.start+ps.latency-is.due))
					break
				}
			}
		}
	}
	ingest, late := ingestLatencies(lo)
	sim := 0.0
	for _, sub := range subs {
		sim += sub.last.Result.Stats.TotalSeconds
	}
	res.set("throughput_qps", float64(len(lat))/lo.end.Seconds(), len(lat))
	res.set("latency_p50_ms", percentile(lat, 50), len(lat))
	res.set("latency_p95_ms", percentile(lat, 95), len(lat))
	res.set("freshness_p50_ms", percentile(fresh, 50), len(fresh))
	res.set("freshness_p95_ms", percentile(fresh, 95), len(fresh))
	res.set("sim_s", sim, len(subs))
	famP50 := map[string]float64{}
	for f, v := range latFam {
		famP50[f] = median(v)
	}
	res.facts["latency_p50_ms_by_family"] = famP50
	res.facts["ingest_p50_ms"] = percentile(ingest, 50)
	res.facts["ingest_samples"] = len(ingest)
	res.facts["live_initial_frames"] = p.initial
	res.facts["live_batches"] = p.batches
	res.facts["frames_per_batch"] = p.batchFrames
	res.facts["batch_interval_ms"] = ms(p.interval)
	res.facts["generator_lateness_p50_ms"] = percentile(late, 50)
	res.facts["generator_lateness_max_ms"] = maxOf(late)
	res.facts["final_horizon"] = subs[0].horizon
	res.facts["pick_changes"] = livePickChanges(ws, subs, lo.polls)
}

// ingestLatencies returns each answered ingest's latency from its due
// time, and how late the generator sent it.
func ingestLatencies(lo *liveOutcome) (latency, lateness []float64) {
	for _, is := range lo.ingests {
		if is.err == nil {
			latency = append(latency, ms(is.done-is.due))
			lateness = append(lateness, ms(is.sent-is.due))
		}
	}
	return latency, lateness
}

// livePickChanges counts poll replies whose plan differs from the
// subscription's previous one (warm-up's last pick first).
func livePickChanges(ws *warmState, subs []*liveSub, polls []pollSample) int {
	last := map[int]string{}
	for j, sub := range subs {
		last[j] = ws.lastPick[sub.req.Key]
	}
	changes := 0
	for _, ps := range polls {
		if ps.err == nil && ps.plan != last[ps.sub] {
			changes++
			last[ps.sub] = ps.plan
		}
	}
	return changes
}
