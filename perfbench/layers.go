package main

import (
	"fmt"
	"path/filepath"
	"sort"
)

// report computes the per-layer metrics from the traced replay's spans
// and the measurements taken beside them.
func (lm *layerMeasure) report(res *result, h *httpPhase) {
	spans := lm.tr.spans
	byFam := map[string]map[string][]float64{} // family → span name → ms
	perReq := map[int]map[string]float64{}     // request → span name → total µs
	var train, build float64
	for _, s := range spans {
		switch s.Name {
		case "specnn.train":
			train += s.dur() / 1e6
			continue
		case "index.build":
			build += s.dur() / 1e6
			continue
		}
		if s.Req < 0 {
			continue
		}
		fam := lm.fam[s.Req]
		if byFam[fam] == nil {
			byFam[fam] = map[string][]float64{}
		}
		byFam[fam][s.Name] = append(byFam[fam][s.Name], s.dur()/1e3)
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]float64{}
		}
		perReq[s.Req][s.Name] += s.dur()
	}
	for _, f := range families {
		m := byFam[f]
		res.layer["core.plan_ms."+f] = median(m["core.plan"])
		res.layer["core.scan_ms."+f] = median(m["core.scan"])
		res.layer["core.finalize_ms."+f] = median(m["core.finalize"])
		res.layer["core.advance_ms."+f] = median(m["core.advance"])
		if work := sum(m["core.plan"]) + sum(m["core.scan"]) + sum(m["core.finalize"]); work > 0 {
			res.layer["core.plan_share."+f] = sum(m["core.plan"]) / work
		}
		res.layer["core.detector_calls."+f] = mean(lm.detector[f])
	}
	var analyze, cache, wait, appendMs []float64
	for _, m := range byFam {
		analyze = append(analyze, m["frameql.analyze"]...)
		wait = append(wait, m["serve.pool_wait"]...)
		appendMs = append(appendMs, m["core.append"]...)
	}
	for _, names := range perReq {
		get, okGet := names["serve.cache_get"]
		put, okPut := names["serve.cache_put"]
		if okGet || okPut {
			cache = append(cache, get+put)
		}
	}
	res.layer["core.append_ms"] = median(appendMs)
	res.layer["core.advance_frames"] = mean(lm.advFrames)
	res.layer["plan.candidates"] = mean(lm.candidates)
	res.layer["plan.estimate_error_heldout"] = mean(lm.estErr)
	if lm.inRange > 0 {
		res.layer["index.frames_skipped_ratio"] = float64(lm.skipped) / float64(lm.inRange)
	}
	res.layer["index.build_s"] = build
	res.layer["specnn.train_s"] = train
	res.layer["frameql.analyze_us"] = median(analyze) * 1e3
	res.layer["serve.cache_us"] = median(cache)
	if n := lm.cacheDelta.Hits + lm.cacheDelta.Misses; n > 0 {
		res.layer["serve.cache_hit_ratio"] = float64(lm.cacheDelta.Hits) / float64(n)
	}
	res.layer["serve.pool_wait_ms"] = median(wait)
	if h.requests > 0 {
		res.layer["go.alloc_mb_per_req"] = h.allocMB / float64(h.requests)
	}
	res.layer["go.gc_pause_ms"] = ms(h.gcPause)
	diffs := make([]float64, len(lm.plain))
	for i := range lm.plain {
		diffs[i] = lm.traced[i] - lm.plain[i]
	}
	res.layer["trace.overhead_ms"] = median(diffs)
	res.facts["replayed_requests"] = len(lm.plain)
	res.facts["held_out_variants"] = len(lm.estErr)
	res.facts["http_requests"] = h.requests
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// selfTime summarizes spans by name: count, total and self time, where a
// span's self time is its duration minus the part of it its children
// cover.
type selfTime struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func selfTimes(spans []span) map[string]*selfTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*selfTime{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalUS += s.dur()
		st.SelfUS += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the traced replay's spans, their self-time summary
// and the run's facts to the work directory.
func writeSpans(c *config, res *result, tr *tracer) error {
	path := filepath.Join(c.workdir, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
	err := writeJSONFile(path, map[string]any{
		"facts":     res.facts,
		"self_time": selfTimes(tr.spans),
		"spans":     tr.spans,
	})
	if err != nil {
		return err
	}
	res.facts["span_file"] = path
	progress("spans: %d written to %s", len(tr.spans), path)
	return nil
}
