package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"

	blazeit "repro"
	"repro/internal/core"
	"repro/internal/frameql"
	"repro/internal/vidsim"
)

// freshEngine opens an engine with the served options over a fresh index
// directory; the caller removes the directory.
func freshEngine(c *config) (*core.Engine, string, error) {
	dir, err := os.MkdirTemp(c.tmpDir(), "check-")
	if err != nil {
		return nil, "", err
	}
	sys, err := blazeit.Open(stream, c.engineOptions(dir))
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	// Train both classes' networks side by side rather than one after the
	// other behind whichever forced execution needs them first.
	eng := sys.Engine()
	errs := make([]error, len(classes))
	var wg sync.WaitGroup
	for i, class := range classes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = eng.Model([]vidsim.Class{vidsim.Class(class)})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", err
		}
	}
	return eng, dir, nil
}

// pairKey identifies one (canonical query, plan) pair.
type pairKey struct{ canonical, plan string }

// forced re-executes a canonical query with the named plan at
// parallelism 1 on the engine's current snapshot.
func forced(eng *core.Engine, canonical, plan string) (answer, error) {
	info, err := frameql.Analyze(canonical)
	if err != nil {
		return answer{}, err
	}
	pe, _ := eng.Pin()
	r, err := pe.ExecuteForced(info, 1, plan)
	if err != nil {
		return answer{}, err
	}
	return answerOfResult(r), nil
}

// checkPairs re-executes every pair on eng from two goroutines and
// returns the pairs whose answer differs from want, with the reason.
func checkPairs(eng *core.Engine, want map[pairKey]answer) map[pairKey]string {
	keys := make([]pairKey, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].canonical != keys[j].canonical {
			return keys[i].canonical < keys[j].canonical
		}
		return keys[i].plan < keys[j].plan
	})
	bad := map[pairKey]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan pairKey)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				got, err := forced(eng, k.canonical, k.plan)
				reason := ""
				switch {
				case err != nil:
					reason = err.Error()
				case !reflect.DeepEqual(got, want[k]):
					reason = "answer differs from a fresh forced execution"
				}
				if reason != "" {
					mu.Lock()
					bad[k] = reason
					mu.Unlock()
				}
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	return bad
}

// checkQueries verifies a closed-loop run: replies for the same pair must
// agree, and each pair must reproduce bit-identically on a fresh engine.
// Every request of a failing pair counts as failed.
func checkQueries(c *config, res *result, samples []sample) error {
	first := map[pairKey]*queryResp{}
	count := map[pairKey]int{}
	bad := map[pairKey]string{}
	for _, sm := range samples {
		if sm.err != nil {
			continue
		}
		k := pairKey{sm.resp.Canonical, sm.resp.chosen()}
		if prev, ok := first[k]; !ok {
			first[k] = sm.resp
		} else if !sameReply(prev, sm.resp) {
			bad[k] = "replies for the same query and plan disagree"
		}
		count[k]++
	}
	want := map[pairKey]answer{}
	for k, r := range first {
		a, err := answerOf(r)
		if err != nil {
			bad[k] = err.Error()
			continue
		}
		want[k] = a
	}
	eng, dir, err := freshEngine(c)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for k, reason := range checkPairs(eng, want) {
		bad[k] = reason
	}
	for k, reason := range bad {
		res.failed += count[k]
		res.note("answer check: %s [%s]: %s", k.canonical, k.plan, reason)
	}
	res.facts["checked_pairs"] = len(first)
	res.facts["mismatched_pairs"] = len(bad)
	progress("answer check: %d pairs, %d mismatched", len(first), len(bad))
	return nil
}

// checkLive verifies that each final standing answer equals a fresh
// forced query at the final horizon, on a fresh live engine that
// ingested the same batches.
func checkLive(c *config, res *result, p livePlan, subs []*liveSub, lo *liveOutcome) error {
	eng, dir, err := freshEngine(c)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, is := range lo.ingests {
		if is.err != nil {
			continue
		}
		if _, err := eng.AppendLive(p.batchFrames); err != nil {
			return fmt.Errorf("check engine ingest: %w", err)
		}
	}
	want := map[pairKey]answer{}
	for _, sub := range subs {
		if h := eng.Horizon(); sub.horizon != h {
			res.failed++
			res.note("answer check: %s ended at horizon %d, stream at %d", sub.req.Family, sub.horizon, h)
			continue
		}
		a, err := answerOf(sub.last.Result)
		if err != nil {
			return err
		}
		want[pairKey{sub.last.Result.Canonical, sub.last.Plan}] = a
	}
	bad := checkPairs(eng, want)
	for k, reason := range bad {
		res.failed++
		res.note("answer check: %s [%s]: %s", k.canonical, k.plan, reason)
	}
	res.facts["checked_pairs"] = len(want)
	res.facts["mismatched_pairs"] = len(bad)
	progress("answer check: %d standing answers, %d mismatched", len(want), len(bad))
	return nil
}
