package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vidsim"
)

// Warm-up policy: each warm-up query runs until its plan pick settles —
// at least warmMin times, stopping once the last warmSettle picks agree,
// and at most warmMax times. The planner's feedback calibration needs
// three observations before it acts, so a pick can still change after
// the first executions.
const (
	warmMin    = 3
	warmSettle = 3
	warmMax    = 6
)

// outcome is one warm-up execution as the benchmark sees it.
type outcome struct {
	canonical string
	pick      string
	sim       float64
}

// warmState records what warm-up did, for the planner-honesty metrics.
type warmState struct {
	mu sync.Mutex
	// texts holds every canonical text warm-up executed.
	texts map[string]bool
	// lastPick maps a template key to warm-up's final pick for it.
	lastPick map[string]string
	runs     int
	// primedSim holds, per warm-up request in the order given, the
	// simulated seconds of its last execution: the one whose result the
	// server's cache keeps.
	primedSim []float64
}

// warmUp runs the warm-up policy over reqs on two goroutines: one runs
// the selection queries and the other everything else, each in the order
// given. Selection, the costliest family, overlaps the other classes'
// training, and every selection execution happens in one fixed order, so
// the planner's feedback calibration for selection leaves set-up in the
// same state in every run.
func warmUp(reqs []request, exec func(request) (outcome, error)) (*warmState, error) {
	ws := &warmState{texts: map[string]bool{}, lastPick: map[string]string{}, primedSim: make([]float64, len(reqs))}
	var parts [2][]int
	for k, r := range reqs {
		i := 0
		if r.Family == "selection" {
			i = 1
		}
		parts[i] = append(parts[i], k)
	}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range part {
				r := reqs[k]
				var picks []string
				var sim float64
				for n := 0; n < warmMax; n++ {
					o, err := exec(r)
					if err != nil {
						errs[i] = fmt.Errorf("warm-up %q: %w", r.Query, err)
						return
					}
					ws.mu.Lock()
					ws.texts[o.canonical] = true
					ws.runs++
					ws.mu.Unlock()
					picks = append(picks, o.pick)
					sim = o.sim
					if len(picks) >= warmMin && settled(picks) {
						break
					}
				}
				ws.mu.Lock()
				ws.lastPick[r.Key] = picks[len(picks)-1]
				ws.primedSim[k] = sim
				ws.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// settled reports whether the last warmSettle picks agree.
func settled(picks []string) bool {
	if len(picks) < warmSettle {
		return false
	}
	last := picks[len(picks)-warmSettle:]
	for _, p := range last {
		if p != last[0] {
			return false
		}
	}
	return true
}

// sample is one closed-loop request.
type sample struct {
	req request
	// start and latency are measured from the loop's start.
	start, latency time.Duration
	// timed reports whether the request was sent inside the timed window.
	timed bool
	resp  *queryResp
	err   error
}

// closedLoop sends requests seq(0), seq(1), ... from `clients` goroutines,
// each sending its next request once the previous reply arrived. Clients
// stop sending when the window has passed and the first `prefix`
// requests have all been sent; requests sent after the window only
// complete that fixed prefix and are marked untimed.
func closedLoop(s *server, seq func(int) request, window time.Duration, prefix int, noCache bool) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	// first holds the first reply per (query, plan) pair; identical later
	// replies share its encoded lists, so a long run keeps one copy.
	first := map[pairKey]*queryResp{}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				start := time.Since(t0)
				timed := start < window
				if !timed && i >= prefix {
					return
				}
				r := seq(i)
				resp, err := s.query(r.Query, noCache)
				sm := sample{req: r, start: start, latency: time.Since(t0) - start, timed: timed, resp: resp, err: err}
				mu.Lock()
				if err == nil {
					k := pairKey{resp.Canonical, resp.chosen()}
					if prev, ok := first[k]; ok {
						resp.share(prev)
					} else {
						first[k] = resp
					}
				}
				out = append(out, sm)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// Live workload shape: a quarter of the day is visible at set-up, and the
// ingester appends liveBatchFrames frames every liveInterval for the
// timed window.
const (
	liveStart       = 0.25
	liveBatchFrames = 768
	liveInterval    = 160 * time.Millisecond
)

// livePlan is the ingest schedule of one live run.
type livePlan struct {
	initial     int // frames visible at set-up
	batches     int
	batchFrames int
	interval    time.Duration
}

// dayFrames is the benchmarked stream's day length at the run's scale.
func dayFrames(c *config) int {
	cfg, err := vidsim.Stream(stream)
	if err != nil {
		panic(err) // the stream name is a constant of this program
	}
	return cfg.Scaled(c.scale).FramesPerDay
}

func newLivePlan(c *config, dayFrames int) livePlan {
	initial := int(liveStart * float64(dayFrames))
	batches := int(c.window() / liveInterval)
	if batches < 1 {
		batches = 1
	}
	frames := liveBatchFrames
	if room := (dayFrames - initial) / batches; room < frames {
		frames = room
	}
	return livePlan{
		initial:     initial,
		batches:     batches,
		batchFrames: frames,
		interval:    liveInterval,
	}
}

// liveSub is one standing query of the live workload.
type liveSub struct {
	req     request
	id      string
	horizon int
	last    *subResp
}

// pollSample is one /poll round trip.
type pollSample struct {
	sub            int
	start, latency time.Duration
	horizon        int
	plan           string
	err            error
}

// ingestSample is one /ingest round trip; due, sent and done are offsets
// from the schedule's start.
type ingestSample struct {
	due, sent, done time.Duration
	horizon         int
	err             error
}

type liveOutcome struct {
	polls   []pollSample
	ingests []ingestSample
	end     time.Duration
	err     error
}

// liveLoop runs the live workload: one goroutine ingests a batch at each
// due time of the plan, open loop, while another polls the standing
// queries round-robin in a closed loop. After a round in which no answer
// moved, the poller waits for the next ingest. It stops once every
// subscription's answer covers the last ingested frame.
func liveLoop(s *server, subs []*liveSub, p livePlan) *liveOutcome {
	out := &liveOutcome{}
	t0 := time.Now()
	ingested := make(chan struct{}, 1) // coalescing wake-up for the poller
	ingestDone := make(chan struct{})
	var finalHorizon atomic.Int64
	finalHorizon.Store(int64(p.initial))
	go func() {
		defer close(ingestDone)
		for k := 0; k < p.batches; k++ {
			due := time.Duration(k) * p.interval
			if d := due - time.Since(t0); d > 0 {
				time.Sleep(d)
			}
			sent := time.Since(t0)
			resp, err := s.ingest(p.batchFrames)
			is := ingestSample{due: due, sent: sent, done: time.Since(t0), err: err}
			if err == nil {
				is.horizon = resp.Horizon
				finalHorizon.Store(int64(resp.Horizon))
			}
			out.ingests = append(out.ingests, is)
			select {
			case ingested <- struct{}{}:
			default:
			}
		}
	}()
	deadline := time.Duration(p.batches)*p.interval + 60*time.Second
	finished := false
	for !finished {
		moved := false
		for j, sub := range subs {
			start := time.Since(t0)
			resp, err := s.poll(sub.id)
			ps := pollSample{sub: j, start: start, latency: time.Since(t0) - start, err: err}
			if err == nil {
				ps.horizon, ps.plan = resp.Horizon, resp.Plan
				sub.horizon, sub.last = resp.Horizon, resp
				moved = moved || resp.Updated
			}
			out.polls = append(out.polls, ps)
		}
		select {
		case <-ingestDone:
			finished = true
			for _, sub := range subs {
				if int64(sub.horizon) < finalHorizon.Load() {
					finished = false
				}
			}
		default:
		}
		if time.Since(t0) > deadline {
			out.err = fmt.Errorf("live: standing answers did not reach horizon %d within %s", finalHorizon.Load(), deadline)
			<-ingestDone
			break
		}
		if !finished && !moved {
			select {
			case <-ingested:
			case <-ingestDone:
			}
		}
	}
	out.end = time.Since(t0)
	return out
}
