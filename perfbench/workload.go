package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// request is one generated FrameQL request of a workload's seeded sequence.
type request struct {
	// Seq is the request's position in the sequence.
	Seq int
	// Family is the plan family the template targets.
	Family string
	// Key names the template with its class set and content predicate:
	// requests sharing a key share the planner's preparation inputs
	// (specialized network, content filters) but usually not their text.
	Key string
	// Query is the FrameQL text the server receives.
	Query string
}

// families lists the six plan families in a fixed order.
var families = []string{"aggregate", "scrubbing", "selection", "binary-detection", "distinct-count", "exhaustive"}

// adhocRound is one adhoc round: a fixed mix in a fixed order, so every
// seed sends the same families at the same positions and only the
// literals vary. Selection, by far the costliest family, is one request
// in nine, so the 95th latency percentile falls among selections and the
// median among scrubs rather than in the gap between two families. The
// entries' indices pick the class: even for car, odd for bus.
var adhocRound = []string{
	"selection", "aggregate", "scrubbing", "binary-detection", "distinct-count",
	"aggregate", "scrubbing", "binary-detection", "exhaustive",
}

// alternating are the families with one request per adhoc round; their
// class or predicate alternates from round to round.
var alternating = map[string]bool{"distinct-count": true, "selection": true}

var classes = []string{"car", "bus"}

// contentPreds are the selection content predicates. Each repeats across
// requests, as an analyst refining one search would send it.
var contentPreds = []string{"redness(content) >= 17.5", "blueness(content) >= 15"}

// fixedMinFrames is the selection HAVING COUNT(*) threshold of warm-up, the
// dashboard panel and the live subscription.
const fixedMinFrames = 15

// roundMinFrames are the thresholds of adhoc's selection requests, one per
// round in turn. They are taken by round index, not drawn from the seed:
// the planner's feedback calibration moves the selection pick between
// plans, and seeded literals would send each seed down its own sequence
// of picks. The list leaves out fixedMinFrames, so no timed selection text
// is one warm-up ran, and its odd length against the two alternating
// predicates makes texts repeat only after 30 rounds.
var roundMinFrames = []int{12, 18, 10, 20, 14, 16, 8, 22, 11, 19, 13, 17, 9, 21, 7}

func selectionQuery(pred string, minFrames int) string {
	return fmt.Sprintf("SELECT * FROM taipei WHERE class = 'bus' AND %s GROUP BY trackid HAVING COUNT(*) > %d", pred, minFrames)
}

// template draws one request of a family. The variant picks the class and
// content predicate from small fixed sets; rng draws the numeric literals,
// so query texts rarely repeat while (class set, predicate) pairs do.
func template(rng *rand.Rand, family string, variant int) request {
	class := classes[variant%len(classes)]
	var q, key string
	switch family {
	case "aggregate":
		errw := []float64{0.05, 0.1, 0.15, 0.2}[rng.Intn(4)]
		conf := 80 + rng.Intn(20)
		q = fmt.Sprintf("SELECT FCOUNT(*) FROM taipei WHERE class = '%s' ERROR WITHIN %g AT CONFIDENCE %d%%", class, errw, conf)
		key = family + "|" + class
	case "scrubbing":
		n := map[string]int{"car": 3, "bus": 1}[class]
		q = fmt.Sprintf("SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class = '%s') >= %d LIMIT %d GAP %d",
			class, n, 8+rng.Intn(5), 50+10*rng.Intn(26))
		key = family + "|" + class
	case "selection":
		class = "bus"
		pred := contentPreds[variant%len(contentPreds)]
		q = selectionQuery(pred, fixedMinFrames)
		key = family + "|" + class + "|" + pred
	case "binary-detection":
		q = fmt.Sprintf("SELECT timestamp FROM taipei WHERE class = '%s' AND timestamp < %d FNR WITHIN 0.02 FPR WITHIN 0.02",
			class, 58000+10*rng.Intn(141))
		key = family + "|" + class
	case "distinct-count":
		q = fmt.Sprintf("SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = '%s' AND timestamp < %d",
			class, 2000+10*rng.Intn(101))
		key = family + "|" + class
	case "exhaustive":
		// Windows this long hold more than the server's 1000-row cap
		// anywhere in the day (the sparsest holds about 1100 rows), so
		// every reply is truncated to the same size.
		lo := 100 * rng.Intn(565)
		q = fmt.Sprintf("SELECT * FROM taipei WHERE (class = 'car' OR class = 'bus') AND timestamp >= %d AND timestamp < %d",
			lo, lo+2400+10*rng.Intn(31))
		key = family + "|car,bus"
	default:
		panic("unknown family " + family)
	}
	return request{Family: family, Key: key, Query: q}
}

// adhocSequence is the adhoc workload's request sequence: adhocRound
// repeated, with seeded literals. Distinct count alternates its class and
// selection its predicate from round to round, and selection takes its
// threshold from roundMinFrames.
func adhocSequence(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, 0, n)
	for round := 0; len(out) < n; round++ {
		for i, f := range adhocRound {
			if len(out) == n {
				break
			}
			variant := i
			if alternating[f] {
				variant = round
			}
			r := template(rng, f, variant)
			if f == "selection" {
				r.Query = selectionQuery(contentPreds[variant%len(contentPreds)], roundMinFrames[round%len(roundMinFrames)])
			}
			r.Seq = len(out)
			out = append(out, r)
		}
	}
	return out
}

// warmupQueries returns one representative per adhoc template key, drawn
// from a stream independent of the timed sequence's, so most timed texts
// are variants warm-up never executed.
func warmupQueries(seed int64) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := map[string]bool{}
	var out []request
	for variant := 0; variant < len(classes)*len(contentPreds); variant++ {
		for _, f := range families {
			r := template(rng, f, variant)
			if !seen[r.Key] {
				seen[r.Key] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// dashboardPanel is the dashboard workload's fixed panel: two seeded
// queries per family, all of which fit in the result cache together.
func dashboardPanel(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	var out []request
	for _, f := range families {
		for variant := 0; variant < 2; variant++ {
			r := template(rng, f, variant)
			r.Seq = len(out)
			out = append(out, r)
		}
	}
	return out
}

// dashboardWeights is how often a dashboard shows each family's panel
// entries: headline counts most, heavy listings least. The cheap families
// take two thirds of the requests, so the median falls among them rather
// than in the gap between two kinds of panel entry.
var dashboardWeights = map[string]int{
	"aggregate": 6, "distinct-count": 4, "scrubbing": 4,
	"selection": 2, "exhaustive": 2, "binary-detection": 3,
}

// dashboardSequence draws n panel requests by dashboardWeights in a seeded
// order. Each text is reformatted (keyword case, spacing) so the server
// must canonicalize it before the cache lookup, as it would for
// independently written clients.
func dashboardSequence(seed int64, panel []request, n int) []request {
	rng := rand.New(rand.NewSource(seed + 1))
	var deck []request
	for _, r := range panel {
		for i := 0; i < dashboardWeights[r.Family]; i++ {
			deck = append(deck, r)
		}
	}
	out := make([]request, n)
	for i := range out {
		r := deck[rng.Intn(len(deck))]
		r.Seq = i
		r.Query = restyle(rng, r.Query)
		out[i] = r
	}
	return out
}

// restyle rewrites a query's keywords in upper or lower case and its
// separators with one or two spaces; the canonical form is unchanged.
func restyle(rng *rand.Rand, q string) string {
	words := strings.Fields(q)
	var b strings.Builder
	for i, w := range words {
		if i > 0 {
			b.WriteString(" ")
			if rng.Intn(4) == 0 {
				b.WriteString(" ")
			}
		}
		if isKeyword(w) && rng.Intn(2) == 0 {
			w = strings.ToLower(w)
		}
		b.WriteString(w)
	}
	return b.String()
}

func isKeyword(w string) bool {
	switch w {
	case "SELECT", "FROM", "WHERE", "AND", "OR", "GROUP", "BY", "HAVING", "LIMIT", "GAP", "ERROR", "WITHIN", "AT", "CONFIDENCE", "FNR", "FPR":
		return true
	}
	return false
}

// liveSubscriptions are the live workload's four standing queries:
// aggregate, LIMIT scrub, binary detection and selection. The seed varies
// only the aggregate's confidence, which moves its sampled cost a little,
// so runs with different seeds do nearly equal work. The scrub and binary
// detection run over buses, where their advances cost about the same; a
// median over four equally polled queries then falls between two similar
// latencies rather than across a wide gap.
func liveSubscriptions(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	subs := []request{
		{Family: "aggregate", Key: "aggregate|car",
			Query: fmt.Sprintf("SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.05 AT CONFIDENCE %d%%", 90+rng.Intn(10))},
		{Family: "scrubbing", Key: "scrubbing|bus",
			Query: "SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class = 'bus') >= 2 LIMIT 12 GAP 150"},
		{Family: "binary-detection", Key: "binary-detection|bus",
			Query: "SELECT timestamp FROM taipei WHERE class = 'bus' FNR WITHIN 0.02 FPR WITHIN 0.02"},
		{Family: "selection", Key: "selection|bus|" + contentPreds[0],
			Query: selectionQuery(contentPreds[0], fixedMinFrames)},
	}
	for i := range subs {
		subs[i].Seq = i
	}
	return subs
}
