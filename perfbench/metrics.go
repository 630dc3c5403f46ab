package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the server sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"freshness_p50_ms", "ms"},
	{"freshness_p95_ms", "ms"},
	{"sim_s", "s"},
	{"peak_rss_mb", "MB"},
}

// familyLayer are the per-family per-layer metrics; each is reported for
// every plan family, and reads 0 where the workload runs none.
var familyLayer = []metricDef{
	{"core.plan_ms", "ms"},
	{"core.plan_share", "ratio"},
	{"core.scan_ms", "ms"},
	{"core.finalize_ms", "ms"},
	{"core.detector_calls", "count"},
	{"core.advance_ms", "ms"},
}

// layerMetrics are the remaining per-layer metrics.
var layerMetrics = []metricDef{
	{"core.advance_frames", "count"},
	{"core.append_ms", "ms"},
	{"plan.candidates", "count"},
	{"plan.pick_changes", "count"},
	{"plan.estimate_error_heldout", "ratio"},
	{"index.frames_skipped_ratio", "ratio"},
	{"index.build_s", "s"},
	{"specnn.train_s", "s"},
	{"frameql.analyze_us", "us"},
	{"serve.cache_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.pool_wait_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.ingest_p50_ms", "ms"},
	{"go.alloc_mb_per_req", "MB"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// perLayer lists every per-layer metric in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range familyLayer {
		for _, f := range families {
			out = append(out, metricDef{m.name + "." + f, m.unit})
		}
	}
	return append(out, layerMetrics...)
}

// result collects one invocation's outcome.
type result struct {
	cfg       *config
	attempted int
	failed    int
	// e2e holds end-to-end values and samples their sample counts.
	e2e     map[string]float64
	samples map[string]int
	// layer holds per-layer values.
	layer map[string]float64
	// facts records host, input and workload-property facts.
	facts map[string]any
	notes []string
}

func newResult(c *config) *result {
	return &result{
		cfg:     c,
		e2e:     map[string]float64{},
		samples: map[string]int{},
		layer:   map[string]float64{},
		facts:   hostFacts(c),
	}
}

func (r *result) set(name string, v float64, n int) {
	r.e2e[name] = v
	r.samples[name] = n
}

func (r *result) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// finish records the end-of-run facts.
func (r *result) finish() {
	r.facts["attempted"] = r.attempted
	r.facts["failed"] = r.failed
	if r.attempted > 0 {
		r.facts["failed_ratio"] = float64(r.failed) / float64(r.attempted)
	}
}

// hostFacts records the host and the inputs of the run.
func hostFacts(c *config) map[string]any {
	return map[string]any{
		"workload":    c.workload,
		"seed":        c.seed,
		"seconds":     c.seconds,
		"trace":       c.trace,
		"stream":      stream,
		"scale":       c.scale,
		"workers":     workers,
		"parallelism": parallelism,
		"clients":     clients,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"commit":      commit(),
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// rssMB reads the process's resident set size; where the kernel does not
// report one it falls back to the memory the Go runtime holds.
func rssMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}

// rssSampler records the largest resident set size seen while it runs.
type rssSampler struct {
	stop, done chan struct{}
	peak       float64 // MB; the sampling goroutine owns it until done closes
	n          int
}

// rssInterval is how often the sampler reads the resident set size.
const rssInterval = 20 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			s.peak = max(s.peak, rssMB())
			s.n++
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MB and the sample count.
func (s *rssSampler) finish() (float64, int) {
	close(s.stop)
	<-s.done
	return s.peak, s.n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report, the facts line, and the result
// line last.
func (r *result) print(w io.Writer) error {
	defs := endToEnd
	values := r.e2e
	if r.cfg.trace {
		defs = perLayer()
		values = r.layer
	}
	metrics := make(map[string]metricValue, len(defs))
	fmt.Fprintf(w, "workload %s  seed %d  trace %v\n", r.cfg.workload, r.cfg.seed, r.cfg.trace)
	for _, d := range defs {
		v := values[d.name]
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if n, ok := r.samples[d.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", d.name, v, d.unit, n)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	if r.attempted > 0 {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", "failed_ratio", float64(r.failed)/float64(r.attempted), "ratio", r.attempted)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  failure: %s\n", n)
	}
	facts, err := json.Marshal(r.facts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "facts %s\n", facts)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile interpolates linearly between the closest ranks; it is 0 for
// no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
