package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload for one second at the smallest scale,
// untraced and traced, and checks that each metric BENCHMARK.json names
// is emitted with its unit and that every answer passed the check.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, workload := range []string{"adhoc", "dashboard", "live"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", workload, trace), func(t *testing.T) {
				c := &config{workload: workload, seed: 7, seconds: 1, trace: trace, scale: 0.01, setups: 1, workdir: t.TempDir()}
				res, err := run(c)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := res.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]metricValue
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", last.Correct, last.Attempted, last.Failed, out.String())
				}
				if len(last.Metrics) != len(want[trace]) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(last.Metrics), len(want[trace]))
				}
				for name, unit := range want[trace] {
					m, ok := last.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				if !trace {
					// Latency and throughput may read 0 in a one-second
					// window that no reply finishes in (as under -race).
					for _, name := range []string{"setup_s", "sim_s", "peak_rss_mb"} {
						if last.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, last.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}

// TestCovered checks self time: a span minus the union of its children.
func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %v, want 40", got)
	}
}
