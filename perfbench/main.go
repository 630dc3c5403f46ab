// Command perfbench is the repository's serve-level benchmark. It starts
// the public blazeit server inside its own process, drives it over
// loopback HTTP with one of three seeded workloads on the taipei stream,
// checks every answer against an independent execution, and prints each
// end-to-end metric by name with its unit. With -trace 1 it also replays
// the same requests by calling each layer's entry points directly, once
// plainly and once wrapped in spans, and prints the per-layer metrics.
//
//	go run . -workload adhoc -seed 1 -seconds 8 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	blazeit "repro"
)

const (
	// stream is the benchmarked stream.
	stream = "taipei"
	// engineSeed fixes the server's own sampling decisions; the workload
	// seed only shapes the requests.
	engineSeed = 1
	// workers and parallelism keep concurrent scan workers at two, the
	// core count the benchmark is sized for: the pool runs at most two
	// tasks, each scanning on one worker.
	workers     = 2
	parallelism = 1
	// clients is the closed-loop client count of adhoc and dashboard.
	clients = 2
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale, setups and workdir are fixed for the command line (0.05, 3
	// and .bench_build/perfbench); the smoke test overrides them.
	scale float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// workdir holds index directories and the span file.
	workdir string
}

func (c *config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c *config) tmpDir() string { return filepath.Join(c.workdir, "tmp") }

// engineOptions are the engine options of every server and engine the
// benchmark builds; dir is a fresh index directory.
func (c *config) engineOptions(dir string) blazeit.Options {
	o := blazeit.Options{Scale: c.scale, Seed: engineSeed, Parallelism: parallelism, IndexDir: dir}
	if c.workload == "live" {
		o.LiveStart = liveStart
	}
	return o
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{scale: 0.05, setups: 3, workdir: filepath.Join(".bench_build", "perfbench")}
	fs.StringVar(&c.workload, "workload", "", "workload: adhoc, dashboard or live")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; the same seed generates the same requests")
	fs.Float64Var(&c.seconds, "seconds", 8, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 prints per-layer metrics from a traced replay instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch c.workload {
	case "adhoc", "dashboard", "live":
	default:
		return nil, fmt.Errorf("unknown -workload %q (want adhoc, dashboard or live)", c.workload)
	}
	if c.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	c.trace = *traceFlag == 1
	return c, nil
}

func main() {
	c, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark invocation.
func run(c *config) (*result, error) {
	if err := os.MkdirAll(c.tmpDir(), 0o755); err != nil {
		return nil, err
	}
	res := newResult(c)
	var err error
	if c.trace {
		err = runTraced(c, res)
	} else {
		err = runTimed(c, res)
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// progress logs a phase to standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// writeJSONFile writes v as indented JSON.
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
