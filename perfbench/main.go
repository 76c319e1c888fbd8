// Command perfbench is the repository's benchmark. It runs one named
// workload against the program for a fixed time, checks the program's
// outputs, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": V, "unit": "U"}, …}}
//
// A run repeats the workload's round — set-up, a timed phase, and a
// correctness oracle — until --seconds have passed, and reports medians
// over rounds. The inputs are generated from --seed alone.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload weak-trickle --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// roundResult is what one round of a workload reports besides the
// probe's timings.
type roundResult struct {
	Ops      int64 // user-visible operations in the timed phase
	Checks   int64 // oracle checks
	Aborts   int64 // set-up steps that failed, each counted as attempted
	Failures []string

	SimFG, SimDrain, SimElapsed time.Duration // simulated time (sim workloads)
	LinkBytes                   int64         // both directions of the client's links
	UserBytes                   int64         // file content the operations read or wrote
	StoredBytes                 int64         // file content the operations wrote

	Lats   map[string][]time.Duration // wall latency per operation kind
	Cycles []time.Duration            // laptop cycles (udp-connected)
}

// fail records the failure of an operation already counted as attempted.
func (r *roundResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// abort records a failed set-up step.
func (r *roundResult) abort(format string, args ...any) {
	r.Aborts++
	r.fail(format, args...)
}

// op counts one user-visible operation and its error.
func (r *roundResult) op(err error, format string, args ...any) {
	r.Ops++
	if err != nil {
		r.fail(format+": %v", append(args, err)...)
	}
}

// check counts one oracle check.
func (r *roundResult) check(ok bool, format string, args ...any) {
	r.Checks++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *roundResult) lat(kind string, d time.Duration) {
	if r.Lats == nil {
		r.Lats = map[string][]time.Duration{}
	}
	r.Lats[kind] = append(r.Lats[kind], d)
}

func (r *roundResult) merge(o *roundResult) {
	r.Ops += o.Ops
	r.Checks += o.Checks
	r.Aborts += o.Aborts
	r.Failures = append(r.Failures, o.Failures...)
	r.SimFG += o.SimFG
	r.SimDrain += o.SimDrain
	r.SimElapsed += o.SimElapsed
	r.LinkBytes += o.LinkBytes
	r.UserBytes += o.UserBytes
	r.StoredBytes += o.StoredBytes
	for k, ds := range o.Lats {
		for _, d := range ds {
			r.lat(k, d)
		}
	}
	r.Cycles = append(r.Cycles, o.Cycles...)
}

// workload is one named input set. Its round builds a fresh deployment
// from the seed, runs the timed phase between p.begin and p.end, and
// checks the outcome.
type workload struct {
	name string
	sim  bool // runs on simulated time
	run  func(seed int64, p *probe) roundResult
}

var workloads = []workload{
	{"udp-connected", false, runUDP},
	{"weak-trickle", true, runTrickle},
	{"bulk-hoard", true, runHoard},
}

const (
	// hangMargin is how long past its budget a run may take before it is
	// declared hung; the longest round takes a few seconds.
	hangMargin = 100 * time.Second
	// roundTimeout bounds one round process.
	roundTimeout = time.Minute
)

// round is one finished round, as its round process reports it.
type round struct {
	Setup, Wall time.Duration
	PeakHeap    uint64
	Res         roundResult
	Traced      bool
	Layers      layerAcc // traced rounds only
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: udp-connected, weak-trickle or bulk-hoard")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 35, "how long to measure")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	roundMode := flag.Bool("round", false, "run one round and print it as JSON (used by the benchmark itself)")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *roundMode {
		if err := json.NewEncoder(os.Stdout).Encode(runRound(w, *seed, *traced == 1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	budget := time.Duration(*seconds) * time.Second
	// A deployment that freezes never finishes its round; report that as
	// a failed run instead of hanging.
	wall.AfterFunc(budget+hangMargin, func() {
		fmt.Fprintf(os.Stderr, "perfbench: a %s round did not finish within %v of the budget; the program hung\n", w.name, hangMargin)
		os.Exit(1)
	})
	plain, tracedRounds := measure(w, *seed, budget, *traced == 1)
	out := output{Metrics: map[string]metric{}}
	var failures []string
	for _, rd := range append(append([]round(nil), plain...), tracedRounds...) {
		out.Attempted += rd.Res.Ops + rd.Res.Checks + rd.Res.Aborts
		out.Failed += int64(len(rd.Res.Failures))
		failures = append(failures, rd.Res.Failures...)
	}
	out.Correct = out.Failed == 0

	e2e := endToEnd(w, plain)
	if *traced == 1 {
		layers := perLayer(w, plain, tracedRounds)
		printLayers(w, layers)
		for _, m := range layerMetrics {
			out.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
	} else {
		for _, m := range e2e {
			if m.gated {
				out.Metrics[m.name] = metric{m.value, m.unit}
			}
		}
	}
	printEndToEnd(w, e2e, out)
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: … %d more failures\n", len(failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, "|")
}

// measure repeats rounds until budget has passed. A traced run spends the
// first half on untraced rounds (the baseline for the tracing overhead)
// and the second half on traced ones; each half gets at least one round.
//
// A simulated round ends by closing its deployment and advancing
// simulated time until every daemon has exited, so rounds can share this
// process. On the real clock, daemons keep a closed deployment reachable
// for minutes, and the heap would grow from round to round, changing GC
// pacing and the live-heap peak; each udp-connected round therefore runs
// in a fresh process.
func measure(w *workload, seed int64, budget time.Duration, traceMode bool) (plain, traced []round) {
	exe, err := os.Executable()
	if err != nil {
		var rd round
		rd.Res.abort("locate own executable: %v", err)
		return []round{rd}, nil
	}
	start := wall.Now()
	for {
		elapsed := since(start)
		if elapsed >= budget && len(plain) > 0 && (!traceMode || len(traced) > 0) {
			return plain, traced
		}
		tracing := traceMode && len(plain) > 0 && elapsed >= budget/2
		var rd round
		if w.sim {
			rd = runRound(w, seed, tracing)
		} else if rd, err = spawnRound(exe, w.name, seed, tracing); err != nil {
			rd = round{Traced: tracing}
			rd.Res.abort("round process: %v", err)
			return append(plain, rd), traced
		}
		if tracing {
			traced = append(traced, rd)
		} else {
			plain = append(plain, rd)
		}
	}
}

// spawnRound runs one round in a child process and waits for it to end.
func spawnRound(exe, name string, seed int64, traced bool) (round, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--round", "--workload", name, "--seed", fmt.Sprint(seed), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return round{}, err
	}
	var rd round
	if err := json.Unmarshal(out, &rd); err != nil {
		return round{}, fmt.Errorf("decode round: %w", err)
	}
	return rd, nil
}

// runRound runs one round in this process.
func runRound(w *workload, seed int64, traced bool) round {
	if traced {
		// Sample allocations finely enough to split a few MB per module.
		runtime.MemProfileRate = 16 << 10
	}
	p := newProbe(traced)
	res := w.run(seed, p)
	rd := round{Setup: p.setup, Wall: p.wall, PeakHeap: p.peakHeap, Res: res, Traced: traced}
	for _, err := range p.errs {
		rd.Res.abort("instrumentation: %v", err)
	}
	if traced {
		rd.Layers = p.acc
		rd.Layers.Rounds = 1
		rd.Layers.UserBytes = res.UserBytes
		rd.Layers.StoredBytes = res.StoredBytes
		rd.Layers.SimS = res.SimElapsed.Seconds()
		rd.Layers.WallS = p.wall.Seconds()
	}
	return rd
}

// e2eMetric is one end-to-end figure. The gated ones are the metrics in
// BENCHMARK.json, defined on every workload; the rest are reported for
// the workloads where they exist.
type e2eMetric struct {
	name, unit, better string
	value              float64
	samples            int
	gated              bool
}

// endToEnd computes the end-to-end metrics over untraced rounds.
func endToEnd(w *workload, rounds []round) []e2eMetric {
	var setup, wall, heap, fg, drain, link []float64
	var all roundResult
	var timed time.Duration
	for _, rd := range rounds {
		setup = append(setup, rd.Setup.Seconds())
		wall = append(wall, rd.Wall.Seconds())
		timed += rd.Wall
		heap = append(heap, float64(rd.PeakHeap)/(1<<20))
		fg = append(fg, rd.Res.SimFG.Seconds())
		drain = append(drain, rd.Res.SimDrain.Seconds())
		link = append(link, float64(rd.Res.LinkBytes)/1024)
		all.merge(&rd.Res)
	}
	n := len(rounds)
	if !w.sim {
		// The laptop's cycle is udp-connected's fixed unit of work.
		wall = nil
		for _, c := range all.Cycles {
			wall = append(wall, c.Seconds())
		}
	}
	ms := []e2eMetric{
		{"setup_s", "s", "lower", median(setup), n, true},
		{"wall_s", "s", "lower", median(wall), len(wall), true},
		{"ops_per_s", "ops/s", "higher", ratio(float64(all.Ops), timed.Seconds()), n, true},
		{"peak_heap_mb", "MB", "lower", median(heap), n, true},
	}
	if w.sim {
		ms = append(ms, e2eMetric{"sim_fg_s", "sim-s", "lower", median(fg), n, false})
		if w.name == "weak-trickle" {
			ms = append(ms, e2eMetric{"sim_drain_s", "sim-s", "lower", median(drain), n, false})
		}
		ms = append(ms, e2eMetric{"link_kb", "KB", "lower", median(link), n, false})
	} else {
		for _, k := range []string{"read", "write", "reint"} {
			ds := all.Lats[k]
			for _, q := range []struct {
				tag string
				q   float64
			}{{"p50", 0.5}, {"p99", 0.99}} {
				ms = append(ms, e2eMetric{k + "_" + q.tag + "_us", "us", "lower", float64(percentile(ds, q.q)) / 1e3, len(ds), false})
			}
		}
	}
	attempted := all.Ops + all.Checks + all.Aborts
	ms = append(ms, e2eMetric{"error_rate", "ratio", "lower", ratio(float64(len(all.Failures)), float64(attempted)), int(attempted), false})
	return ms
}

// perLayer computes the per-layer metrics over the traced rounds and the
// tracing overhead against the untraced ones.
func perLayer(w *workload, plain, traced []round) map[string]float64 {
	acc := newLayerAcc()
	for i := range traced {
		acc.merge(&traced[i].Layers)
	}
	v := acc.values()
	// The headline each workload is judged by: timed-phase wall time on
	// the simulated clock, wall time per operation (the inverse of
	// ops_per_s) on the real one.
	headline := func(rs []round) float64 {
		var xs []float64
		for _, rd := range rs {
			if w.sim {
				xs = append(xs, rd.Wall.Seconds())
			} else {
				xs = append(xs, ratio(rd.Wall.Seconds(), float64(rd.Res.Ops)))
			}
		}
		return median(xs)
	}
	v["obs.trace_overhead_pct"] = (ratio(headline(traced), headline(plain)) - 1) * 100
	return v
}

func printEndToEnd(w *workload, ms []e2eMetric, out output) {
	fmt.Printf("workload %s — end-to-end (untraced rounds)\n", w.name)
	for _, m := range ms {
		gate := ""
		if m.gated {
			gate = "  [gated]"
		}
		fmt.Printf("  %-16s %14.6g %-6s n=%d%s\n", m.name, m.value, m.unit, m.samples, gate)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", out.Correct, out.Attempted, out.Failed)
}

func printLayers(w *workload, v map[string]float64) {
	fmt.Printf("workload %s — per layer (traced rounds); obs.trace_overhead_pct = %.2f\n", w.name, v["obs.trace_overhead_pct"])
	names := make([]string, 0, len(layerMetrics))
	units := map[string]string{}
	for _, m := range layerMetrics {
		names = append(names, m.name)
		units[m.name] = m.unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, v[n], units[n])
	}
}
