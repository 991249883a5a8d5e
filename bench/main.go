// Command bench is STMaker's benchmark. It generates one workload's
// trips from a seed, boots the service the way stmakerd does, drives the
// real HTTP handler over loopback connections, checks every response,
// and prints one JSON line of results as the last line of its output.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload commute --seed 51 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of the traced run instead. --trace-out
// writes the traced run's spans as JSON lines. --smoke shrinks the
// workload to a few seconds, for testing the benchmark itself. Scratch
// files, such as write-ahead logs, go under .bench_build/work and are
// removed at exit. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// setupBoots is how many cold boots set-up makes; setup_s is their
// median.
const setupBoots = 3

// warmUpFor is the least time the untimed warm-up keeps the server busy,
// so caches, the heap and the host's CPUs reach their loaded state
// before timing starts. Runs shorter than four times this warm up for a
// quarter of their length.
const warmUpFor = 2 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	smoke    bool
	workDir  string
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "commute", "workload to run: commute, metro-hmm, dense-batch or ingest-mix")
	flag.Int64Var(&o.seed, "seed", 51, "seed for the trips the workload sends")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds of measurement")
	flag.IntVar(&trace, "trace", 0, "1 reports the traced run's per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file as JSON lines")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink the workload to a quick check of the benchmark itself")
	flag.Parse()
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.workDir = ".bench_build/work"

	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and reports progress to log.
func run(o options, log io.Writer) (result, error) {
	res := result{Metrics: make(map[string]metric)}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	w, err := findWorkload(o.workload)
	if err != nil {
		return res, err
	}
	if o.smoke {
		w = w.smoke()
	}
	in, err := makeInputs(w, o.seed)
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return res, err
	}
	work, err := os.MkdirTemp(o.workDir, w.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(work)

	sys, st, err := setUp(w, in, work, setupBoots)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintf(log, "%s seed %d: %d training trips, %d request trips, set-up %.3fs (boots %.3v), heap %.1f MB\n",
		w.name, o.seed, len(in.corpus), len(in.pool), median(st.boots), st.boots, st.heapMB)
	l, err := listen(sys.srv)
	if err != nil {
		return res, err
	}
	defer l.stop()
	d := newDriver(l.base, in)
	defer d.close()

	total := time.Duration(o.seconds) * time.Second
	warm := d.warmUp(min(warmUpFor, total/4), o.seed)
	if w.ingestRate > 0 {
		s, err := d.prepareIngest(in.fleet, w.ingestRate, total)
		if err != nil {
			return res, err
		}
		warm = append(warm, s)
	}
	for _, s := range warm {
		res.Attempted++
		if s.failed() {
			res.Failed++
		}
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("%d of %d warm-up requests failed", res.Failed, res.Attempted)
	}

	// A traced run splits its time between the timed phases, which feed
	// the load generator's readings, and the traced rounds.
	timed := total
	if o.trace {
		timed = total / 2
	}
	e, err := endToEnd(w, in, sys, d, o.seed, timed)
	if err != nil {
		return res, err
	}
	res.Attempted += e.attempted
	res.Failed += e.failed
	report(log, "timed", e.attempted, e.failed, e.drifted)
	fmt.Fprintf(log, "  capacity %.1f items/s, %.3f cpu ms/item, %.0f allocs/item\n",
		e.itemsPerS, e.cpuMsPerItem, e.allocsPerItem)
	fmt.Fprintf(log, "  latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms (%d samples); generator late p99 %.2f ms\n",
		quantile(e.lat, 0.5), quantile(e.lat, 0.95), quantile(e.lat, 0.99), len(e.lat), quantile(e.late, 0.99))
	if len(e.ingestLat) > 0 {
		fmt.Fprintf(log, "  ingest ack p50 %.2f ms  p99 %.2f ms (%d trips); %d compactions %.3v s\n",
			quantile(e.ingestLat, 0.5), quantile(e.ingestLat, 0.99), len(e.ingestLat), len(e.compactS), e.compactS)
	}
	if !o.trace {
		put("setup_s", "s", median(st.boots))
		put("heap_mb", "MB", st.heapMB)
		put("items_per_s", "items/s", e.itemsPerS)
		put("cpu_ms_per_item", "ms", e.cpuMsPerItem)
		put("allocs_per_item", "count", e.allocsPerItem)
		put("p50_ms", "ms", quantile(e.lat, 0.50))
	} else {
		// The traced run follows the timed phases, so tracing never
		// slows what they measure.
		t, err := traceRun(w, in, sys, st, work, total-timed)
		if err != nil {
			return res, fmt.Errorf("traced run: %w", err)
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Metrics = t.metrics
		report(log, "traced", t.attempted, t.failed, t.drifted)
		// The tail of the timed phases' latency is too noisy to bound; it
		// is reported here, with its sample count, instead.
		put("loadgen.p95_ms", "ms", quantile(e.lat, 0.95))
		put("loadgen.p99_ms", "ms", quantile(e.lat, 0.99))
		put("loadgen.samples", "count", float64(len(e.lat)))
		put("loadgen.late_ms", "ms", quantile(e.late, 0.99))
		if o.traceOut != "" {
			if err := writeSpans(o.traceOut, t.spans); err != nil {
				return res, err
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func report(log io.Writer, what string, attempted, failed, drifted int) {
	fmt.Fprintf(log, "  %s: %d attempted, %d failed, %d equal only up to float summation order\n",
		what, attempted, failed, drifted)
}
