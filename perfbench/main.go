// Command perfbench is the sublineardp repository benchmark. One
// invocation runs one named workload for a fixed wall-clock budget,
// checks every answer against an independent reference solve, and
// prints one JSON result line:
//
//	python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0
//
// Workloads (see workloads.go for the shapes and why each exists):
//
//   - serve-mix: closed loop, two keep-alive clients, against an
//     in-process dpserved (serve.New with default Config), all nine wire
//     kinds at n in [16, 64], Zipf-repeated over a pool smaller than the
//     cache.
//   - serve-midsize-miss: closed loop, two clients, every request a
//     distinct cache miss at n in [65, 128].
//   - solve-large: repeated Solver.Solve under auto on one n=1024
//     min-plus matrix chain, no HTTP.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is repeated untraced and traced (half the budget
// each, fresh server each), the distinct requests are replayed through
// the public layer functions, the kernels are probed, and the result
// carries the per-layer metrics. Spans are kept in memory and written
// to --trace-out when the run ends.
//
// The line before the result is a report object with the environment
// (nproc, GOMAXPROCS, Go version, CPU model, cache sizes), the seed, op
// and sample counts, and every ratio's numerator and denominator.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	traceOut string
	scale    scale

	// corrupt, when non-nil, rewrites the response body of op i before
	// it is checked. Only the self-test sets it, to prove a wrong answer
	// is counted as a failure.
	corrupt func(op int, body []byte) []byte
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured wall-clock seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceOut := fs.String("trace-out", "", "span dump path of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	opt := options{
		workload: *name,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		traceOut: *traceOut,
		scale:    fullScale,
	}
	if opt.traced && opt.traceOut == "" {
		opt.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
	}
	res, err := execute(ctx, opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	if err := emit(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.wrong > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong answers\n", opt.workload, res.wrong)
		return 1
	}
	return 0
}

// outcome is one invocation's result: the counts of the final line, the
// metrics it prints, and the report line before it.
type outcome struct {
	attempted, failed, wrong int
	metrics                  map[string]float64
	report                   map[string]any
}

// execute runs the chosen workload in the chosen mode.
func execute(ctx context.Context, opt options) (*outcome, error) {
	w := workloads[opt.workload]
	if !opt.traced {
		m, err := w.run(ctx, opt, nil)
		if err != nil {
			return nil, err
		}
		l := m.base()
		out := l.outcome(l.endToEndMetrics())
		out.report = baseReport(opt, l)
		return out, nil
	}
	return executeTraced(ctx, opt, w)
}

// emit prints the report line and the result line.
func emit(w io.Writer, res *outcome) error {
	report, err := json.Marshal(res.report)
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(res.metrics))
	for name, v := range res.metrics {
		unit, ok := unitOf(name)
		if !ok {
			return fmt.Errorf("metric %q is not in the catalog", name)
		}
		ms[name] = metric{Value: finite(v), Unit: unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.wrong == 0, res.attempted, res.failed, ms})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", report, line)
	return err
}
