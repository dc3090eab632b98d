package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"sublineardp"
	"sublineardp/internal/problems"
	"sublineardp/internal/wire"
	"sublineardp/internal/workload"
)

// scale sizes the workloads. fullScale is the benchmark; the self-test
// runs tinyScale.
type scale struct {
	setupReps      int // set-ups per serving run (median reported)
	largeSetupReps int // set-ups per solve-large run

	mixPool          int // serve-mix distinct requests (cache holds 4096)
	mixMinN, mixMaxN int
	mixZipfS         float64

	midList          int // serve-midsize-miss requests available to one run
	midMinN, midMaxN int

	largeN int
}

var fullScale = scale{
	setupReps: 25, largeSetupReps: 5,
	mixPool: 576, mixMinN: 16, mixMaxN: 64, mixZipfS: 1.05,
	midList: 1024, midMinN: 65, midMaxN: 128,
	largeN: 1024,
}

var tinyScale = scale{
	setupReps: 2, largeSetupReps: 2,
	mixPool: 27, mixMinN: 8, mixMaxN: 16, mixZipfS: 1.05,
	midList: 6, midMinN: 65, midMaxN: 68,
	largeN: 300,
}

// loadRun is the measured load phase of one workload.
type loadRun struct {
	attempted, failed, wrong int
	lat                      []float64 // ms per attempted op; +Inf for failed ones
	gaps                     []float64 // ms a client spent between an answer and its next send
	setup                    []float64 // s per set-up rep
	elapsed                  time.Duration
	cpu                      time.Duration
	mem                      memDelta
	rss                      float64
	routes                   map[string]int // resolved engine -> ops
}

func (l *loadRun) base() *loadRun { return l }

// endToEndMetrics derives the end-to-end metrics of a load phase.
func (l *loadRun) endToEndMetrics() map[string]float64 {
	ok := float64(l.attempted - l.failed)
	return map[string]float64{
		"setup_s":        median(l.setup),
		"throughput_rps": ratio(ok, l.elapsed.Seconds()),
		"latency_p50_ms": median(l.lat),
		"correct_share":  ratio(ok, float64(l.attempted)),
		"cpu_ms_per_op":  ratio(ms(l.cpu), float64(l.attempted)),
		"peak_rss_mb":    l.rss,
	}
}

// outcome packages a load phase's counts with the given metrics.
func (l *loadRun) outcome(metrics map[string]float64) *outcome {
	return &outcome{attempted: l.attempted, failed: l.failed, wrong: l.wrong, metrics: metrics}
}

// measured is what every workload's load phase returns.
type measured interface{ base() *loadRun }

// workloadDef is one named workload: its load phase and, for a traced
// run, the layer measurements taken after it.
type workloadDef struct {
	why    string
	run    func(context.Context, options, *tracer) (measured, error)
	layers func(context.Context, options, measured, *tracer, map[string]float64) (wrong int, err error)
}

var workloads = map[string]workloadDef{
	"serve-mix": {
		why: "closed loop, all nine kinds at n 16-64, Zipf repeats over 576 requests: wire, cache keying, admission and batcher dominate",
		run: func(ctx context.Context, opt options, tr *tracer) (measured, error) {
			return runMix(ctx, opt, tr)
		},
		layers: serveLayers,
	},
	"serve-midsize-miss": {
		why: "closed loop, distinct n 65-128 requests: routing and engines dominate, head-of-line batch coupling shows",
		run: func(ctx context.Context, opt options, tr *tracer) (measured, error) {
			return runMidsize(ctx, opt, tr)
		},
		layers: serveLayers,
	},
	"solve-large": {
		why: "repeated auto Solve of one n=1024 matrix chain: F generation, fold kernels and the task graph dominate",
		run: func(ctx context.Context, opt options, tr *tracer) (measured, error) {
			return runLarge(ctx, opt, tr)
		},
		layers: largeLayers,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// baseReport is the report line's common part.
func baseReport(opt options, l *loadRun) map[string]any {
	ok := l.attempted - l.failed
	tail, q := tailLatency(l.lat)
	return map[string]any{
		"workload":        opt.workload,
		"why":             workloads[opt.workload].why,
		"seed":            opt.seed,
		"seconds":         opt.duration.Seconds(),
		"traced":          opt.traced,
		"env":             environment(),
		"ops":             l.attempted,
		"ok":              ok,
		"failed":          l.failed,
		"wrong":           l.wrong,
		"elapsed_s":       l.elapsed.Seconds(),
		"latency_samples": len(l.lat),
		// The tail is reported here, not as a bounded metric: on a shared
		// host it moves with the host's scheduling from run to run.
		"latency_p99_ms":     finite(tail),
		"latency_p99_as_q":   q,
		"failed_share":       ratio(float64(l.failed), float64(l.attempted)),
		"setup_samples":      len(l.setup),
		"correct_share_of":   fmt.Sprintf("%d/%d", ok, l.attempted),
		"routes":             l.routes,
		"cpu_s":              l.cpu.Seconds(),
		"loadgen_gap_p99_ms": percentile(append([]float64(nil), l.gaps...), 0.99),
	}
}

// largeRun is solve-large's load phase.
type largeRun struct {
	loadRun
	in      *sublineardp.Instance
	solver  *sublineardp.Solver
	table   *sublineardp.Table // the reference table
	solveNs []float64          // per-op solve wall time
	stats   sublineardp.PoolStats
	engines map[string][]float64 // resolved engine -> solve ms
}

// largeInstance is solve-large's input: a min-plus matrix chain with
// jittered MLP-like widths.
func largeInstance(n int, seed int64) *sublineardp.Instance {
	return problems.MatrixChain(workload.WorstCaseChainDims(n, seed))
}

// runLarge is solve-large: set-up (NewSolver under auto plus a warm-up
// solve), then Solve on the same instance until the budget is spent.
// Only the solves are timed; each answer's digest is checked between
// solves, outside the timed phase.
func runLarge(ctx context.Context, opt options, tr *tracer) (*largeRun, error) {
	in := largeInstance(opt.scale.largeN, opt.seed)
	refSolver, err := sublineardp.NewSolver(sublineardp.EngineSequential)
	if err != nil {
		return nil, err
	}
	ref, err := refSolver.Solve(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refDigest, refCost := wire.TableDigest(ref.Table), ref.Cost()
	run := &largeRun{in: in, table: ref.Table, engines: map[string][]float64{}}
	run.routes = map[string]int{}
	check := func(op int, sol *sublineardp.Solution) error {
		digest := wire.TableDigest(sol.Table)
		if opt.corrupt != nil {
			digest = string(opt.corrupt(op, []byte(digest)))
		}
		if sol.Cost() != refCost || digest != refDigest {
			return fmt.Errorf("cost %d digest %.12s…, reference %d %.12s…", sol.Cost(), digest, refCost, refDigest)
		}
		return nil
	}

	for i := 0; i < opt.scale.largeSetupReps; i++ {
		start := time.Now()
		s, err := sublineardp.NewSolver(sublineardp.EngineAuto)
		if err != nil {
			return nil, err
		}
		sol, err := s.Solve(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		run.setup = append(run.setup, time.Since(start).Seconds())
		if err := check(-1, sol); err != nil {
			return nil, fmt.Errorf("warm-up answer: %w", err)
		}
		run.solver = s
	}

	m0 := readMem()
	for start := time.Now(); time.Since(start) < opt.duration && ctx.Err() == nil; {
		op := run.attempted
		run.attempted++
		c0, t0 := cpuTime(), time.Now()
		sol, err := run.solver.Solve(ctx, in)
		t1 := time.Now()
		run.cpu += cpuTime() - c0
		run.elapsed += t1.Sub(t0)
		if tr != nil {
			tr.add(span{Name: "request", ID: fmt.Sprintf("op-%d", op), Parent: -1}, t0, t1)
		}
		if err == nil {
			err = check(op, sol)
			if err != nil {
				run.wrong++
			}
		}
		if err != nil {
			run.failed++
			run.lat = append(run.lat, math.Inf(1))
			fmt.Fprintf(os.Stderr, "perfbench: solve %d: %v\n", op, err)
			continue
		}
		d := ms(t1.Sub(t0))
		run.lat = append(run.lat, d)
		run.solveNs = append(run.solveNs, float64(t1.Sub(t0)))
		run.routes[sol.Engine]++
		run.engines[sol.Engine] = append(run.engines[sol.Engine], d)
		run.stats.Tasks += sol.Stats.Tasks
		run.stats.Barriers += sol.Stats.Barriers
		run.stats.Steals += sol.Stats.Steals
		run.stats.IdleNs += sol.Stats.IdleNs
	}
	run.mem = diffMem(m0, readMem())
	run.rss = peakRSSMB()
	return run, nil
}

// procs is the parallelism p the efficiency ratios divide by.
func procs() int { return runtime.GOMAXPROCS(0) }
