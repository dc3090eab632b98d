package sublineardp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"sublineardp/internal/blocked"
	"sublineardp/internal/parutil"
)

// SolveBatch fans a slice of instances across a worker pool — the
// building block for serving many requests at once. Scheduling is by
// engine name (WithEngine; the default "auto" routes each instance by
// size: small ones to the cache-friendly sequential scan, larger ones to
// the pipelined blocked engine), and WithConcurrency bounds how many
// instances are in flight at once (default GOMAXPROCS).
//
// The whole batch runs on one persistent worker pool — WithPool's if
// given, else the process-wide shared pool: the batch fan-out claims
// instances from it and every solve dispatches its kernels onto it, so a
// batch spawns no per-instance goroutines and per-solve buffers recycle
// through the shared arena.
//
// The result slice is order-stable and complete: result[i] is the
// solution of instances[i] for every i, independent of scheduling order.
// Unless WithWorkers overrides it, each solve runs single-threaded so
// batch-level parallelism is not oversubscribed by intra-solve
// parallelism.
//
// Cancellation: when ctx is cancelled or its deadline passes, in-flight
// solves abort at their next cooperative check and unstarted instances
// are skipped. Failed or skipped slots are nil in the result slice and
// their errors (each wrapped with the instance index) are joined into
// the returned error; errors.Is(err, context.Canceled) reports a
// cancelled batch.
func SolveBatch(ctx context.Context, instances []*Instance, opts ...Option) ([]*Solution, error) {
	cfg, width, callerWorkers := batchConfig(opts, len(instances))
	// One shared Solver does each solve, so batch slots get exactly the
	// validation, timing and engine dispatch a direct Solve call gets.
	solver, err := NewSolver(cfg.Engine, func(c *Config) { *c = cfg })
	if err != nil {
		return nil, err
	}
	out := make([]*Solution, len(instances))
	errs := make([]error, len(instances))

	// Cross-solve overlap: two or more instances destined for the
	// pipelined blocked engine seed their tile graphs into one shared
	// scheduler (blocked.SolvePipeBatchCtx) instead of running as fenced
	// per-instance solves — one solve's tail tiles fill another's head.
	// Only the plain path overlaps: a cache, a convergence target, or a
	// convexity contract each need the per-instance Solve protocol.
	var pipeIdx []int
	inPipe := make([]bool, len(instances))
	if cfg.Cache == nil && cfg.Target == nil && !cfg.Convexity {
		for i, in := range instances {
			if in == nil || in.N < 1 {
				continue // the per-instance path reports the invalid instance
			}
			name := cfg.Engine
			if name == EngineAuto {
				name = pickAutoName(in, &cfg)
			}
			if name == EngineBlockedPipe {
				pipeIdx = append(pipeIdx, i)
			}
		}
		if len(pipeIdx) >= 2 {
			for _, i := range pipeIdx {
				inPipe[i] = true
			}
		} else {
			pipeIdx = nil
		}
	}

	var pipeDone chan struct{}
	if pipeIdx != nil {
		items := make([]blocked.BatchItem, len(pipeIdx))
		for k, i := range pipeIdx {
			items[k] = blocked.BatchItem{In: instances[i]}
		}
		pipeDone = make(chan struct{})
		go func() {
			defer close(pipeDone)
			start := time.Now()
			// An overlapped pipe group IS the batch's parallelism (one
			// shared scheduler), so it keeps the caller's intra-solve
			// width (0 = pool width), not the per-solve default of 1.
			results, perrs := blocked.SolvePipeBatchCtx(ctx, items, blocked.Options{
				Workers:      callerWorkers,
				Pool:         cfg.Pool,
				TileSize:     cfg.TileSize,
				Semiring:     cfg.Semiring,
				RecordSplits: cfg.RecordSplits,
			})
			elapsed := time.Since(start)
			for k, i := range pipeIdx {
				if perrs[k] != nil {
					errs[i] = fmt.Errorf("instance %d (%s): %w", i, instances[i].Name, perrs[k])
					continue
				}
				sol := blockedSolution(EngineBlockedPipe, instances[i], &cfg, results[k])
				// The group ran as one graph; each solution reports the
				// group's wall clock (and its joint Stats view).
				sol.Elapsed = elapsed
				out[i] = sol
			}
		}()
	}

	fanOut(ctx, cfg.Pool, width, instances, inPipe, out, errs, "instance",
		func(in *Instance) string { return in.Name }, solver.Solve)
	if pipeDone != nil {
		<-pipeDone
	}
	return out, errors.Join(errs...)
}

// batchConfig is the prologue SolveBatch and SolveChainBatch share: the
// "auto" engine default, the fan-out width (WithConcurrency, default
// GOMAXPROCS, at most one per item), per-solve Workers defaulted to 1
// under batch-level parallelism, and one pool — WithPool's, else the
// process-wide shared one — that the fan-out and every solve of the
// batch dispatch onto. callerWorkers is WithWorkers as the caller set
// it, before that default.
func batchConfig(opts []Option, items int) (cfg Config, width, callerWorkers int) {
	cfg = buildConfig(opts)
	if cfg.Engine == "" {
		cfg.Engine = EngineAuto // == ChainEngineAuto
	}
	width = cfg.Concurrency
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	width = min(width, items)
	callerWorkers = cfg.Workers
	if cfg.Workers == 0 && width > 1 {
		cfg.Workers = 1
	}
	if cfg.Pool == nil {
		cfg.Pool = parutil.Default()
	}
	return cfg, width, callerWorkers
}

// fanOut is the fan-out SolveBatch and SolveChainBatch share: it solves
// every items[i] not marked in skip on pool, width at a time, and
// writes out[i] or errs[i] — the error wrapped with the item's noun,
// index and name. Grain 1 claims one item at a time so slow solves
// balance.
func fanOut[T, S any](ctx context.Context, pool *Pool, width int, items []*T, skip []bool, out []*S, errs []error,
	noun string, name func(*T) string, solve func(context.Context, *T) (*S, error)) {
	pool.ForChunked(width, len(items), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if skip != nil && skip[i] {
				continue
			}
			sol, err := solve(ctx, items[i])
			if err != nil {
				label := "<nil>"
				if items[i] != nil {
					label = name(items[i])
				}
				errs[i] = fmt.Errorf("%s %d (%s): %w", noun, i, label, err)
				continue
			}
			out[i] = sol
		}
	})
}
