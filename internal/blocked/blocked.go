// Package blocked implements the work-efficient blocked parallel engine
// for recurrence (*): the c(i,j) triangle is partitioned into B×B tiles
// processed in anti-diagonal block-wavefront order, so the whole solve
// costs the sequential O(n^3) work and O(n^2) memory — one flat cost
// table, no partial-weight arrays — while exposing (n/B)^2-way
// parallelism per wavefront.
//
// This is the engine the paper's HLV scheme is missing at scale: HLV
// buys O(sqrt n · log n) parallel *time* by paying O(n^4) work and
// memory (the dense partial-weight array caps it at n=64 on commodity
// memory), whereas the blocked schedule follows the work-efficient
// divide-and-conquer line (Galil–Park blocking; arXiv:2404.16314's
// near-work-optimal parallel DP; arXiv:2008.01938's block-wavefront
// pipeline): depth O((n/B)·(B + log n)) with work exactly O(n^3).
// n = 1024–4096 solves comfortably where hlv-dense cannot even allocate
// n = 256.
//
// # Schedule
//
// Indices 0..n are split into nb = ceil((n+1)/B) blocks. Tile (I,J)
// holds the cells (i,j) with i in block I, j in block J. A cell's
// candidates k lie in blocks I..J, so tile (I,J) depends only on tiles
// (I,K) and (K,J) with strictly smaller block distance — every tile of
// block-diagonal d = J-I is independent once diagonals < d are final.
// Per diagonal the engine runs two pooled phases:
//
//   - phase A (d >= 2): off-tile accumulation. For every tile row i and
//     every strictly interior block K, one RelaxSplitPanel call folds the
//     whole k-run of block K into the row — a GEMM-shaped sweep whose
//     three streams (destination row, left factors, right row) are
//     contiguous or scalar, which is what makes the engine faster per
//     candidate than the column-striding sequential scan.
//   - phase B: in-tile closure. Each tile serialises its own cells in
//     dependency order (rows bottom-up, splits left to right) and applies
//     every in-tile split as a forward j-run relaxation, so even the
//     closure sweeps contiguous panels; all tiles of the diagonal close
//     in parallel.
//
// F reaches the bulk primitives in one of three tiers, the cheapest the
// instance declares: a product form (Instance.FProduct →
// RelaxSplitRowProduct) computes f = w_i·w_k·w_j inside the fold with no
// f buffer; a row form (Instance.FPanel → RelaxSplitRow) fills one f run
// per split into a worker buffer and folds it as a third stream; with
// neither, RelaxSplitPanel evaluates F per candidate inside the kernel
// body. Every registered algebra runs at one indirect call per panel
// and the min-plus loops stay scalar-fast. Results are bitwise
// identical to the sequential DP under every lawful algebra: candidates
// form the same multiset and Combine is associative, commutative and
// idempotent.
//
// TileSize is the engine's processor knob: B ~ n/(4p) (the auto
// default) spreads p workers across a wavefront, larger B trades
// parallelism for lower barrier count (2(nb-1) barriers total) and
// better in-tile and f-run locality.
package blocked

import (
	"context"
	"fmt"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/parutil"
	"sublineardp/internal/pram"
	"sublineardp/internal/recurrence"
)

// DefaultTileSize is the floor of the auto-sized block edge: large
// enough that panel dispatch overhead vanishes and a tile pair (two
// ~32 KB squares) stays cache-resident.
const DefaultTileSize = 64

// maxAutoTileSize caps the auto-sized block edge: past ~512 the f-run
// locality gains flatten while the barrier count is already tiny.
const maxAutoTileSize = 512

// fbufArena recycles the per-worker f-run scratch (length B) across
// work units and solves: phase dispatch claims single-unit chunks for
// cancellation latency, so without recycling each claimed tile row
// would allocate a fresh buffer.
var fbufArena parutil.Arena[cost.Cost]

// Options configures a blocked solve. The zero value is a valid default
// configuration.
type Options struct {
	// Workers is the goroutine count per pooled phase (0 = pool width).
	Workers int
	// Pool is the persistent worker pool the wavefront phases dispatch
	// onto (nil = the process-wide shared pool).
	Pool *parutil.Pool
	// TileSize is the block edge B. Non-positive values select the auto
	// size (~(n+1)/(4·procs) clamped to [DefaultTileSize,
	// maxAutoTileSize] — see EffectiveTileSize); explicit values are
	// capped at n+1 (one tile).
	TileSize int
	// Semiring overrides the algebra the recurrence is evaluated over
	// (nil = the instance's declared algebra, min-plus by default).
	Semiring algebra.Semiring
	// RecordSplits also fills Result.Splits with the optimal split point
	// of every computed span — the O(n) root-to-leaf reconstruction
	// input, and the prerequisite for Knuth–Yao candidate pruning. Costs
	// one int32 matrix (4·(n+1)^2 bytes, half the cost table) and one
	// compare+store per candidate; the value table stays bitwise
	// identical to a non-recording run.
	RecordSplits bool
}

// Result is a blocked solve: the converged cost table, PRAM accounting,
// and the effective block edge.
type Result struct {
	Table *recurrence.Table
	Acct  pram.Accounting
	// TileSize echoes the effective block edge B of the run.
	TileSize int
	// Splits, filled when Options.RecordSplits is set, is the int32 split
	// matrix parallel to the table (same flat layout and stride):
	// Splits[i*stride+j] is the smallest k whose candidate achieves
	// c(i,j), or -1 for leaves and spans no candidate reaches — exactly
	// the sequential reference's smallest-k choice, under every algebra.
	Splits []int32
	// Stats is the solve's scheduler observability snapshot: barrier
	// count (2(nb−1) for the wavefront driver, 0 for the pipelined one),
	// barrier-tail idle nanoseconds, and executed work units. For an
	// overlapped batch every Result carries the shared scheduler's view.
	Stats parutil.StatsView
}

// Cost returns c(0,n).
func (r *Result) Cost() cost.Cost { return r.Table.Root() }

// Split returns the recorded optimal split of span (i,j), or -1 when the
// span is a leaf, unreachable, or splits were not recorded.
func (r *Result) Split(i, j int) int {
	if r.Splits == nil {
		return -1
	}
	return int(r.Splits[i*r.Table.Stride()+j])
}

// EffectiveTileSize resolves the block edge a solve of size n runs
// with on a machine with procs usable processors. An explicit tile
// wins; otherwise B targets about four wavefront tiles per processor
// ((n+1)/(4·procs) — enough tiles to balance, few enough barriers and
// long enough contiguous f runs), clamped to
// [DefaultTileSize, maxAutoTileSize]. On few cores this grows B with n
// (locality is all that matters); on wide machines it shrinks toward
// the floor to keep every worker fed.
func EffectiveTileSize(n, tile, procs int) int {
	b := tile
	if b <= 0 {
		if procs < 1 {
			procs = 1
		}
		b = (n + 1) / (4 * procs)
		if b < DefaultTileSize {
			b = DefaultTileSize
		}
		if b > maxAutoTileSize {
			b = maxAutoTileSize
		}
	}
	if b > n+1 {
		b = n + 1
	}
	return b
}

// Solve runs the blocked engine; the result table equals the sequential
// DP table bitwise (the conformance matrix and fuzz rails pin this).
func Solve(in *recurrence.Instance, opt Options) *Result {
	res, err := SolveCtx(context.Background(), in, opt)
	if err != nil {
		// Only reachable for an unregistered instance algebra; the
		// background context never cancels.
		panic(err)
	}
	return res
}

// SolveCtx is Solve with cooperative cancellation: the worker pool
// re-checks the context before each claimed work unit (one tile row in
// phase A, one tile in phase B), so cancellation latency is bounded by
// one in-flight tile row rather than one wavefront. That per-unit poll
// is the only one — the driver does not double-poll per diagonal or per
// cell.
func SolveCtx(ctx context.Context, in *recurrence.Instance, opt Options) (*Result, error) {
	if in == nil || in.N < 1 {
		panic(fmt.Sprintf("blocked: invalid instance %+v", in))
	}
	k, err := algebra.Resolve(opt.Semiring, in.Algebra)
	if err != nil {
		return nil, err
	}
	// Instantiate the generic driver at the concrete type of each shipped
	// semiring so the bulk primitives dispatch to their specialised
	// bodies; promoted third-party algebras run through the interface.
	switch sr := k.(type) {
	case algebra.MinPlus:
		return run(ctx, sr, in, opt)
	case algebra.MaxPlus:
		return run(ctx, sr, in, opt)
	case algebra.BoolPlan:
		return run(ctx, sr, in, opt)
	default:
		return run[algebra.Kernel](ctx, k, in, opt)
	}
}

// run is the block-wavefront driver at one concrete algebra type. The
// tile machinery (seeding, panel folds, in-tile closure) lives in
// tileSolver and is shared verbatim with the pipelined driver; this
// function owns only the barrier-stepped schedule — per diagonal, one
// fenced phase-A dispatch then one fenced phase-B dispatch, 2(nb−1)
// barriers total, each recorded on the solve's Stats.
func run[S algebra.Kernel](ctx context.Context, sr S, in *recurrence.Instance, opt Options) (*Result, error) {
	n := in.N
	pool, workers, procs := poolAndProcs(opt)
	b := EffectiveTileSize(n, opt.TileSize, procs)

	ts := newTileSolver(sr, in, b, opt.RecordSplits)
	nb, size := ts.nb, ts.size
	res := ts.res
	st := &parutil.Stats{}
	defer func() { res.Stats = st.View() }()

	for d := 0; d < nb; d++ {
		tiles := nb - d

		// Phase A: fold the strictly interior split blocks into every
		// tile row of the diagonal, all rows in parallel. Row blocks of
		// d >= 1 tiles are always full (only block nb-1 can be short),
		// so unit u maps to tile u/b, row u%b. The pool polls ctx before
		// each claimed row; no extra per-diagonal poll is needed.
		if d >= 2 {
			units := tiles * b
			aWork, err := pool.SumInt64StatsCtx(ctx, st, workers, units, 1, func(ulo, uhi int) int64 {
				fbuf := fbufArena.Get(b)
				defer fbufArena.Put(fbuf)
				var cnt int64
				for u := ulo; u < uhi; u++ {
					I := u / b
					cnt += ts.foldRowInterior(fbuf, ts.lo(I)+u%b, I, I+d)
				}
				return cnt
			})
			if err != nil {
				return nil, err
			}
			aCells := int64(b) * (int64(tiles-1)*int64(b) + int64(ts.hi(nb-1)-ts.lo(nb-1)))
			res.Acct.ChargeReduce(aCells, int64(d-1)*int64(b), aWork)
		}

		// Phase B: close every tile of the diagonal in parallel.
		bWork, err := pool.SumInt64StatsCtx(ctx, st, workers, tiles, 1, func(tlo, thi int) int64 {
			fbuf := fbufArena.Get(b)
			defer fbufArena.Put(fbuf)
			var cnt int64
			for t := tlo; t < thi; t++ {
				cnt += ts.closeTile(fbuf, t, t+d)
			}
			return cnt
		})
		if err != nil {
			return nil, err
		}
		if bWork > 0 {
			// Charged as one synchronous fold per diagonal; the true
			// in-tile closure depth is the O(B) dependency chain the
			// package comment (and DESIGN.md's knob map) documents.
			res.Acct.ChargeReduce(closedCells(d, b, nb, size), 2*int64(b), bWork)
		}
	}
	return res, nil
}

// closedCells counts the cells phase B relaxes on block-diagonal d —
// tile areas minus the leaf and empty spans the closure skips.
func closedCells(d, b, nb, size int) int64 {
	lastLen := int64(size - (nb-1)*b)
	var cells int64
	switch {
	case d == 0:
		full := int64(b)*(int64(b)-1)/2 - (int64(b) - 1)
		cells = int64(nb-1)*full + lastLen*(lastLen-1)/2 - (lastLen - 1)
	case d == 1:
		// One corner cell per tile is the leaf (i1-1, i1).
		cells = int64(nb-d-1)*(int64(b)*int64(b)-1) + int64(b)*lastLen - 1
	default:
		cells = int64(nb-d-1)*int64(b)*int64(b) + int64(b)*lastLen
	}
	return cells
}
