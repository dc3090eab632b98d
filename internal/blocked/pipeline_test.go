package blocked

import (
	"context"
	"sync/atomic"
	"testing"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/parutil"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
	"sublineardp/internal/verify"
)

// The pipelined driver must reproduce the barrier driver bitwise across
// every tile-boundary residue the wavefront sweep covers — same case
// table as TestBlockedMatchesSequentialAcrossTileBoundaries, compared
// against both the sequential DP and the barrier engine.
func TestPipelinedMatchesBlockedAcrossTileBoundaries(t *testing.T) {
	cases := []struct{ n, tile int }{
		{1, 0}, {2, 0}, {3, 2}, {7, 3},
		{16, 4}, {15, 4}, {14, 4}, {17, 4},
		{23, 5}, {31, 8}, {24, 1}, {24, 64},
		{40, 7}, {40, 0},
	}
	for _, tc := range cases {
		in := problems.RandomInstance(tc.n, 90, int64(tc.n*31+tc.tile))
		want := Solve(in, Options{TileSize: tc.tile})
		got := SolvePipe(in, Options{TileSize: tc.tile})
		if !bitwiseEqual(got.Table, want.Table) {
			t.Errorf("n=%d tile=%d: table differs from blocked: %v",
				tc.n, tc.tile, got.Table.Diff(want.Table, 3))
		}
		if rep := verify.Table(in, got.Table); !rep.OK() {
			t.Errorf("n=%d tile=%d: not a fixed point: %v", tc.n, tc.tile, rep.Err())
		}
		if got.TileSize != want.TileSize {
			t.Errorf("n=%d tile=%d: effective tile %d, blocked used %d",
				tc.n, tc.tile, got.TileSize, want.TileSize)
		}
	}
}

// Every registered algebra × tile edge, values AND recorded splits,
// bitwise against the barrier engine.
func TestPipelinedMatchesBlockedAcrossSemirings(t *testing.T) {
	ctx := context.Background()
	for _, name := range algebra.Names() {
		sr, _ := algebra.Lookup(name)
		for _, in := range pipelineInstances() {
			for _, tile := range []int{1, 4, 7, 64} {
				want, err := SolveCtx(ctx, in, Options{TileSize: tile, Semiring: sr, RecordSplits: true})
				if err != nil {
					t.Fatal(err)
				}
				got, err := SolvePipeCtx(ctx, in, Options{TileSize: tile, Semiring: sr, RecordSplits: true})
				if err != nil {
					t.Fatal(err)
				}
				if !bitwiseEqual(got.Table, want.Table) {
					t.Errorf("%s/%s tile=%d: table differs: %v",
						name, in.Name, tile, got.Table.Diff(want.Table, 3))
				}
				for idx := range want.Splits {
					if got.Splits[idx] != want.Splits[idx] {
						t.Errorf("%s/%s tile=%d: split flat[%d] = %d, blocked recorded %d",
							name, in.Name, tile, idx, got.Splits[idx], want.Splits[idx])
						break
					}
				}
			}
		}
	}
}

// The interface (non-stenciled) dispatch path must agree too.
func TestPipelinedGenericKernelPath(t *testing.T) {
	in := problems.RandomInstance(18, 60, 11)
	want := seq.Solve(in)
	got, err := SolvePipeCtx(context.Background(), in, Options{TileSize: 4, Semiring: wrappedMinPlus{}})
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(got.Table, want.Table) {
		t.Errorf("wrapped kernel diverges: %v", got.Table.Diff(want.Table, 3))
	}
}

func TestPipelinedCancellation(t *testing.T) {
	in := problems.RandomInstance(220, 80, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolvePipeCtx(ctx, in, Options{TileSize: 16})
	if err == nil || res != nil {
		t.Fatalf("cancelled solve returned (%v, %v), want nil result and ctx error", res, err)
	}
}

// The candidate ledger must stay exact under the reordering: charged
// work equals the sequential candidate count for every tile size.
func TestPipelinedWorkMatchesSequential(t *testing.T) {
	for _, tile := range []int{1, 3, 8, 64} {
		in := problems.RandomInstance(33, 50, 2)
		want := seq.Solve(in).Work
		got := SolvePipe(in, Options{TileSize: tile})
		if gotWork := got.Acct.Work - int64(in.N); gotWork != want {
			t.Errorf("tile=%d: charged work %d, sequential %d", tile, gotWork, want)
		}
	}
}

// The observability satellite's core claim: the barrier engine fences
// 2(nb−1) times per solve, the pipelined engine never — its only join
// is the graph's final quiescence.
func TestPipelinedBarrierFree(t *testing.T) {
	in := problems.RandomInstance(120, 70, 4)
	tile := 16
	nb := (in.N + 1 + tile - 1) / tile

	barrier := Solve(in, Options{TileSize: tile, Workers: 3})
	if want := int64(2 * (nb - 1)); barrier.Stats.Barriers != want {
		t.Errorf("blocked: %d barriers, want 2(nb-1) = %d", barrier.Stats.Barriers, want)
	}
	if barrier.Stats.Tasks == 0 {
		t.Errorf("blocked: no tasks counted")
	}

	pipe := SolvePipe(in, Options{TileSize: tile, Workers: 3})
	if pipe.Stats.Barriers != 0 {
		t.Errorf("blocked-pipe: %d barriers, want 0", pipe.Stats.Barriers)
	}
	if pipe.Stats.Tasks == 0 {
		t.Errorf("blocked-pipe: no tasks counted")
	}
	if !bitwiseEqual(pipe.Table, barrier.Table) {
		t.Errorf("table diverged while counting: %v", pipe.Table.Diff(barrier.Table, 3))
	}
}

// Two instances through one shared graph on a 2-worker pool: both tables
// bitwise correct, and the joint Stats view on both results proves they
// ran through one scheduler — its task count is exactly the sum of the
// two solves' individual (deterministic) task counts.
func TestPipeBatchSharedScheduler(t *testing.T) {
	pool := parutil.NewPool(2)
	defer pool.Close()
	a := problems.RandomInstance(130, 80, 21)
	b := problems.RandomMatrixChain(110, 60, 22)
	opt := Options{TileSize: 16, Pool: pool, Workers: 2}

	wantA := Solve(a, opt)
	wantB := Solve(b, opt)
	soloA := SolvePipe(a, opt)
	soloB := SolvePipe(b, opt)

	results, errs := SolvePipeBatchCtx(context.Background(),
		[]BatchItem{{In: a}, {In: b}}, opt)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if !bitwiseEqual(results[0].Table, wantA.Table) {
		t.Errorf("batched A differs from blocked: %v", results[0].Table.Diff(wantA.Table, 3))
	}
	if !bitwiseEqual(results[1].Table, wantB.Table) {
		t.Errorf("batched B differs from blocked: %v", results[1].Table.Diff(wantB.Table, 3))
	}
	if results[0].Stats != results[1].Stats {
		t.Errorf("batch items report different Stats views (%+v vs %+v) — not one shared scheduler",
			results[0].Stats, results[1].Stats)
	}
	if got, want := results[0].Stats.Tasks, soloA.Stats.Tasks+soloB.Stats.Tasks; got != want {
		t.Errorf("shared graph ran %d tasks, want %d (sum of the two solves)", got, want)
	}
	if results[0].Stats.Barriers != 0 {
		t.Errorf("overlapped batch recorded %d barriers, want 0", results[0].Stats.Barriers)
	}
}

// Mid-flight cancellation of one item must not corrupt or cancel its
// co-batched neighbour. The cancel fires from inside item A's own F
// evaluation, so it is guaranteed to land while A is mid-solve.
func TestPipeBatchCancellationIsolation(t *testing.T) {
	pool := parutil.NewPool(2)
	defer pool.Close()
	opt := Options{TileSize: 16, Pool: pool, Workers: 2}

	base := problems.RandomInstance(130, 80, 31)
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var calls atomic.Int64
	inA := *base
	inA.FPanel = nil // force the per-candidate F path so the trap sees every fold
	inA.FProduct = nil
	inA.F = func(i, k, j int) cost.Cost {
		if calls.Add(1) == 5000 {
			cancelA()
		}
		return base.F(i, k, j)
	}

	b := problems.RandomMatrixChain(110, 60, 32)
	wantB := Solve(b, opt)

	results, errs := SolvePipeBatchCtx(context.Background(),
		[]BatchItem{{In: &inA, Ctx: ctxA}, {In: b}}, opt)
	if errs[0] == nil || results[0] != nil {
		t.Fatalf("cancelled item returned (%v, %v), want nil result and ctx error", results[0], errs[0])
	}
	if errs[0] != context.Canceled {
		t.Errorf("cancelled item error = %v, want context.Canceled", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("co-batched item failed: %v", errs[1])
	}
	if !bitwiseEqual(results[1].Table, wantB.Table) {
		t.Errorf("co-batched item corrupted by neighbour's cancellation: %v",
			results[1].Table.Diff(wantB.Table, 3))
	}
}

// Mixed-algebra batches share the scheduler too (the runner erases the
// kernel type per item).
func TestPipeBatchMixedAlgebras(t *testing.T) {
	in := problems.RandomInstance(40, 70, 7)
	maxSR, _ := algebra.Lookup(algebra.NameMaxPlus)
	wantMin := Solve(in, Options{TileSize: 8})
	wantMax := Solve(in, Options{TileSize: 8, Semiring: maxSR})

	// Per-item algebra comes from the instance; override via two batches
	// is not needed — run min-plus and max-plus instances side by side.
	inMax := *in
	inMax.Algebra = algebra.NameMaxPlus
	results, errs := SolvePipeBatchCtx(context.Background(),
		[]BatchItem{{In: in}, {In: &inMax}}, Options{TileSize: 8})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if !bitwiseEqual(results[0].Table, wantMin.Table) {
		t.Errorf("min-plus item differs: %v", results[0].Table.Diff(wantMin.Table, 3))
	}
	if !bitwiseEqual(results[1].Table, wantMax.Table) {
		t.Errorf("max-plus item differs: %v", results[1].Table.Diff(wantMax.Table, 3))
	}
}

func pipelineInstances() []*recurrence.Instance {
	return []*recurrence.Instance{
		problems.RandomInstance(21, 70, 3),
		problems.RandomMatrixChain(26, 50, 5),
		problems.Zigzag(19),
	}
}
