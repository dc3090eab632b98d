package sublineardp_test

import (
	"context"
	"testing"

	"sublineardp"
)

// solveWith runs one solve through the Solver API, failing the test on
// any error.
func solveWith(t *testing.T, engine string, in *sublineardp.Instance, opts ...sublineardp.Option) *sublineardp.Solution {
	t.Helper()
	sol, err := sublineardp.MustNewSolver(engine, opts...).Solve(context.Background(), in)
	if err != nil {
		t.Fatalf("%s on %s: %v", engine, in.Name, err)
	}
	return sol
}

func TestQuickstartFlow(t *testing.T) {
	in := sublineardp.NewMatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
	res := solveWith(t, sublineardp.EngineHLVDense, in)
	if res.Cost() != 15125 {
		t.Fatalf("parallel cost = %d, want 15125", res.Cost())
	}
	seqRes := solveWith(t, sublineardp.EngineSequential, in)
	if seqRes.Cost() != 15125 {
		t.Fatalf("sequential cost = %d", seqRes.Cost())
	}
	if !res.Table.Equal(seqRes.Table) {
		t.Fatal("parallel and sequential tables differ")
	}
	tr, err := seqRes.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if seqRes.Split(0, 6) != 3 {
		t.Fatalf("root split = %d, want 3", seqRes.Split(0, 6))
	}
}

func TestAllSolversAgreeViaFacade(t *testing.T) {
	in := sublineardp.NewOBST([]int64{1, 2, 1, 3, 1}, []int64{10, 3, 8, 6})
	want := solveWith(t, sublineardp.EngineSequential, in).Table
	if got := solveWith(t, sublineardp.EngineHLVBanded, in); !got.Table.Equal(want) {
		t.Fatal("banded mismatch")
	}
	if got := solveWith(t, sublineardp.EngineWavefront, in, sublineardp.WithWorkers(2)); !got.Table.Equal(want) {
		t.Fatal("wavefront mismatch")
	}
	if got := solveWith(t, sublineardp.EngineRytter, in, sublineardp.WithWorkers(2)); !got.Table.Equal(want) {
		t.Fatal("rytter mismatch")
	}
}

func TestTriangulationFacade(t *testing.T) {
	square := []sublineardp.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 100}, {X: 0, Y: 100}}
	in := sublineardp.NewTriangulation(square)
	res := solveWith(t, sublineardp.EngineHLVBanded, in)
	if res.Cost() <= 0 || res.Cost() >= sublineardp.Inf {
		t.Fatalf("degenerate triangulation cost %d", res.Cost())
	}
	// Weight-product triangulation matches matrix chain.
	w := sublineardp.NewWeightedTriangulation([]int64{30, 35, 15, 5, 10, 20, 25})
	if got := solveWith(t, sublineardp.EngineSequential, w).Cost(); got != 15125 {
		t.Fatalf("weighted triangulation = %d", got)
	}
}

func TestShapedAndPebbleFacade(t *testing.T) {
	n := 36
	tr := sublineardp.ZigzagTree(n)
	in := sublineardp.NewShaped(tr)
	want := solveWith(t, sublineardp.EngineSequential, in).Table
	res := solveWith(t, sublineardp.EngineHLVBanded, in, sublineardp.WithTarget(want))
	if res.ConvergedAt < 0 || res.ConvergedAt > sublineardp.WorstCaseIterations(n) {
		t.Fatalf("converged at %d, budget %d", res.ConvergedAt, sublineardp.WorstCaseIterations(n))
	}

	g := sublineardp.NewPebbleGame(tr, sublineardp.PebbleHLV)
	moves := g.Run(0)
	if !g.RootPebbled() || moves > sublineardp.PebbleBound(n) {
		t.Fatalf("game took %d moves, bound %d", moves, sublineardp.PebbleBound(n))
	}

	fast := sublineardp.NewPebbleGame(sublineardp.CompleteTree(n), sublineardp.PebbleRytter)
	if fm := fast.Run(0); fm >= moves {
		t.Fatalf("doubling rule on complete tree (%d moves) not faster than zigzag worst case (%d)", fm, moves)
	}
}

func TestExtractTreeFromParallelResult(t *testing.T) {
	in := sublineardp.NewMatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
	res := solveWith(t, sublineardp.EngineHLVBanded, in)
	tr, err := sublineardp.ExtractTree(in, res.Table)
	if err != nil {
		t.Fatal(err)
	}
	seqTree, err := solveWith(t, sublineardp.EngineSequential, in).Tree()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(seqTree) {
		t.Fatal("parallel-extracted tree differs from sequential reconstruction")
	}
	if got := sublineardp.TreeCost(in, tr); got != res.Cost() {
		t.Fatalf("tree cost %d != optimum %d", got, res.Cost())
	}
}

func TestExtractTreeRejectsUnconvergedTable(t *testing.T) {
	in := sublineardp.NewShaped(sublineardp.ZigzagTree(25))
	// One iteration is nowhere near convergence for a zigzag instance.
	res := solveWith(t, sublineardp.EngineHLVDense, in, sublineardp.WithMaxIterations(1))
	if _, err := sublineardp.ExtractTree(in, res.Table); err == nil {
		t.Fatal("unconverged table accepted")
	}
}

func TestTerminationOptionsFacade(t *testing.T) {
	in := sublineardp.NewShaped(sublineardp.CompleteTree(49))
	res := solveWith(t, sublineardp.EngineHLVBanded, in, sublineardp.WithTermination(sublineardp.WStable))
	if !res.StoppedEarly {
		t.Fatal("balanced instance should stop early under WStable")
	}
	want := solveWith(t, sublineardp.EngineSequential, in).Table
	if !res.Table.Equal(want) {
		t.Fatal("early stop produced wrong table")
	}
}
