package problems

import (
	"bytes"
	"testing"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
)

func TestWorstCaseMatrixChainDeclaresMaxPlus(t *testing.T) {
	dims := []int{30, 35, 15, 5, 10, 20, 25}
	worst := WorstCaseMatrixChain(dims)
	if worst.Algebra != algebra.NameMaxPlus {
		t.Fatalf("algebra = %q, want max-plus", worst.Algebra)
	}
	best := MatrixChain(dims)

	// Same parameters, different canon: the twins must never collide.
	wc, ok1 := worst.Canonical()
	bc, ok2 := best.Canonical()
	if !ok1 || !ok2 {
		t.Fatal("twins not canonicalisable")
	}
	if bytes.Equal(wc, bc) {
		t.Fatal("worstchain and matrixchain share canonical bytes")
	}

	// The worst case must dominate the best case, and on CLRS's example
	// the spread is known to be wide.
	worstRes, err := seq.SolveSemiringCtx(t.Context(), worst, nil)
	if err != nil {
		t.Fatal(err)
	}
	bestRes := seq.Solve(best)
	if worstRes.Cost() < bestRes.Cost() {
		t.Fatalf("worst %d < best %d", worstRes.Cost(), bestRes.Cost())
	}
	if bestRes.Cost() != CLRSOptimalCost {
		t.Fatalf("best = %d, want %d", bestRes.Cost(), CLRSOptimalCost)
	}
	// Brute-force the maximum over all parenthesizations at this size.
	want := bruteMax(worst, 0, worst.N)
	if worstRes.Cost() != want {
		t.Fatalf("worst-case optimum %d, brute force %d", worstRes.Cost(), want)
	}
}

// bruteMax enumerates all parenthesizations of (i,j) recursively and
// returns the costliest — independent of every solver. Small n only.
func bruteMax(in *recurrence.Instance, i, j int) cost.Cost {
	if j == i+1 {
		return in.Init(i)
	}
	best := cost.Cost(-1)
	for k := i + 1; k < j; k++ {
		v := in.F(i, k, j) + bruteMax(in, i, k) + bruteMax(in, k, j)
		if v > best {
			best = v
		}
	}
	return best
}

func TestForbiddenSplitsSemantics(t *testing.T) {
	// n=4, ban subexpression (1,3): feasible trees must avoid creating
	// A2*A3 as a unit. Parenthesizations of 4 objects: 5 trees, of which
	// those splitting (0,4) at 1 with right (1,4) split at 3, etc.
	in := ForbiddenSplits(4, [][2]int{{1, 3}})
	if in.Algebra != algebra.NameBoolPlan {
		t.Fatalf("algebra = %q", in.Algebra)
	}
	res, err := seq.SolveSemiringCtx(t.Context(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 1 {
		t.Fatalf("banning one mid-span must stay feasible, got %d", res.Cost())
	}

	// Banning every span-2 node makes any tree impossible at n >= 3
	// (every parenthesization of >= 3 objects contains some span-2 node).
	all2 := [][2]int{{0, 2}, {1, 3}, {2, 4}}
	res, err = seq.SolveSemiringCtx(t.Context(), ForbiddenSplits(4, all2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 0 {
		t.Fatalf("banning all span-2 nodes must be infeasible, got %d", res.Cost())
	}
	if res.Feasible() {
		t.Fatal("Feasible() true on infeasible instance")
	}

	// A banned leaf is infeasible outright.
	res, err = seq.SolveSemiringCtx(t.Context(), ForbiddenSplits(3, [][2]int{{1, 2}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 0 {
		t.Fatalf("banned leaf must be infeasible, got %d", res.Cost())
	}

	// Feasibility is min-plus finiteness: mapping present to 0 and
	// absent to Inf, the min-plus optimum is finite exactly when a plan
	// exists.
	for _, banned := range [][][2]int{{{1, 3}}, all2, {{1, 2}}, {{0, 2}, {2, 4}}} {
		plan := ForbiddenSplits(4, banned)
		gate := func(v cost.Cost) cost.Cost {
			if v != 0 {
				return 0
			}
			return cost.Inf
		}
		twin := &recurrence.Instance{N: plan.N, Name: plan.Name + "-minplus",
			Init: func(i int) cost.Cost { return gate(plan.Init(i)) },
			F:    func(i, k, j int) cost.Cost { return gate(plan.F(i, k, j)) }}
		if feasible, finite := seq.BruteForce(plan) == 1, seq.Solve(twin).Cost() < cost.Inf; feasible != finite {
			t.Errorf("banned %v: bool-plan feasible %v, min-plus finite %v", banned, feasible, finite)
		}
	}
}

func TestForbiddenSplitsCanonOrderIndependent(t *testing.T) {
	a := ForbiddenSplits(6, [][2]int{{0, 3}, {2, 5}, {1, 4}, {2, 5}})
	b := ForbiddenSplits(6, [][2]int{{2, 5}, {1, 4}, {0, 3}})
	ca, _ := a.Canonical()
	cb, _ := b.Canonical()
	if !bytes.Equal(ca, cb) {
		t.Fatal("canonical bytes depend on forbidden-list order/duplicates")
	}
	c := ForbiddenSplits(6, [][2]int{{0, 3}, {1, 4}})
	cc, _ := c.Canonical()
	if bytes.Equal(ca, cc) {
		t.Fatal("different forbidden sets share canonical bytes")
	}
}

func TestForbiddenSplitsValidation(t *testing.T) {
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {3, 2}, {0, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pair %v accepted", bad)
				}
			}()
			ForbiddenSplits(5, [][2]int{bad})
		}()
	}
}

func TestWorstCaseMatrixChainValidation(t *testing.T) {
	for _, bad := range [][]int{{5}, {3, 0, 2}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dims %v accepted", bad)
				}
			}()
			WorstCaseMatrixChain(bad)
		}()
	}
}
