package exper

import (
	"math/rand"

	"sublineardp/internal/algebra"
	"sublineardp/internal/core"
	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
)

// E12Semirings exercises the generalisation of the algorithm to arbitrary
// idempotent semirings (an extension beyond the paper; see
// internal/algebra): min-plus (the paper), max-plus (costliest
// parenthesization) and boolean feasibility all converge within the
// Lemma 3.3 budget because the pebbling argument never uses more than
// idempotency, distributivity and monotonicity.
func E12Semirings(cfg Config) []*Table {
	sizes := []int{6, 8, 10, 12}
	seeds := []int64{1, 2, 3}
	if cfg.Quick {
		sizes = []int{6, 8}
		seeds = []int64{1}
	}

	t := &Table{
		ID:       "E12",
		Title:    "Idempotent-semiring generalisation: agreement with brute force (runs passed/total)",
		PaperRef: "extension: the paper's scheme over (min,+), (max,+) and (or,and)",
		Columns:  []string{"semiring", "passed", "iterations used (= budget)"},
	}

	for _, alg := range []string{algebra.NameMinPlus, algebra.NameMaxPlus, algebra.NameBoolPlan} {
		passed, total, iters := 0, 0, 0
		for _, n := range sizes {
			for _, seed := range seeds {
				in := randomSemiringInstance(alg, n, seed)
				total++
				res := core.Solve(in, core.Options{Variant: core.Dense, Termination: core.FixedIterations})
				iters = res.Iterations
				if res.Cost() == seq.BruteForce(in) {
					passed++
				}
			}
		}
		t.AddRow(alg, fmtFrac(passed, total), iters)
	}
	t.Note("counting parenthesizations ((+,*), non-idempotent) is deliberately unsupported: re-Combining the same tree across iterations would overcount")
	return []*Table{t}
}

// randomSemiringInstance draws a random instance declaring the named
// algebra: f and init uniform in [0,40), or in {0,1} with every leaf
// present for bool-plan.
func randomSemiringInstance(alg string, n int, seed int64) *recurrence.Instance {
	rng := rand.New(rand.NewSource(seed))
	sz := n + 1
	f := make([]cost.Cost, sz*sz*sz)
	ini := make([]cost.Cost, n)
	boolean := alg == algebra.NameBoolPlan
	for i := range f {
		if boolean {
			f[i] = cost.Cost(rng.Intn(2))
		} else {
			f[i] = cost.Cost(rng.Int63n(40))
		}
	}
	for i := range ini {
		if boolean {
			ini[i] = 1
		} else {
			ini[i] = cost.Cost(rng.Int63n(40))
		}
	}
	return &recurrence.Instance{
		N:       n,
		Name:    alg,
		Algebra: alg,
		Init:    func(i int) cost.Cost { return ini[i] },
		F:       func(i, k, j int) cost.Cost { return f[(i*sz+k)*sz+j] },
	}
}
