package blocked

import (
	"context"
	"math/rand"
	"testing"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
)

// plainMinPlus is min-plus as a bare third-party Semiring: it implements
// none of the Kernel primitives, so registration promotes it to the
// derived fallback kernel.
type plainMinPlus struct{}

func (plainMinPlus) Combine(a, b cost.Cost) cost.Cost { return cost.Min(a, b) }
func (plainMinPlus) Extend(a, b cost.Cost) cost.Cost  { return cost.Add(a, b) }
func (plainMinPlus) Zero() cost.Cost                  { return cost.Inf }
func (plainMinPlus) One() cost.Cost                   { return 0 }
func (plainMinPlus) Name() string                     { return "test-plain-min-plus" }

// registeredPlainMinPlus registers plainMinPlus once per process and
// returns its promoted kernel.
func registeredPlainMinPlus(t *testing.T) algebra.Kernel {
	t.Helper()
	if k, ok := algebra.Lookup(plainMinPlus{}.Name()); ok {
		return k
	}
	if err := algebra.Register(plainMinPlus{}); err != nil {
		t.Fatal(err)
	}
	k, _ := algebra.Lookup(plainMinPlus{}.Name())
	return k
}

// The fused product-form fold must be invisible: for every product
// constructor, solving with Instance.FProduct set and with it cleared
// (the FPanel row path) gives bitwise identical tables and recorded
// splits, equal to the sequential DP's, on both drivers, across tile
// edges and with recording on and off. The third-party override drives
// the derived fallback kernel.
func TestFusedProductMatchesFPanel(t *testing.T) {
	ctx := context.Background()
	thirdParty := registeredPlainMinPlus(t)
	rng := rand.New(rand.NewSource(1303))
	weights := func(n int) []int64 {
		w := make([]int64, n+1)
		for i := range w {
			w[i] = 1 + rng.Int63n(60)
		}
		return w
	}
	dims := func(w []int64) []int {
		d := make([]int, len(w))
		for i, v := range w {
			d[i] = int(v)
		}
		return d
	}
	type tc struct {
		in *recurrence.Instance
		sr algebra.Semiring // nil = the instance's declared algebra
	}
	var cases []tc
	for _, n := range []int{2, 3, 7, 64, 65, 129} {
		cases = append(cases,
			tc{in: problems.MatrixChain(dims(weights(n)))},
			tc{in: problems.WorstCaseMatrixChain(dims(weights(n)))},
			tc{in: problems.WeightedTriangulation(weights(n))},
		)
	}
	cases = append(cases, tc{in: problems.MatrixChain(dims(weights(70))), sr: thirdParty})

	solvers := []struct {
		name  string
		solve func(context.Context, *recurrence.Instance, Options) (*Result, error)
	}{{"blocked", SolveCtx}, {"blocked-pipe", SolvePipeCtx}}

	for _, c := range cases {
		in := c.in
		if in.FProduct == nil || in.FPanel == nil {
			t.Fatalf("%s: constructor sets no FProduct/FPanel", in.Name)
		}
		panel := *in
		panel.FProduct = nil
		sr, err := algebra.Resolve(c.sr, in.Algebra)
		if err != nil {
			t.Fatal(err)
		}
		want, err := seq.SolveSemiringCtx(ctx, in, sr)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range solvers {
			label := in.Name + "/" + sr.Name() + "/" + s.name
			for _, tile := range []int{1, 5, 64, 0} {
				for _, record := range []bool{false, true} {
					opt := Options{TileSize: tile, Semiring: c.sr, RecordSplits: record}
					fused, err := s.solve(ctx, in, opt)
					if err != nil {
						t.Fatal(err)
					}
					rowed, err := s.solve(ctx, &panel, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !bitwiseEqual(fused.Table, rowed.Table) {
						t.Fatalf("%s tile=%d record=%v: fused table differs from FPanel path: %v",
							label, tile, record, fused.Table.Diff(rowed.Table, 3))
					}
					if !bitwiseEqual(fused.Table, want.Table) {
						t.Fatalf("%s tile=%d record=%v: fused table differs from sequential: %v",
							label, tile, record, fused.Table.Diff(want.Table, 3))
					}
					if !record {
						continue
					}
					for idx := range rowed.Splits {
						if fused.Splits[idx] != rowed.Splits[idx] {
							t.Fatalf("%s tile=%d: fused split flat[%d] = %d, FPanel path recorded %d",
								label, tile, idx, fused.Splits[idx], rowed.Splits[idx])
						}
					}
					for i := 0; i <= in.N; i++ {
						for j := i + 2; j <= in.N; j++ {
							if got, exp := fused.Split(i, j), want.Split(i, j); got != exp {
								t.Fatalf("%s tile=%d: fused split(%d,%d) = %d, sequential recorded %d",
									label, tile, i, j, got, exp)
							}
						}
					}
				}
			}
		}
	}
}
