// Package problems constructs concrete instances of the paper's recurrence
// (*): matrix-chain multiplication, optimal binary search trees in the
// alpha/beta gap-weight formulation, optimal convex-polygon triangulation,
// synthetic instances whose optimal tree is a prescribed shape (used to
// drive the algorithm into its worst and best cases), and seeded random
// instances for property tests and average-case experiments.
package problems

import (
	"fmt"
	"math/rand"

	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// MatrixChain returns the matrix-chain multiplication instance for
// matrices A_1..A_n where A_t is dims[t-1] x dims[t]. Node (i,j) is the
// product A_{i+1}..A_j; splitting at k multiplies the two partial products
// at a cost of dims[i]*dims[k]*dims[j] scalar multiplications; leaves cost
// nothing. c(0,n) is the classic minimum multiplication count.
func MatrixChain(dims []int) *recurrence.Instance {
	if len(dims) < 2 {
		panic(fmt.Sprintf("problems: matrix chain needs >= 2 dimensions, got %d", len(dims)))
	}
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("problems: nonpositive matrix dimension %d", d))
		}
	}
	d := make([]int64, len(dims))
	for i, v := range dims {
		d[i] = int64(v)
	}
	return &recurrence.Instance{
		N:     len(dims) - 1,
		Name:  fmt.Sprintf("matrixchain-n%d", len(dims)-1),
		Canon: func() []byte { return canon("matrixchain", d) },
		Init:  func(i int) cost.Cost { return 0 },
		F: func(i, k, j int) cost.Cost {
			return cost.Cost(d[i] * d[k] * d[j])
		},
		FPanel: func(i, k, j0 int, dst []cost.Cost) {
			dik := d[i] * d[k]
			row := d[j0 : j0+len(dst)]
			for t := range dst {
				dst[t] = cost.Cost(dik * row[t])
			}
		},
		FProduct: d,
	}
}

// CLRSMatrixChain returns the six-matrix textbook example (CLRS §15.2)
// with dimensions 30x35, 35x15, 15x5, 5x10, 10x20, 20x25. Its known
// optimal cost is 15125 with parenthesization (A1(A2 A3))((A4 A5)A6);
// tests use it as a golden value.
func CLRSMatrixChain() *recurrence.Instance {
	in := MatrixChain([]int{30, 35, 15, 5, 10, 20, 25})
	in.Name = "matrixchain-clrs"
	return in
}

// CLRSOptimalCost is the published optimum of CLRSMatrixChain.
const CLRSOptimalCost cost.Cost = 15125

// RandomMatrixChain returns a matrix-chain instance with n matrices whose
// dimensions are drawn uniformly from [1, maxDim] using the given seed.
func RandomMatrixChain(n, maxDim int, seed int64) *recurrence.Instance {
	if n < 1 || maxDim < 1 {
		panic("problems: RandomMatrixChain needs n >= 1 and maxDim >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	dims := make([]int, n+1)
	for i := range dims {
		dims[i] = 1 + rng.Intn(maxDim)
	}
	in := MatrixChain(dims)
	in.Name = fmt.Sprintf("matrixchain-rand-n%d-s%d", n, seed)
	return in
}
