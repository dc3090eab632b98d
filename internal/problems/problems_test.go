package problems

import (
	"testing"
	"testing/quick"

	"sublineardp/internal/btree"
	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

func TestMatrixChainCLRSShape(t *testing.T) {
	in := CLRSMatrixChain()
	if in.N != 6 {
		t.Fatalf("CLRS instance N = %d, want 6", in.N)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// f(0,1,6) = 30*35*25.
	if got := in.F(0, 1, 6); got != 30*35*25 {
		t.Errorf("f(0,1,6) = %d, want %d", got, 30*35*25)
	}
	if in.Init(3) != 0 {
		t.Error("matrix chain leaves must be free")
	}
}

func TestMatrixChainPanics(t *testing.T) {
	for _, dims := range [][]int{{}, {5}, {3, 0, 2}, {3, -1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dims %v accepted", dims)
				}
			}()
			MatrixChain(dims)
		}()
	}
}

func TestRandomMatrixChainReproducible(t *testing.T) {
	a := RandomMatrixChain(10, 50, 3)
	b := RandomMatrixChain(10, 50, 3)
	for i := 0; i <= 10; i++ {
		for k := i + 1; k <= 10; k++ {
			for j := k + 1; j <= 10; j++ {
				if a.F(i, k, j) != b.F(i, k, j) {
					t.Fatalf("same seed, different f(%d,%d,%d)", i, k, j)
				}
			}
		}
	}
}

func TestOBSTStructure(t *testing.T) {
	alpha := []int64{1, 2, 3, 4}
	beta := []int64{10, 20, 30}
	in := OBST(alpha, beta)
	if in.N != 4 {
		t.Fatalf("OBST N = %d, want 4", in.N)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// init(i) = alpha[i].
	for i, a := range alpha {
		if got := in.Init(i); got != cost.Cost(a) {
			t.Errorf("init(%d) = %d, want %d", i, got, a)
		}
	}
	// f(i,k,j) = sum beta over keys i+1..j-1 + sum alpha over gaps i..j-1,
	// independent of k. f(0,k,4) = (10+20+30) + (1+2+3+4) = 70 for any k.
	for k := 1; k <= 3; k++ {
		if got := in.F(0, k, 4); got != 70 {
			t.Errorf("f(0,%d,4) = %d, want 70", k, got)
		}
	}
	// f(1,2,3): key 2 only (beta idx 1 = 20); gaps 1..2 (alpha 2+3).
	if got := in.F(1, 2, 3); got != 20+2+3 {
		t.Errorf("f(1,2,3) = %d, want %d", got, 20+2+3)
	}
}

func TestOBSTPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched alpha length accepted")
			}
		}()
		OBST([]int64{1, 2}, []int64{3, 4})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative weight accepted")
			}
		}()
		OBST([]int64{1, -1}, []int64{3})
	}()
}

func TestTriangulationPerimeter(t *testing.T) {
	// Right triangle (0,0) (3,0) (0,4): perimeter 3+4+5 = 12, scaled 12*1024.
	vs := []Point{{0, 0}, {3, 0}, {0, 4}}
	in := Triangulation(vs)
	if in.N != 2 {
		t.Fatalf("N = %d, want 2", in.N)
	}
	if got := in.F(0, 1, 2); got != 12*1024 {
		t.Errorf("triangle cost = %d, want %d", got, 12*1024)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedTriangulationMatchesMatrixChain(t *testing.T) {
	// With identical weight vectors the two instances are the same function.
	w := []int64{30, 35, 15, 5, 10, 20, 25}
	wi := WeightedTriangulation(w)
	dims := []int{30, 35, 15, 5, 10, 20, 25}
	mc := MatrixChain(dims)
	if wi.N != mc.N {
		t.Fatal("size mismatch")
	}
	for i := 0; i <= wi.N; i++ {
		for k := i + 1; k <= wi.N; k++ {
			for j := k + 1; j <= wi.N; j++ {
				if wi.F(i, k, j) != mc.F(i, k, j) {
					t.Fatalf("f(%d,%d,%d) differs", i, k, j)
				}
			}
		}
	}
}

func TestRegularPolygonOnCircle(t *testing.T) {
	vs := RegularPolygon(7, 1000)
	if len(vs) != 8 {
		t.Fatalf("got %d vertices, want 8", len(vs))
	}
	for _, p := range vs {
		r2 := p.X*p.X + p.Y*p.Y
		if r2 < 990*990 || r2 > 1010*1010 {
			t.Errorf("vertex (%d,%d) not on circle", p.X, p.Y)
		}
	}
}

func TestRandomConvexPolygonSortedAngles(t *testing.T) {
	vs := RandomConvexPolygon(20, 10000, 5)
	if len(vs) != 21 {
		t.Fatalf("got %d vertices", len(vs))
	}
	// Convexity proxy: traversing vertices must wind monotonically, i.e.
	// all cross products of consecutive edge vectors share a sign (allowing
	// zeros from rounding).
	sign := 0
	m := len(vs)
	for t2 := 0; t2 < m; t2++ {
		a, b, c := vs[t2], vs[(t2+1)%m], vs[(t2+2)%m]
		cross := (b.X-a.X)*(c.Y-b.Y) - (b.Y-a.Y)*(c.X-b.X)
		switch {
		case cross > 0:
			if sign < 0 {
				t.Fatal("polygon not convex")
			}
			sign = 1
		case cross < 0:
			if sign > 0 {
				t.Fatal("polygon not convex")
			}
			sign = -1
		}
	}
}

func TestShapedZeroOnTree(t *testing.T) {
	tr := btree.Zigzag(9)
	in := Shaped(tr)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for span, k := range tr.Splits() {
		if got := in.F(span[0], k, span[1]); got != 0 {
			t.Errorf("on-tree split f(%d,%d,%d) = %d, want 0", span[0], k, span[1], got)
		}
	}
	// An off-tree split must be penalised.
	if got := in.F(0, 1, 9); got != ShapePenalty {
		// (0,9) splits at 8 in Zigzag(9) (depth-0 rule puts the big child left).
		t.Errorf("off-tree split cost = %d, want penalty", got)
	}
}

func TestShapedWithWeights(t *testing.T) {
	tr := btree.Complete(6)
	in := ShapedWithWeights(tr, 3, 2)
	for span, k := range tr.Splits() {
		if got := in.F(span[0], k, span[1]); got != 3 {
			t.Errorf("node cost = %d, want 3", got)
		}
	}
	if in.Init(0) != 2 {
		t.Error("leaf cost lost")
	}
}

func TestRandomInstanceValid(t *testing.T) {
	in := RandomInstance(12, 30, 77)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	b := RandomInstance(12, 30, 77)
	for i := 0; i <= 12; i++ {
		for k := i + 1; k <= 12; k++ {
			for j := k + 1; j <= 12; j++ {
				if in.F(i, k, j) != b.F(i, k, j) {
					t.Fatal("seeded RandomInstance not reproducible")
				}
			}
		}
	}
}

// Every constructor that ships a bulk FPanel must agree with its scalar
// F on all arguments — Validate cross-checks the two cell by cell (and
// FProduct too, where declared), and materialisation must preserve the
// contract through its flat-copy form.
func TestFPanelAgreesWithF(t *testing.T) {
	products := []*recurrence.Instance{
		RandomMatrixChain(13, 40, 3),
		WorstCaseMatrixChain([]int{7, 3, 9, 2, 5}),
		WeightedTriangulation([]int64{3, 1, 4, 1, 5, 9, 2, 6}),
	}
	for _, in := range products {
		if in.FProduct == nil || in.FPanel == nil {
			t.Errorf("%s: product constructor must set both FProduct and FPanel", in.Name)
		}
	}
	if RandomMatrixChain(12, 25, 9).Materialize().FProduct != nil {
		t.Error("Materialize kept FProduct; the flat-table copy must not declare it")
	}
	ins := []*recurrence.Instance{
		RandomMatrixChain(13, 40, 3),
		RandomOBST(11, 30, 5),
		Triangulation(RandomConvexPolygon(10, 800, 7)),
		WeightedTriangulation([]int64{3, 1, 4, 1, 5, 9, 2, 6}),
		WorstCaseMatrixChain([]int{7, 3, 9, 2, 5}),
		ForbiddenSplits(9, [][2]int{{1, 3}, {2, 7}, {4, 5}}),
		RandomMatrixChain(12, 25, 9).Materialize(),
		Zigzag(10),
		ShapedWithWeights(btree.Complete(9), 3, 2),
		RandomShaped(11, 4),
		RandomInstance(10, 30, 6),
	}
	for _, in := range ins {
		if in.FPanel == nil {
			t.Errorf("%s: no FPanel", in.Name)
			continue
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", in.Name, err)
		}
	}
}

// Property: all generator families produce instances passing Validate.
func TestGeneratorsAlwaysValid(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn)%14 + 2
		gens := []interface{ Validate() error }{
			RandomMatrixChain(n, 20, seed),
			RandomOBST(n, 20, seed),
			Triangulation(RandomConvexPolygon(n, 500, seed)),
			RandomShaped(n, seed),
			RandomInstance(n, 25, seed),
		}
		for _, g := range gens {
			if g.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
