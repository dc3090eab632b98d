package blocked

import (
	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// tileSolver is the tile decomposition shared by the barrier-stepped
// wavefront driver (run) and the pipelined driver (pipeline.go): table
// seeding, block-index geometry, and the three relaxation units — the
// phase-A interior fold of one tile row, the multi-split panel fold, and
// the in-tile closure. Both drivers call exactly these methods with
// exactly the same per-destination fold order (K ascending, then the
// block-I rows, then the forward block-J sweep), which is why their
// tables — and recorded splits — are bitwise identical by construction:
// the engines differ only in *when* a unit runs, never in what it folds
// or in what order a given cell sees its candidates.
type tileSolver[S algebra.Kernel] struct {
	sr     S
	n      int
	b      int // block edge
	size   int // n+1
	nb     int // block count
	stride int
	data   []cost.Cost
	splits []int32
	f      algebra.SplitFunc
	fPanel func(i, k, j0 int, dst []cost.Cost)
	fProd  []int64
	res    *Result
}

// newTileSolver allocates and seeds the cost table (and split matrix when
// recording), exactly as both engines require: Zero-fill of the computed
// triangle for non-min-plus algebras, leaf diagonal from Init, splits
// initialised to -1.
func newTileSolver[S algebra.Kernel](sr S, in *recurrence.Instance, b int, record bool) *tileSolver[S] {
	n := in.N
	size := n + 1
	tbl := recurrence.NewTable(n)
	data, stride := tbl.Data(), tbl.Stride()
	// NewTable pre-fills with Inf — min-plus's Zero. Any other algebra
	// re-seeds exactly the cells the recurrence computes (i < j), keeping
	// the untouched lower triangle bitwise identical to the sequential
	// table.
	if zero := sr.Zero(); zero != cost.Inf {
		for i := 0; i < n; i++ {
			row := i * stride
			for j := i + 1; j <= n; j++ {
				data[row+j] = zero
			}
		}
	}
	for i := 0; i < n; i++ {
		data[i*stride+i+1] = in.Init(i)
	}

	// The split matrix shares the table's flat layout; -1 marks "no
	// candidate recorded". Recording is race-free for the same reason the
	// value writes are: every kernel call writes only its own destination
	// run, and parallel units own disjoint runs.
	var splits []int32
	if record {
		splits = make([]int32, len(data))
		for i := range splits {
			splits[i] = -1
		}
	}

	res := &Result{Table: tbl, TileSize: b, Splits: splits}
	res.Acct.ChargeUnit(int64(n)) // the leaf init step

	return &tileSolver[S]{
		sr: sr, n: n, b: b, size: size, nb: (size + b - 1) / b,
		stride: stride, data: data, splits: splits,
		f: algebra.SplitFunc(in.F), fPanel: in.FPanel, fProd: in.FProduct,
		res: res,
	}
}

func (t *tileSolver[S]) lo(B int) int { return B * t.b }

func (t *tileSolver[S]) hi(B int) int {
	v := (B + 1) * t.b
	if v > t.size {
		v = t.size
	}
	return v
}

// rowF reports that the instance declares a bulk F form (product or
// row panel), so split runs fold one split at a time through relaxRun.
func (t *tileSolver[S]) rowF() bool { return t.fProd != nil || t.fPanel != nil }

// relaxRun folds split k into the m cells (i, j0..j0+m-1) through the
// cheapest F form the instance declares: a product form
// (Instance.FProduct) folds with no f buffer at all —
// RelaxSplitRowProduct computes f = w[i]*w[k]*w[j] in the loop; a bulk
// row form (Instance.FPanel) fills the f run into fbuf in one tight loop
// for the three-stream RelaxSplitRow; otherwise RelaxSplitPanel
// evaluates F per candidate inside the kernel body.
func (t *tileSolver[S]) relaxRun(fbuf []cost.Cost, i, k, j0, m int) {
	if m <= 0 {
		return
	}
	switch {
	case t.fProd != nil:
		t.sr.RelaxSplitRowProduct(t.data, t.splits, t.stride, i, k, j0, m,
			t.fProd[i]*t.fProd[k], t.fProd[j0:j0+m])
	case t.fPanel != nil:
		t.fPanel(i, k, j0, fbuf[:m])
		if t.splits != nil {
			t.sr.RelaxSplitRowRec(t.data, t.splits, t.stride, i, k, j0, m, fbuf)
		} else {
			t.sr.RelaxSplitRow(t.data, t.stride, i, k, j0, m, fbuf)
		}
	default:
		t.sr.RelaxSplitPanel(t.data, t.splits, t.stride, i, k, k+1, j0, m, t.f)
	}
}

// foldRowInterior is the phase-A unit for one row i of tile (I, I+d),
// d >= 2: fold every strictly interior split block K (I < K < J), K
// ascending, into the row's block-J cells. Returns the candidate count
// folded — identical under both drivers because the unit is the whole
// row, never a partial K range.
func (t *tileSolver[S]) foldRowInterior(fbuf []cost.Cost, i, I, J int) int64 {
	j0, m := t.lo(J), t.hi(J)-t.lo(J)
	for K := I + 1; K < J; K++ {
		if t.rowF() {
			for k := t.lo(K); k < t.hi(K); k++ {
				t.relaxRun(fbuf, i, k, j0, m)
			}
		} else {
			t.sr.RelaxSplitPanel(t.data, t.splits, t.stride, i, t.lo(K), t.hi(K), j0, m, t.f)
		}
	}
	return int64(m) * int64(j0-t.hi(I))
}

// closeTile runs the in-tile closure of tile (I,J) in dependency order
// (rows bottom-up; within a row, splits left to right, each final cell
// immediately forward-relaxed into the rest of its row — always
// j-contiguous runs) and returns its candidate count. For I == J this is
// the triangular DP of the block; off-diagonal tiles first fold their
// block-I splits (the rows below, already final), then sweep the block-J
// splits forward — the strictly interior blocks were folded in by
// phase A.
func (t *tileSolver[S]) closeTile(fbuf []cost.Cost, I, J int) int64 {
	i0, i1 := t.lo(I), t.hi(I)
	j0, j1 := t.lo(J), t.hi(J)
	var work int64
	if I == J {
		for i := i1 - 2; i >= i0; i-- {
			for k := i + 1; k < j1-1; k++ {
				m := j1 - k - 1
				t.relaxRun(fbuf, i, k, k+1, m)
				work += int64(m)
			}
		}
		return work
	}
	m := j1 - j0
	for i := i1 - 1; i >= i0; i-- {
		if t.rowF() {
			for k := i + 1; k < i1; k++ {
				t.relaxRun(fbuf, i, k, j0, m)
			}
		} else if i+1 < i1 {
			t.sr.RelaxSplitPanel(t.data, t.splits, t.stride, i, i+1, i1, j0, m, t.f)
		}
		work += int64(i1-i-1) * int64(m)
		for k := j0; k < j1-1; k++ {
			mk := j1 - k - 1
			t.relaxRun(fbuf, i, k, k+1, mk)
			work += int64(mk)
		}
	}
	return work
}
