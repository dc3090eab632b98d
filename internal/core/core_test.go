package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sublineardp/internal/algebra"
	"sublineardp/internal/btree"
	"sublineardp/internal/cost"
	"sublineardp/internal/pebble"
	"sublineardp/internal/pram"
	"sublineardp/internal/problems"
	"sublineardp/internal/recurrence"
	"sublineardp/internal/seq"
)

type costC = cost.Cost

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func costInf() cost.Cost { return cost.Inf }

// allConfigs enumerates the solver configurations the equality tests sweep.
func allConfigs() map[string]Options {
	return map[string]Options{
		"dense-sync":     {Variant: Dense, Mode: Synchronous},
		"dense-chaotic":  {Variant: Dense, Mode: Chaotic},
		"banded-sync":    {Variant: Banded, Mode: Synchronous},
		"banded-chaotic": {Variant: Banded, Mode: Chaotic},
		"banded-window":  {Variant: Banded, Mode: Synchronous, Window: true},
		"dense-1worker":  {Variant: Dense, Mode: Synchronous, Workers: 1},
		"banded-3worker": {Variant: Banded, Mode: Synchronous, Workers: 3},
	}
}

func TestCLRSAllConfigs(t *testing.T) {
	in := problems.CLRSMatrixChain()
	want := seq.Solve(in).Table
	for name, opts := range allConfigs() {
		res := Solve(in, opts)
		if res.Cost() != problems.CLRSOptimalCost {
			t.Errorf("%s: cost = %d, want %d", name, res.Cost(), problems.CLRSOptimalCost)
		}
		if !res.Table.Equal(want) {
			t.Errorf("%s: table mismatch: %v", name, res.Table.Diff(want, 3))
		}
	}
}

func TestAllFamiliesAllConfigs(t *testing.T) {
	instances := []*recurrence.Instance{
		problems.RandomMatrixChain(13, 30, 1),
		problems.RandomOBST(11, 25, 2),
		problems.Triangulation(problems.RandomConvexPolygon(12, 300, 3)),
		problems.RandomInstance(14, 50, 4),
		problems.Zigzag(12),
		problems.Balanced(13),
		problems.Skewed(12),
	}
	for _, in := range instances {
		want := seq.Solve(in).Table
		for name, opts := range allConfigs() {
			res := Solve(in, opts)
			if !res.Table.Equal(want) {
				t.Errorf("%s on %s: mismatch: %v", name, in.Name, res.Table.Diff(want, 3))
			}
		}
	}
}

func TestIterationsWithinLemmaBound(t *testing.T) {
	// The fixed budget is 2*ceil(sqrt(n)); with Target set we learn the
	// true convergence iteration, which must be within the bound for every
	// shape, variant and mode.
	shapes := map[string]func(int) *recurrence.Instance{
		"zigzag":   problems.Zigzag,
		"balanced": problems.Balanced,
		"skewed":   problems.Skewed,
	}
	for shapeName, mk := range shapes {
		for _, n := range []int{4, 9, 16, 25} {
			in := mk(n)
			want := seq.Solve(in).Table
			for cfgName, opts := range allConfigs() {
				opts.Target = want
				res := Solve(in, opts)
				if res.ConvergedAt < 0 {
					t.Errorf("%s/%s n=%d: never converged in %d iterations",
						shapeName, cfgName, n, res.Iterations)
					continue
				}
				if res.ConvergedAt > pebble.LemmaBound(n) {
					t.Errorf("%s/%s n=%d: converged at iteration %d > bound %d",
						shapeName, cfgName, n, res.ConvergedAt, pebble.LemmaBound(n))
				}
			}
		}
	}
}

func TestAlgebraNoSlowerThanGame(t *testing.T) {
	// Section 4 couples the algorithm to the pebbling game: when the game
	// pebbles the root at move k, w'(0,n) is correct after iteration k.
	// Hence ConvergedAt (for the whole table) <= game moves on the optimal
	// tree... for the root; the full table can lag the root by at most the
	// deepest subtree's own game, still within the same move count because
	// the game pebbles every node, not just the root. Verify directly.
	for _, n := range []int{6, 10, 15, 21} {
		for seed := int64(0); seed < 4; seed++ {
			tr := btree.RandomSplit(n, newRand(seed))
			in := problems.Shaped(tr)
			want := seq.Solve(in).Table
			g := pebble.NewGame(tr, pebble.HLVRule)
			moves := g.Run(0)
			res := Solve(in, Options{Variant: Dense, Target: want})
			if res.ConvergedAt < 0 || res.ConvergedAt > moves {
				t.Errorf("n=%d seed=%d: algebra converged at %d, game needed %d moves",
					n, seed, res.ConvergedAt, moves)
			}
		}
	}
}

func TestChaoticNeverSlowerThanSync(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := problems.RandomInstance(12, 40, seed)
		want := seq.Solve(in).Table
		syncRes := Solve(in, Options{Variant: Dense, Mode: Synchronous, Target: want})
		chaRes := Solve(in, Options{Variant: Dense, Mode: Chaotic, Target: want})
		if chaRes.ConvergedAt > syncRes.ConvergedAt {
			t.Errorf("seed %d: chaotic converged at %d, sync at %d",
				seed, chaRes.ConvergedAt, syncRes.ConvergedAt)
		}
	}
}

func TestAuditCleanSynchronous(t *testing.T) {
	for _, variant := range []Variant{Dense, Banded} {
		in := problems.RandomMatrixChain(8, 20, 7)
		aud := &pram.Auditor{}
		res := Solve(in, Options{Variant: variant, Mode: Synchronous, Audit: aud, Workers: 2})
		if err := aud.Err(); err != nil {
			t.Errorf("%v: CREW audit failed: %v", variant, err)
		}
		if !res.Table.Equal(seq.Solve(in).Table) {
			t.Errorf("%v: audited run produced wrong table", variant)
		}
	}
}

func TestAuditFlagsChaotic(t *testing.T) {
	// Chaotic updates are deliberately not PRAM-faithful: in-place squares
	// read cells they also write. The auditor must notice.
	in := problems.RandomMatrixChain(8, 20, 7)
	aud := &pram.Auditor{}
	Solve(in, Options{Variant: Dense, Mode: Chaotic, Audit: aud})
	if err := aud.Err(); err == nil {
		t.Error("auditor did not flag chaotic in-place updates")
	}
}

func TestWStableStopsEarlyOnEasyInstances(t *testing.T) {
	// A balanced instance converges in ~log2(n) iterations; the stability
	// rule should stop far below the sqrt budget.
	n := 64
	in := problems.Balanced(n)
	res := Solve(in, Options{Variant: Banded, Termination: WStable})
	if !res.StoppedEarly {
		t.Fatalf("did not stop early (ran %d iterations)", res.Iterations)
	}
	if res.Iterations >= DefaultIterations(n) {
		t.Fatalf("iterations %d not below budget %d", res.Iterations, DefaultIterations(n))
	}
	if !res.Table.Equal(seq.Solve(in).Table) {
		t.Fatal("early-stopped result is wrong")
	}
}

func TestWPWStableIsCorrect(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in := problems.RandomInstance(10, 35, seed)
		res := Solve(in, Options{Variant: Dense, Termination: WPWStable})
		if !res.Table.Equal(seq.Solve(in).Table) {
			t.Errorf("seed %d: WPWStable stopped on a wrong table", seed)
		}
	}
}

func TestWStableCorrectAcrossSeeds(t *testing.T) {
	// E7 studies the heuristic's safety at scale; here we at least pin it
	// on a batch of random and shaped instances.
	for seed := int64(0); seed < 8; seed++ {
		for _, in := range []*recurrence.Instance{
			problems.RandomInstance(12, 40, seed),
			problems.RandomShaped(12, seed),
		} {
			res := Solve(in, Options{Variant: Banded, Termination: WStable})
			if !res.Table.Equal(seq.Solve(in).Table) {
				t.Errorf("seed %d %s: WStable stopped on a wrong table", seed, in.Name)
			}
		}
	}
}

func TestHistoryRecords(t *testing.T) {
	in := problems.Zigzag(16)
	res := Solve(in, Options{Variant: Dense, History: true})
	if len(res.History) != res.Iterations {
		t.Fatalf("history has %d entries for %d iterations", len(res.History), res.Iterations)
	}
	prevFinite := 0
	for idx, st := range res.History {
		if st.Iter != idx+1 {
			t.Fatalf("history iteration numbering broken at %d", idx)
		}
		if st.FiniteW < prevFinite {
			t.Fatalf("finite w count decreased at iteration %d", st.Iter)
		}
		prevFinite = st.FiniteW
	}
	last := res.History[len(res.History)-1]
	total := in.NumNodes()
	if last.FiniteW != total {
		t.Fatalf("after convergence %d finite entries, want %d", last.FiniteW, total)
	}
}

func TestAccountingGrowsWithN(t *testing.T) {
	small := Solve(problems.Balanced(8), Options{Variant: Banded})
	large := Solve(problems.Balanced(32), Options{Variant: Banded})
	if large.Acct.Work <= small.Acct.Work {
		t.Fatal("work did not grow with n")
	}
	if large.Acct.Time <= small.Acct.Time {
		t.Fatal("time did not grow with n")
	}
	if large.Acct.MaxProcs <= small.Acct.MaxProcs {
		t.Fatal("processor demand did not grow with n")
	}
}

func TestBandedUsesFarLessWorkThanDense(t *testing.T) {
	in := problems.Balanced(48)
	dense := Solve(in, Options{Variant: Dense, MaxIterations: 2})
	banded := Solve(in, Options{Variant: Banded, MaxIterations: 2})
	if banded.Acct.Work*4 > dense.Acct.Work {
		t.Fatalf("banded work %d not clearly below dense %d", banded.Acct.Work, dense.Acct.Work)
	}
}

func TestTinyInstances(t *testing.T) {
	// n=1: a single leaf; the answer is init(0) with no iterations needed.
	in := &recurrence.Instance{
		N:    1,
		Name: "single",
		Init: func(i int) costC { return 5 },
		F:    func(i, k, j int) costC { return 0 },
	}
	for name, opts := range allConfigs() {
		res := Solve(in, opts)
		if res.Cost() != 5 {
			t.Errorf("%s: n=1 cost = %d, want 5", name, res.Cost())
		}
	}
	// n=2: one forced split.
	in2 := problems.MatrixChain([]int{3, 4, 5})
	for name, opts := range allConfigs() {
		res := Solve(in2, opts)
		if res.Cost() != 60 {
			t.Errorf("%s: n=2 cost = %d, want 60", name, res.Cost())
		}
	}
}

func TestSmallBandStillCorrectWithBigBudget(t *testing.T) {
	// Any band radius yields a correct fixpoint given enough iterations,
	// because the banded pebble includes the direct combine (pure
	// bottom-up DP as a fallback). Only the 2*sqrt(n) *budget* needs the
	// full band.
	in := problems.Zigzag(18)
	want := seq.Solve(in).Table
	res := Solve(in, Options{Variant: Banded, BandRadius: 1, MaxIterations: 20})
	if !res.Table.Equal(want) {
		t.Fatal("band radius 1 with linear budget produced wrong table")
	}
}

func TestBandRadiusRecorded(t *testing.T) {
	in := problems.Balanced(16)
	res := Solve(in, Options{Variant: Banded})
	if res.BandRadius != 2*pebble.IsqrtCeil(16) {
		t.Fatalf("band radius = %d, want %d", res.BandRadius, 2*pebble.IsqrtCeil(16))
	}
	res = Solve(in, Options{Variant: Banded, BandRadius: 5})
	if res.BandRadius != 5 {
		t.Fatalf("band radius override = %d, want 5", res.BandRadius)
	}
	if Solve(in, Options{Variant: Dense}).BandRadius != 0 {
		t.Fatal("dense variant reported a band radius")
	}
}

func TestDefaultIterations(t *testing.T) {
	cases := map[int]int{1: 2, 2: 4, 4: 4, 9: 6, 16: 8, 100: 20}
	for n, want := range cases {
		if got := DefaultIterations(n); got != want {
			t.Errorf("DefaultIterations(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestOptionStrings(t *testing.T) {
	checks := map[string]string{
		Dense.String():           "dense",
		Banded.String():          "banded",
		Synchronous.String():     "sync",
		Chaotic.String():         "chaotic",
		FixedIterations.String(): "fixed",
		WStable.String():         "w-stable",
		WPWStable.String():       "wpw-stable",
	}
	for got, want := range checks {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// Property: on random instances every configuration agrees with the
// sequential DP, and under max-plus and bool-plan the dense engine's
// fixed 2*ceil(sqrt n) budget reaches the brute-force optimum.
func TestSolversAgreeProperty(t *testing.T) {
	cfgs := allConfigs()
	f := func(seed int64, nn uint8) bool {
		n := int(nn)%10 + 2
		in := problems.RandomInstance(n, 30, seed)
		want := seq.Solve(in).Table
		for _, opts := range cfgs {
			if !Solve(in, opts).Table.Equal(want) {
				return false
			}
		}
		for _, alg := range []string{algebra.NameMaxPlus, algebra.NameBoolPlan} {
			in.Algebra = alg
			if Solve(in, Options{Variant: Dense, Termination: FixedIterations}).Cost() != seq.BruteForce(in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: w' values are monotone upper bounds — at every recorded
// iteration the root estimate never undershoots the true optimum.
func TestMonotoneUpperBoundProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn)%10 + 3
		in := problems.RandomInstance(n, 30, seed)
		want := seq.Solve(in).Cost()
		// Run iteration by iteration by capping MaxIterations.
		budget := DefaultIterations(n)
		prevRoot := costInf()
		for it := 1; it <= budget; it++ {
			res := Solve(in, Options{Variant: Dense, MaxIterations: it})
			root := res.Cost()
			if root < want {
				return false // undershoot: impossible for feasible-tree weights
			}
			if root > prevRoot {
				return false // not monotone
			}
			prevRoot = root
		}
		return prevRoot == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
