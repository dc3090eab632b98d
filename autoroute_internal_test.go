package sublineardp

import (
	"testing"

	"sublineardp/internal/problems"
)

// The routing guard: uncalibrated or calibrated, auto resolves every
// shipped interval kind at every size up to 1024 to a production engine
// — sequential at or below the cutoff, the Knuth-Yao pruned engine for
// declared-convex min-plus above it, the pipelined tile engine
// otherwise. A size band routed to one of the paper's HLV iterations
// (seconds where the tiles take milliseconds) fails here.
func TestAutoRoutesOnlyToProductionEngines(t *testing.T) {
	ones := func(n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	dims := func(n int) []int {
		d := make([]int, n+1)
		for i := range d {
			d[i] = i%7 + 1
		}
		return d
	}
	kinds := []struct {
		name string
		make func(n int) *Instance // nil when the kind has no size-n instance
	}{
		{"matrixchain", func(n int) *Instance { return problems.MatrixChain(dims(n)) }},
		{"obst", func(n int) *Instance { return problems.OBST(ones(n), ones(n-1)) }},
		{"triangulation", func(n int) *Instance {
			if n < 2 {
				return nil
			}
			return problems.Triangulation(problems.RegularPolygon(n, 1000))
		}},
		{"worstchain", func(n int) *Instance { return problems.WorstCaseMatrixChain(dims(n)) }},
		{"boolsplit", func(n int) *Instance { return problems.ForbiddenSplits(n, nil) }},
	}
	cutoffs := []int{0, 1, 16, 64, 300} // 0 = the default Config

	for _, kind := range kinds {
		for n := 1; n <= 1024; n++ {
			in := kind.make(n)
			if in == nil {
				continue
			}
			if in.N != n {
				t.Fatalf("%s: built n=%d for size %d", kind.name, in.N, n)
			}
			for _, c := range cutoffs {
				var opts []Option
				cutoff := DefaultAutoCutoff
				if c > 0 {
					opts, cutoff = []Option{WithAutoCutoff(c)}, c
				}
				cfg := buildConfig(opts)
				want := EngineBlockedPipe
				switch {
				case n <= cutoff:
					want = EngineSequential
				case kind.name == "obst":
					want = EngineBlockedKY
				}
				if got := pickAutoName(in, &cfg); got != want {
					t.Fatalf("%s n=%d under cutoff %d routed to %q, want %q", kind.name, n, cutoff, got, want)
				}
			}
		}
	}
}
