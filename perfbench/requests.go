package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"sublineardp"
	"sublineardp/internal/algebra"
	"sublineardp/internal/btree"
	"sublineardp/internal/cost"
	"sublineardp/internal/problems"
	"sublineardp/internal/wire"
	"sublineardp/internal/workload"
)

// request is one distinct wire request of a serving workload, with the
// reference answer it is checked against.
type request struct {
	wire wire.Request
	body []byte
	ref  *reference // nil until solveReference
}

// reference is the independent answer to one request: the sequential
// engine's cost and digest, plus what a reconstruction check needs.
type reference struct {
	cost   int64
	digest string
	in     *sublineardp.Instance // interval kinds
	chain  *sublineardp.Chain    // chain kinds
	kern   algebra.Kernel
}

// buildRequest renders one instance of kind at size n from the
// internal/workload and internal/problems generators.
func buildRequest(kind string, n int, seed int64) wire.Request {
	switch kind {
	case wire.KindMatrixChain, wire.KindWorstChain:
		return wire.Request{Kind: kind, Dims: workload.WorstCaseChainDims(n, seed)}
	case wire.KindOBST:
		m := n - 1
		beta := workload.Zipf(m, 1.07, 10_000, seed)
		alpha := make([]int64, m+1)
		rng := rand.New(rand.NewSource(seed + 1))
		for i := range alpha {
			alpha[i] = 1 + rng.Int63n(200)
		}
		return wire.Request{Kind: kind, Alpha: alpha, Beta: beta}
	case wire.KindTriangulation:
		pts := problems.RandomConvexPolygon(n, 1000, seed)
		wpts := make([]wire.Point, len(pts))
		for i, p := range pts {
			wpts[i] = wire.Point{X: p.X, Y: p.Y}
		}
		return wire.Request{Kind: kind, Points: wpts}
	case wire.KindWTriangulation:
		rng := rand.New(rand.NewSource(seed))
		ws := make([]int64, n+1)
		for i := range ws {
			ws[i] = 1 + rng.Int63n(100)
		}
		return wire.Request{Kind: kind, Weights: ws}
	case wire.KindBoolSplit:
		spans := workload.FeasibilitySpans(n, seed)
		forbidden := make([]wire.Span, len(spans))
		for i, s := range spans {
			forbidden[i] = wire.Span(s)
		}
		return wire.Request{Kind: kind, Count: n, Forbidden: forbidden}
	case wire.KindSegLS:
		xs, ys := problems.RandomSeries(n, seed)
		pts := make([]wire.Point, len(xs))
		for i := range xs {
			pts[i] = wire.Point{X: xs[i], Y: ys[i]}
		}
		return wire.Request{Kind: kind, Points: pts, Penalty: 500 + (seed%7)*250}
	case wire.KindWIS:
		starts, ends, weights := problems.RandomJobs(n, seed)
		return wire.Request{Kind: kind, Starts: starts, Ends: ends, Weights: weights}
	case wire.KindSubsetSum:
		return wire.Request{Kind: kind, Target: int64(n), Items: workload.CoinSystem(int64(n), seed)}
	}
	panic("perfbench: no generator for kind " + kind)
}

// distinctRequests builds count requests whose kind, size and
// return_splits flag come from shape(i) and whose values come from the
// seed. A request whose instance repeats an earlier one is regenerated
// from the next value seed, so every request is a distinct cache entry.
func distinctRequests(prefix string, count int, seed int64, shape func(i int) (kind string, n int, splits bool)) []*request {
	seen := make(map[string]bool, count)
	reqs := make([]*request, count)
	for i := range reqs {
		kind, n, splits := shape(i)
		vseed := seed*1_000_003 + int64(i)*7919
		for {
			w := buildRequest(kind, n, vseed)
			w.ReturnSplits = splits
			key, err := json.Marshal(w)
			if err != nil {
				panic(err) // plain data: cannot fail
			}
			if seen[string(key)] {
				vseed++
				continue
			}
			seen[string(key)] = true
			w.ID = fmt.Sprintf("%s-%04d", prefix, i)
			body, err := json.Marshal(w)
			if err != nil {
				panic(err)
			}
			reqs[i] = &request{wire: w, body: body}
			break
		}
	}
	return reqs
}

// solveReference computes r.ref with the sequential engines — a
// different engine from the one auto picks for every request the
// workloads send, so the check is independent of the served path.
func solveReference(ctx context.Context, r *request) error {
	if r.ref != nil {
		return nil
	}
	if err := r.wire.Validate(0); err != nil {
		return err
	}
	if wire.IsChainKind(r.wire.Kind) {
		c, err := r.wire.ChainInstance()
		if err != nil {
			return err
		}
		s, err := sublineardp.NewChainSolver(sublineardp.ChainEngineSequential)
		if err != nil {
			return err
		}
		sol, err := s.Solve(ctx, c)
		if err != nil {
			return err
		}
		k, err := algebra.Resolve(nil, c.Algebra)
		if err != nil {
			return err
		}
		r.ref = &reference{cost: int64(sol.Cost()), digest: wire.VectorDigest(sol.Values), chain: c, kern: k}
		return nil
	}
	in, err := r.wire.Instance()
	if err != nil {
		return err
	}
	s, err := sublineardp.NewSolver(sublineardp.EngineSequential)
	if err != nil {
		return err
	}
	sol, err := s.Solve(ctx, in)
	if err != nil {
		return err
	}
	k, err := algebra.Resolve(nil, in.Algebra)
	if err != nil {
		return err
	}
	r.ref = &reference{cost: int64(sol.Cost()), digest: wire.TableDigest(sol.Table), in: in, kern: k}
	return nil
}

// checkAnswer compares a decoded response with the reference: cost and
// table digest always, and for return_splits requests that the returned
// tree or path is well formed, matches its own digest and costs the
// optimum (or, on an infeasible instance, that no path was returned).
func checkAnswer(r *request, resp *wire.Response) error {
	ref := r.ref
	if resp.Kind != r.wire.Kind || resp.ID != r.wire.ID {
		return fmt.Errorf("response for %s/%s, want %s/%s", resp.Kind, resp.ID, r.wire.Kind, r.wire.ID)
	}
	if resp.Cost != ref.cost {
		return fmt.Errorf("cost %d, reference %d", resp.Cost, ref.cost)
	}
	if resp.TableDigest != ref.digest {
		return fmt.Errorf("table digest %.12s…, reference %.12s…", resp.TableDigest, ref.digest)
	}
	if !r.wire.ReturnSplits {
		return nil
	}
	rec := resp.Reconstruction
	if rec == nil {
		return errors.New("return_splits response without reconstruction")
	}
	optimum := ref.kern.Norm(cost.Cost(ref.cost))
	if ref.kern.IsZero(optimum) {
		if rec.Error == "" {
			return errors.New("reconstruction of an infeasible instance")
		}
		return nil
	}
	if rec.Error != "" {
		return fmt.Errorf("reconstruction failed: %s", rec.Error)
	}
	var got cost.Cost
	if ref.chain != nil {
		if rec.Digest != wire.PathDigest(rec.Path) {
			return errors.New("path digest does not match the path")
		}
		c, err := pathCost(ref.chain, ref.kern, rec.Path)
		if err != nil {
			return err
		}
		got = c
	} else {
		tr, err := btree.Parse(rec.Tree)
		if err != nil {
			return fmt.Errorf("tree: %w", err)
		}
		if rec.Digest != wire.TreeDigest(tr) {
			return errors.New("tree digest does not match the tree")
		}
		if tr.N != ref.in.N {
			return fmt.Errorf("tree over %d leaves, instance has %d", tr.N, ref.in.N)
		}
		got = treeCost(ref.in, ref.kern, tr)
	}
	if ref.kern.Norm(got) != optimum {
		return fmt.Errorf("reconstruction costs %d, optimum %d", got, optimum)
	}
	return nil
}

// treeCost evaluates a parenthesization under the instance's algebra.
func treeCost(in *sublineardp.Instance, k algebra.Kernel, t *btree.Tree) cost.Cost {
	acc := k.One()
	for v := int32(0); v < int32(t.Len()); v++ {
		i, j := t.Span(v)
		if t.IsLeaf(v) {
			acc = k.Extend(acc, in.Init(i))
		} else {
			acc = k.Extend(acc, in.F(i, t.Split(v), j))
		}
	}
	return acc
}

// pathCost evaluates a chain breakpoint path under the chain's algebra.
func pathCost(c *sublineardp.Chain, k algebra.Kernel, path []int) (cost.Cost, error) {
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != c.N {
		return 0, fmt.Errorf("path %v does not run from 0 to %d", path, c.N)
	}
	acc := k.One()
	for t := 1; t < len(path); t++ {
		a, b := path[t-1], path[t]
		if a >= b || a < c.Lo(b) {
			return 0, fmt.Errorf("path step %d→%d is not a candidate", a, b)
		}
		acc = k.Extend(acc, c.F(a, b))
	}
	return acc, nil
}
