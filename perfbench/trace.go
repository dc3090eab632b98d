package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sublineardp"
	"sublineardp/internal/algebra"
	"sublineardp/internal/blocked"
	"sublineardp/internal/cache"
	"sublineardp/internal/cost"
	"sublineardp/internal/wire"
)

// opID is the span ID of load-phase op i.
func opID[I int | int32](i I) string { return "op-" + strconv.Itoa(int(i)) }

// span is one traced interval. Spans of one request share ID (the op
// index "op-<i>" for load-phase spans, the wire request id for replayed
// ones); Parent indexes the span that caused this one, -1 for roots.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records s over [start, end] and returns its index.
func (t *tracer) add(s span, start, end time.Time) int {
	s.Start, s.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// wrapHandler records a serve.handle span around every op the load
// generator sends (requests without the op header, the warm-up, are not
// part of the load).
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := r.Header.Get(opHeader)
		start := time.Now()
		h.ServeHTTP(w, r)
		if op != "" {
			t.add(span{Name: "serve.handle", ID: "op-" + op, Parent: -1}, start, time.Now())
		}
	})
}

// byName indexes the spans of one name by ID.
func (t *tracer) byName(name string) map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := map[string]int{}
	for i, s := range t.spans {
		if s.Name == name {
			idx[s.ID] = i
		}
	}
	return idx
}

// linkHandles parents each serve.handle span on the request span of the
// same op.
func (t *tracer) linkHandles() {
	reqs := t.byName("request")
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == "serve.handle" {
			if p, ok := reqs[s.ID]; ok {
				s.Parent = p
			}
		}
	}
}

func (t *tracer) span(i int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i]
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// executeTraced runs the workload untraced and then traced, half the
// budget each on a fresh server or solver, measures the layers after
// the traced half, and reports the per-layer metrics.
func executeTraced(ctx context.Context, opt options, w workloadDef) (*outcome, error) {
	half := opt
	half.duration = opt.duration / 2
	bm, err := w.run(ctx, half, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced half: %w", err)
	}
	tr := newTracer()
	tm, err := w.run(ctx, half, tr)
	if err != nil {
		return nil, fmt.Errorf("traced half: %w", err)
	}
	base, traced := bm.base(), tm.base()

	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0
	}
	for e, c := range traced.routes {
		if _, ok := unitOf("root.route." + e); ok {
			out["root.route."+e] += float64(c)
		} else {
			out["root.route.other"] += float64(c)
		}
	}
	out["loadgen.gap_p99_ms"] = percentile(append([]float64(nil), traced.gaps...), 0.99)
	out["loadgen.samples"] = float64(len(traced.gaps))
	wrong, err := w.layers(ctx, opt, tm, tr, out)
	if err != nil {
		return nil, err
	}

	// Allocation counts come from the untraced half: spans allocate.
	ops := float64(base.attempted)
	out["runtime.ops"] = ops
	out["runtime.allocs_per_op"] = ratio(float64(base.mem.mallocs), ops)
	out["runtime.alloc_bytes_per_op"] = ratio(float64(base.mem.bytes), ops)
	out["runtime.gc_cycles"] = float64(base.mem.gcs)

	be, te := base.endToEndMetrics(), traced.endToEndMetrics()
	out["trace.overhead.latency_p50_ms"] = te["latency_p50_ms"] - be["latency_p50_ms"]
	out["trace.overhead.throughput_rps"] = te["throughput_rps"] - be["throughput_rps"]
	out["trace.overhead.cpu_ms_per_op"] = te["cpu_ms_per_op"] - be["cpu_ms_per_op"]
	tr.mu.Lock()
	out["trace.spans"] = float64(len(tr.spans))
	tr.mu.Unlock()
	if err := tr.write(opt.traceOut); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	res := &outcome{
		attempted: base.attempted + traced.attempted,
		failed:    base.failed + traced.failed,
		wrong:     base.wrong + traced.wrong + wrong,
		metrics:   out,
	}
	res.report = baseReport(opt, traced)
	res.report["untraced_end_to_end"] = be
	res.report["traced_end_to_end"] = te
	res.report["spans_file"] = opt.traceOut
	return res, nil
}

// replay is one distinct request run once more through the public
// functions of each layer, in the serving handler's order.
type replay struct {
	req                              *request
	decode, key, engine, rec, encode time.Duration
	engineName                       string
	n                                int
	in                               *sublineardp.Instance // interval kinds
	opts                             []sublineardp.Option
	table                            *sublineardp.Table
	stats                            sublineardp.PoolStats
}

// replayRequest runs wire.decode → cache.key → engine.solve (auto) →
// root.reconstruct → wire.encode for r, recording each as a span under
// parent, and checks the re-encoded answer.
func replayRequest(ctx context.Context, r *request, tr *tracer, parent int) (*replay, error) {
	rp := &replay{req: r}
	mark := func(name string, start time.Time) (time.Time, time.Duration) {
		end := time.Now()
		tr.add(span{Name: name, ID: r.wire.ID, Parent: parent, Replay: true}, start, end)
		return end, end.Sub(start)
	}

	t := time.Now()
	var req wire.Request
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if err := req.Validate(0); err != nil {
		return nil, err
	}
	opts, err := req.SolverOptions()
	if err != nil {
		return nil, err
	}
	chainKind := wire.IsChainKind(req.Kind)
	var c *sublineardp.Chain
	if chainKind {
		c, err = req.ChainInstance()
	} else {
		rp.in, err = req.Instance()
	}
	if err != nil {
		return nil, err
	}
	t, rp.decode = mark("wire.decode", t)

	// The serving key: canonical bytes plus the options signature (the
	// server's own signature format is private; this one has its shape).
	sig := fmt.Sprintf("%s|%+v|%v", sublineardp.EngineAuto, req.Options, req.ReturnSplits && !chainKind)
	var canon []byte
	label := "instance"
	if chainKind {
		canon, _ = c.Canonical()
		label, sig = "chain", "chain|"+sig
	} else {
		canon, _ = rp.in.Canonical()
	}
	_ = cache.NewHasher().Bytes(label, canon).String("opts", sig).Sum()
	t, rp.key = mark("cache.key", t)

	var resp *wire.Response
	if chainKind {
		s, err := sublineardp.NewChainSolver(sublineardp.ChainEngineAuto, opts...)
		if err != nil {
			return nil, err
		}
		sol, err := s.Solve(ctx, c)
		if err != nil {
			return nil, err
		}
		t, rp.engine = mark("engine.solve", t)
		rp.engineName, rp.n = "chain-"+sol.Engine, c.N
		if req.ReturnSplits {
			_, _ = sol.Path() // an infeasible chain has no path; the check below covers it
			t, rp.rec = mark("root.reconstruct", t)
		}
		resp = wire.NewChainResponse(&req, sol)
	} else {
		rp.opts = opts
		s, err := sublineardp.NewSolver(sublineardp.EngineAuto, opts...)
		if err != nil {
			return nil, err
		}
		sol, err := s.Solve(ctx, rp.in)
		if err != nil {
			return nil, err
		}
		t, rp.engine = mark("engine.solve", t)
		rp.engineName, rp.n, rp.table, rp.stats = sol.Engine, rp.in.N, sol.Table, sol.Stats
		if req.ReturnSplits {
			_, _ = sol.Tree() // an infeasible instance has no tree; the check below covers it
			t, rp.rec = mark("root.reconstruct", t)
		}
		resp = wire.NewResponse(&req, sol)
	}
	if _, err := json.Marshal(resp); err != nil {
		return nil, err
	}
	_, rp.encode = mark("wire.encode", t)
	return rp, checkAnswer(r, resp)
}

// serveLayers measures the per-layer metrics of a serving workload:
// counters from the server, handle spans from the load phase, and a
// replay of each distinct request the traced phase sent, in order of
// first use, until half the run's budget is spent.
func serveLayers(ctx context.Context, opt options, m measured, tr *tracer, out map[string]float64) (int, error) {
	run := m.(*serveRun)
	d := run.delta
	lookups := d.CacheHits + d.Coalesced + d.Solved
	out["cache.hits"], out["cache.coalesced"], out["cache.solved"] = float64(d.CacheHits), float64(d.Coalesced), float64(d.Solved)
	out["cache.lookups"] = float64(lookups)
	out["cache.hit_ratio"] = ratio(float64(d.CacheHits), float64(lookups))
	out["cache.coalesced_ratio"] = ratio(float64(d.Coalesced), float64(lookups))
	out["serve.batches"], out["serve.batch_instances"] = float64(d.Batches), float64(d.BatchInstances)
	out["serve.batch_size_mean"] = ratio(float64(d.BatchInstances), float64(d.Batches))
	out["serve.shed"], out["serve.timeouts"] = float64(d.RejectedFull), float64(d.Timeouts)

	tr.linkHandles()
	handleIdx := tr.byName("serve.handle")
	var handles []float64
	var order []int32 // distinct requests by first use
	firstOp := map[int32]int32{}
	for _, op := range run.ops {
		if !op.ok {
			continue
		}
		if hi, ok := handleIdx[opID(op.op)]; ok {
			handles = append(handles, ms(tr.span(hi).dur()))
		}
		if _, seen := firstOp[op.req]; !seen {
			firstOp[op.req] = op.op
			order = append(order, op.req)
		}
	}
	out["serve.handle_p50_ms"] = median(handles)
	out["wire.response_bytes"] = ratio(float64(run.respBytes), float64(run.attempted-run.failed))

	budget := opt.duration / 2
	start := time.Now()
	replays := map[int32]*replay{}
	wrong := 0
	for _, ri := range order {
		if len(replays) > 0 && time.Since(start) > budget {
			break
		}
		parent := -1
		if hi, ok := handleIdx[opID(firstOp[ri])]; ok {
			parent = hi
		}
		rp, err := replayRequest(ctx, run.reqs[ri], tr, parent)
		if rp == nil {
			return 0, fmt.Errorf("replay %s: %w", run.reqs[ri].wire.ID, err)
		}
		if err != nil {
			wrong++
			fmt.Fprintf(os.Stderr, "perfbench: replay %s: %v\n", run.reqs[ri].wire.ID, err)
		}
		replays[ri] = rp
	}

	var decode, key, encode, rec []float64
	engines := map[string][]float64{}
	// The largest matrix chain replayed is the T1/Tp and kernel probe: the
	// same kind, and so the same FPanel, as solve-large's.
	var probe *replay
	var stats sublineardp.PoolStats
	var statNs float64
	var statSolves int
	for _, ri := range order {
		rp := replays[ri]
		if rp == nil {
			continue
		}
		decode, key, encode = append(decode, us(rp.decode)), append(key, us(rp.key)), append(encode, us(rp.encode))
		if rp.req.wire.ReturnSplits {
			rec = append(rec, us(rp.rec))
		}
		engines[rp.engineName] = append(engines[rp.engineName], ms(rp.engine))
		if rp.req.wire.Kind == wire.KindMatrixChain && (probe == nil || rp.n > probe.n) {
			probe = rp
		}
		if rp.stats.Tasks > 0 {
			stats = addStats(stats, rp.stats)
			statNs += float64(rp.engine)
			statSolves++
		}
	}
	out["wire.samples"] = float64(len(decode))
	out["wire.decode_us"], out["wire.encode_us"] = median(decode), median(encode)
	out["cache.key_us"] = median(key)
	out["root.reconstruct_us"] = median(rec)
	for e, ds := range engines {
		if _, ok := unitOf("engine.solve_ms." + e); ok {
			out["engine.solve_ms."+e] = median(ds)
		}
	}

	// Self time: the handle span minus the replayed children of its
	// request — decode, key and encode always (encode already contains
	// the reconstruction NewResponse performs), the engine only for an
	// op that was solved rather than served from the cache or coalesced.
	var self []float64
	var busy, handled float64
	for _, op := range run.ops {
		rp := replays[op.req]
		hi, ok := handleIdx[opID(op.op)]
		if !op.ok || rp == nil || !ok {
			continue
		}
		h := tr.span(hi).dur()
		children := rp.decode + rp.key + rp.encode
		if !op.cached && !op.coalesced {
			children += rp.engine
			busy += ms(rp.engine)
		}
		handled += ms(h)
		self = append(self, ms(h-children))
	}
	out["serve.self_p50_ms"] = median(self)
	out["engine.busy_ms"], out["engine.handle_ms"] = busy, handled
	out["engine.share"] = ratio(busy, handled)

	setParutil(out, stats, statSolves, statNs)
	if probe != nil {
		t1, err := solveT1(ctx, probe.in, probe.opts, tr)
		if err != nil {
			return 0, err
		}
		setEfficiency(out, probe.n, t1, probe.engine)
		if err := probeKernels(probe.in, probe.table, tr, out); err != nil {
			return 0, err
		}
	}
	return wrong, nil
}

// largeLayers measures the per-layer metrics of solve-large: engine and
// scheduler numbers from the timed solves, T1 from one WithWorkers(1)
// solve, and the kernel probe on the same instance.
func largeLayers(ctx context.Context, _ options, m measured, tr *tracer, out map[string]float64) (int, error) {
	run := m.(*largeRun)
	for e, ds := range run.engines {
		if _, ok := unitOf("engine.solve_ms." + e); ok {
			out["engine.solve_ms."+e] = median(ds)
		}
	}
	busy := sum(run.solveNs)
	out["engine.busy_ms"], out["engine.handle_ms"] = busy/1e6, busy/1e6
	out["engine.share"] = ratio(busy, busy)
	setParutil(out, run.stats, len(run.solveNs), busy)
	t1, err := solveT1(ctx, run.in, nil, tr)
	if err != nil {
		return 0, err
	}
	tp := time.Duration(median(run.solveNs))
	setEfficiency(out, run.in.N, t1, tp)
	return 0, probeKernels(run.in, run.table, tr, out)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func addStats(a, b sublineardp.PoolStats) sublineardp.PoolStats {
	a.Tasks += b.Tasks
	a.Barriers += b.Barriers
	a.Steals += b.Steals
	a.IdleNs += b.IdleNs
	return a
}

// setParutil reports the scheduler counters of solves solves that took
// wallNs nanoseconds in total, with idle share against p·Tp.
func setParutil(out map[string]float64, st sublineardp.PoolStats, solves int, wallNs float64) {
	p := float64(procs())
	out["parutil.solves"] = float64(solves)
	out["parutil.tasks"], out["parutil.barriers"], out["parutil.steals"] = float64(st.Tasks), float64(st.Barriers), float64(st.Steals)
	out["parutil.idle_ns"] = float64(st.IdleNs)
	out["parutil.p_tp_ns"] = p * wallNs
	out["parutil.idle_share"] = ratio(float64(st.IdleNs), p*wallNs)
	out["parutil.procs"] = p
}

// setEfficiency reports T1, Tp and T1/(p·Tp) for one probe instance.
func setEfficiency(out map[string]float64, n int, t1, tp time.Duration) {
	out["engine.probe_n"] = float64(n)
	out["engine.t1_ms"], out["engine.tp_ms"] = ms(t1), ms(tp)
	out["parutil.efficiency"] = ratio(float64(t1), float64(procs())*float64(tp))
}

// solveT1 times one auto solve of in with a single worker.
func solveT1(ctx context.Context, in *sublineardp.Instance, opts []sublineardp.Option, tr *tracer) (time.Duration, error) {
	s, err := sublineardp.NewSolver(sublineardp.EngineAuto, append(append([]sublineardp.Option(nil), opts...), sublineardp.WithWorkers(1))...)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := s.Solve(ctx, in); err != nil {
		return 0, fmt.Errorf("T1 solve: %w", err)
	}
	end := time.Now()
	tr.add(span{Name: "engine.solve.t1", ID: "probe", Parent: -1}, start, end)
	return end.Sub(start), nil
}

// kernelProbeMin is the least time each kernel sweep is repeated for, so
// small probe instances still give a stable per-candidate rate.
const kernelProbeMin = 50 * time.Millisecond

// probeKernels times, single-threaded, the two halves of the blocked
// engine's inner loop over exactly the candidate runs its tiling reads
// (every split k of every row i, the j-run k+1..n cut at the tile edge
// blocked.EffectiveTileSize picks for this machine): Instance.FPanel
// filling each run, then algebra.MinPlus.RelaxSplitRow folding each run
// into a scratch copy of the solved table with one prefilled f row.
func probeKernels(in *sublineardp.Instance, tbl *sublineardp.Table, tr *tracer, out map[string]float64) error {
	n := in.N
	b := blocked.EffectiveTileSize(n, 0, procs())
	fbuf := make([]cost.Cost, b)
	runs := func(visit func(i, k, j0, m int)) int64 {
		var cands int64
		for i := 0; i < n-1; i++ {
			for k := i + 1; k < n; k++ {
				for j0 := k + 1; j0 <= n; {
					m := min((j0/b+1)*b, n+1) - j0
					visit(i, k, j0, m)
					cands += int64(m)
					j0 += m
				}
			}
		}
		return cands
	}
	timed := func(name string, visit func(i, k, j0, m int)) (time.Duration, int, int64) {
		start := time.Now()
		var reps int
		var cands int64
		for reps == 0 || time.Since(start) < kernelProbeMin {
			cands = runs(visit)
			reps++
		}
		end := time.Now()
		tr.add(span{Name: name, ID: "probe", Parent: -1}, start, end)
		return end.Sub(start), reps, cands
	}

	fgen, reps, cands := timed("problems.fpanel", func(i, k, j0, m int) {
		in.FPanel(i, k, j0, fbuf[:m])
	})
	want := int64(n-1) * int64(n) * int64(n+1) / 6
	if cands != want {
		return fmt.Errorf("kernel probe visited %d candidates, want (n-1)n(n+1)/6 = %d", cands, want)
	}

	data := append([]cost.Cost(nil), tbl.Data()...)
	stride := tbl.Stride()
	frow := make([]cost.Cost, b)
	in.FPanel(0, 1, 2, frow[:min(b, n-1)])
	var sr algebra.MinPlus
	fold, foldReps, _ := timed("algebra.relaxsplitrow", func(i, k, j0, m int) {
		sr.RelaxSplitRow(data, stride, i, k, j0, m, frow)
	})

	out["kernel.probe_n"], out["kernel.tile"], out["kernel.candidates"] = float64(n), float64(b), float64(cands)
	out["problems.fgen_ns"], out["algebra.fold_ns"] = float64(fgen), float64(fold)
	out["kernel.fgen_reps"], out["kernel.fold_reps"] = float64(reps), float64(foldReps)
	fgenPer := float64(fgen) / (float64(reps) * float64(cands))
	foldPer := float64(fold) / (float64(foldReps) * float64(cands))
	out["problems.fgen_ns_per_cand"], out["algebra.fold_ns_per_cand"] = fgenPer, foldPer
	out["kernel.fgen_share"] = ratio(fgenPer, fgenPer+foldPer)
	return nil
}
