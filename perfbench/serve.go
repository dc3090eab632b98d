package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sublineardp/internal/serve"
	"sublineardp/internal/wire"
)

// clientConns is the client connection count of both serving workloads:
// two, or one on a single-core machine, so the load generator never has
// more requests in flight than there are cores.
var clientConns = min(2, runtime.NumCPU())

// opHeader carries the op index to the traced run's handler wrapper.
const opHeader = "X-Perfbench-Op"

// harness is one in-process dpserved: serve.New with the default Config
// (uncalibrated auto routing), its Handler on a loopback listener, and
// clientConns HTTP clients that each keep one connection alive.
type harness struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	clients []*http.Client
	served  chan struct{} // closed when Serve returns
}

func startHarness(tr *tracer) (*harness, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var handler http.Handler = srv.Handler()
	if tr != nil {
		handler = tr.wrapHandler(handler)
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String() + "/solve",
		served: make(chan struct{}),
	}
	for range clientConns {
		h.clients = append(h.clients, &http.Client{
			Timeout: 90 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // always ErrServerClosed after close
	}()
	return h, nil
}

// close stops the listener, waits for in-flight handlers and the serve
// goroutine, then stops the batcher.
func (h *harness) close() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.hs.Shutdown(ctx); err != nil {
		h.hs.Close()
	}
	<-h.served
	h.srv.Close()
}

// warmupBody is the set-up op: the CLRS matrix chain, optimum 15125. It
// is no workload's request, so it never turns a workload miss into a hit.
var warmupBody = []byte(`{"id":"warmup","kind":"matrixchain","dims":[30,35,15,5,10,20,25]}`)

func (h *harness) warmup(ctx context.Context) error {
	status, body, err := h.post(ctx, h.clients[0], -1, warmupBody)
	if err != nil {
		return err
	}
	var resp wire.Response
	if status != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.Cost != 15125 {
		return fmt.Errorf("warm-up answered %d %s", status, body)
	}
	return nil
}

// setupServer measures set-up reps times — server construction,
// listener, and one warm-up op — keeping the last server for the run.
func setupServer(ctx context.Context, reps int, tr *tracer) (*harness, []float64, error) {
	var times []float64
	var h *harness
	for i := 0; i < reps; i++ {
		if h != nil {
			h.close()
		}
		start := time.Now()
		var err error
		if h, err = startHarness(tr); err != nil {
			return nil, nil, err
		}
		if err := h.warmup(ctx); err != nil {
			h.close()
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return h, times, nil
}

// servedOp is one checked op of a serving workload. Ops are numbered in
// the order clients took them; the number rides in opHeader.
type servedOp struct {
	op, req               int32
	lat                   float32 // ms from send to answer; +Inf when the op failed
	ok, cached, coalesced bool
}

// post sends one request through client and reads the whole answer.
func (h *harness) post(ctx context.Context, client *http.Client, op int, body []byte) (status int, answer []byte, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if op >= 0 {
		hreq.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	answer, err = io.ReadAll(resp.Body)
	return resp.StatusCode, answer, err
}

// clientLog is what one client of the closed loop saw.
type clientLog struct {
	ops       []servedOp
	gaps      []float64 // ms between an answer and the client's next send
	deferred  []deferredOp
	routes    map[string]int
	checked   map[int32][][]byte // request -> fragments of its checked answer
	failed    int
	wrong     int
	respBytes int64
	last      time.Time // when the client's last answer arrived
}

// deferredOp is an answer kept for checking after the loop because its
// reference was not solved beforehand.
type deferredOp struct {
	index  int // into clientLog.ops
	status int
	body   []byte
	err    error
}

// closedLoop runs clientConns clients, each sending the request next
// picks as soon as its previous one has answered, until opt.duration
// has passed; requests in flight at the deadline finish and count. An
// answer whose reference is ready is checked at once, between the
// client's requests; the others are kept for checkDeferred.
func closedLoop(ctx context.Context, h *harness, opt options, tr *tracer, reqs []*request,
	next func() (op, req int, ok bool)) []*clientLog {
	deadline := time.Now().Add(opt.duration)
	logs := make([]*clientLog, clientConns)
	var wg sync.WaitGroup
	for c := range logs {
		l := &clientLog{routes: map[string]int{}, checked: map[int32][][]byte{}}
		logs[c] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				op, ri, ok := next()
				if !ok {
					return
				}
				r := reqs[ri]
				sent := time.Now()
				if !l.last.IsZero() {
					l.gaps = append(l.gaps, ms(sent.Sub(l.last)))
				}
				status, body, err := h.post(ctx, h.clients[c], op, r.body)
				l.last = time.Now()
				if tr != nil {
					tr.add(span{Name: "request", ID: opID(op), Parent: -1}, sent, l.last)
				}
				l.ops = append(l.ops, servedOp{op: int32(op), req: int32(ri), lat: float32(ms(l.last.Sub(sent)))})
				if r.ref == nil {
					l.deferred = append(l.deferred, deferredOp{len(l.ops) - 1, status, body, err})
					continue
				}
				l.judge(opt, r, &l.ops[len(l.ops)-1], status, body, err)
			}
		}()
	}
	wg.Wait()
	return logs
}

// checkDeferred solves the missing references and checks the kept
// answers — outside the timed phase.
func (l *clientLog) checkDeferred(ctx context.Context, opt options, reqs []*request) error {
	for _, d := range l.deferred {
		op := &l.ops[d.index]
		r := reqs[op.req]
		if err := solveReference(ctx, r); err != nil {
			return fmt.Errorf("reference for %s: %w", r.wire.ID, err)
		}
		l.judge(opt, r, op, d.status, d.body, d.err)
	}
	l.deferred = nil
	return nil
}

// judge classifies one answer: transport errors and non-200 answers
// fail, and a 200 whose answer disagrees with the reference is wrong.
// A failed op's latency becomes +Inf: it misses every latency limit.
//
// A client decodes and fully checks the first answer it gets for each
// request (checkAnswer); a later answer to the same request must carry
// the same id, cost, table digest and reconstruction digest, which is a
// byte search instead of a decode, so checking stays a small share of
// the client's work.
func (l *clientLog) judge(opt options, r *request, op *servedOp, status int, body []byte, err error) {
	if opt.corrupt != nil {
		body = opt.corrupt(int(op.op), body)
	}
	var failure error
	switch {
	case err != nil:
		failure = err
	case status != http.StatusOK:
		failure = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	default:
		if want, seen := l.checked[op.req]; seen {
			for _, frag := range want {
				if !bytes.Contains(body, frag) {
					failure = fmt.Errorf("answer lacks %s", frag)
					break
				}
			}
		} else {
			var resp wire.Response
			if err := json.Unmarshal(body, &resp); err != nil {
				failure = fmt.Errorf("undecodable response: %w", err)
			} else if failure = checkAnswer(r, &resp); failure == nil {
				l.checked[op.req] = answerFragments(&resp)
			}
		}
		if failure != nil {
			l.wrong++
			break
		}
		op.ok = true
		op.cached = bytes.Contains(body, []byte(`"cached":true`))
		op.coalesced = bytes.Contains(body, []byte(`"coalesced":true`))
		engine := jsonString(body, "engine")
		if wire.IsChainKind(r.wire.Kind) {
			engine = "chain-" + engine
		}
		l.routes[engine]++
		l.respBytes += int64(len(body))
	}
	if failure != nil {
		l.failed++
		op.lat = float32(math.Inf(1))
		if l.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: op %d (%s): %v\n", op.op, r.wire.ID, failure)
		}
	}
}

// answerFragments are the byte strings every later answer to the same
// request must contain: its id, cost, table digest and, when it carries
// a reconstruction, the reconstruction's digest.
func answerFragments(resp *wire.Response) [][]byte {
	frags := [][]byte{
		fmt.Appendf(nil, `"id":%q`, resp.ID),
		fmt.Appendf(nil, `"cost":%d,`, resp.Cost),
		fmt.Appendf(nil, `"table_digest":%q`, resp.TableDigest),
	}
	if rec := resp.Reconstruction; rec != nil {
		frags = append(frags, []byte(`"reconstruction":{`))
		if rec.Digest != "" {
			frags = append(frags, fmt.Appendf(nil, `"digest":%q`, rec.Digest))
		}
	}
	return frags
}

// jsonString returns the string value of a top-level key of a compact
// JSON object without decoding it ("" when absent).
func jsonString(body []byte, key string) string {
	prefix := `"` + key + `":"`
	i := bytes.Index(body, []byte(prefix))
	if i < 0 {
		return ""
	}
	rest := body[i+len(prefix):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return ""
}

// serveRun is a serving workload's load phase, checked.
type serveRun struct {
	loadRun
	reqs      []*request
	ops       []servedOp // in op order
	respBytes int64
	delta     serve.MetricsSnapshot
}

// runServing runs one serving load phase: set-up, the timed closed
// loop, then the deferred reference solves and checks.
func runServing(ctx context.Context, opt options, tr *tracer, reqs []*request,
	next func() (op, req int, ok bool)) (*serveRun, error) {
	h, setup, err := setupServer(ctx, opt.scale.setupReps, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer h.close()

	before := h.srv.Metrics()
	m0, c0, start := readMem(), cpuTime(), time.Now()
	logs := closedLoop(ctx, h, opt, tr, reqs, next)
	c1, m1 := cpuTime(), readMem()
	after := h.srv.Metrics()

	run := &serveRun{reqs: reqs, delta: diffSnapshot(before, after)}
	run.setup = setup
	run.cpu = c1 - c0
	run.mem = diffMem(m0, m1)
	run.routes = map[string]int{}
	end := start
	for _, l := range logs {
		if err := l.checkDeferred(ctx, opt, reqs); err != nil {
			return nil, err
		}
		if l.last.After(end) {
			end = l.last
		}
		run.ops = append(run.ops, l.ops...)
		run.gaps = append(run.gaps, l.gaps...)
		run.failed += l.failed
		run.wrong += l.wrong
		run.respBytes += l.respBytes
		for e, c := range l.routes {
			run.routes[e] += c
		}
	}
	sort.Slice(run.ops, func(i, j int) bool { return run.ops[i].op < run.ops[j].op })
	run.attempted = len(run.ops)
	run.lat = make([]float64, len(run.ops))
	for i, op := range run.ops {
		run.lat[i] = float64(op.lat)
	}
	run.elapsed = end.Sub(start)
	run.rss = peakRSSMB()
	return run, nil
}

func diffSnapshot(a, b serve.MetricsSnapshot) serve.MetricsSnapshot {
	return serve.MetricsSnapshot{
		Requests: b.Requests - a.Requests, OK: b.OK - a.OK,
		ClientGone: b.ClientGone - a.ClientGone, RejectedFull: b.RejectedFull - a.RejectedFull,
		BadRequests: b.BadRequests - a.BadRequests, Timeouts: b.Timeouts - a.Timeouts,
		SolveErrors: b.SolveErrors - a.SolveErrors, CacheHits: b.CacheHits - a.CacheHits,
		Coalesced: b.Coalesced - a.Coalesced, Solved: b.Solved - a.Solved,
		Batches: b.Batches - a.Batches, BatchInstances: b.BatchInstances - a.BatchInstances,
	}
}

// mixKinds are the nine wire kinds serve-mix sends.
var mixKinds = []string{
	wire.KindMatrixChain, wire.KindOBST, wire.KindTriangulation, wire.KindWTriangulation,
	wire.KindWorstChain, wire.KindBoolSplit, wire.KindSegLS, wire.KindWIS, wire.KindSubsetSum,
}

// mixPool is serve-mix's distinct pool, indexed by popularity rank. Kind,
// size and return_splits are fixed functions of the rank, so every seed
// spreads the same shapes over the same ranks and only the instance
// values and the draw order change with the seed.
func mixPool(sc scale, seed int64) []*request {
	span := sc.mixMaxN - sc.mixMinN + 1
	return distinctRequests("mix", sc.mixPool, seed, func(r int) (string, int, bool) {
		return mixKinds[r%len(mixKinds)], sc.mixMinN + (r*37)%span, r%8 == 7
	})
}

// runMix is serve-mix: a closed loop over Zipf-distributed draws from
// the pool. The draws are taken in op order under a lock, so op i is the
// same request for a given seed whichever client sends it. The pool's
// references are solved before set-up, so every answer is checked
// inline.
func runMix(ctx context.Context, opt options, tr *tracer) (*serveRun, error) {
	sc := opt.scale
	reqs := mixPool(sc, opt.seed)
	for _, r := range reqs {
		if err := solveReference(ctx, r); err != nil {
			return nil, fmt.Errorf("reference for %s: %w", r.wire.ID, err)
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(opt.seed)), sc.mixZipfS, 1, uint64(len(reqs)-1))
	var mu sync.Mutex
	ops := 0
	return runServing(ctx, opt, tr, reqs, func() (int, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		ops++
		return ops - 1, int(zipf.Uint64()), true
	})
}

// midKinds is serve-midsize-miss's kind cycle: the four kinds that are
// not declared convex, which uncalibrated auto sends to hlv-banded for
// 64 < n <= 256, and one obst per cycle, which goes to blocked-ky.
var midKinds = []string{
	wire.KindMatrixChain, wire.KindTriangulation, wire.KindWorstChain, wire.KindBoolSplit,
	wire.KindOBST,
	wire.KindMatrixChain, wire.KindTriangulation, wire.KindWorstChain, wire.KindBoolSplit,
}

// midList is serve-midsize-miss's request list. Kind, size and
// return_splits are fixed functions of the position — sizes step through
// [midMinN, midMaxN] in a fixed permuted order, one in four requests
// asks for splits — so every seed sends the same shapes in the same
// order and only the instance values change with the seed.
func midList(sc scale, seed int64) []*request {
	span := sc.midMaxN - sc.midMinN + 1
	return distinctRequests("mid", sc.midList, seed, func(i int) (string, int, bool) {
		return midKinds[i%len(midKinds)], sc.midMinN + (i*41)%span, i%4 == 0
	})
}

// runMidsize is serve-midsize-miss: a closed loop over distinct requests.
func runMidsize(ctx context.Context, opt options, tr *tracer) (*serveRun, error) {
	reqs := midList(opt.scale, opt.seed)
	var next atomic.Int64
	return runServing(ctx, opt, tr, reqs, func() (int, int, bool) {
		i := int(next.Add(1) - 1)
		return i, i, i < len(reqs)
	})
}
