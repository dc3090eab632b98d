package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sublineardp"
	"sublineardp/internal/calibrate"
	"sublineardp/internal/problems"
	"sublineardp/internal/wire"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func postSolve(t *testing.T, url string, req *wire.Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"dpserved_requests_total",
		"dpserved_cache_hits_total",
		"dpserved_solve_latency_seconds_bucket{le=\"+Inf\"}",
		"# TYPE dpserved_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestSolveMatchesDirectSolve(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	req := &wire.Request{
		ID:       "t-1",
		Kind:     wire.KindMatrixChain,
		Dims:     []int{30, 35, 15, 5, 10, 20, 25},
		WantTree: true,
	}
	resp, body := postSolve(t, hs.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.ID != "t-1" || wr.Kind != wire.KindMatrixChain {
		t.Fatalf("echo fields wrong: %+v", wr)
	}
	if wr.Cost != int64(problems.CLRSOptimalCost) {
		t.Fatalf("cost %d, want %d", wr.Cost, problems.CLRSOptimalCost)
	}
	direct, err := sublineardp.MustNewSolver(sublineardp.EngineAuto).
		Solve(context.Background(), problems.CLRSMatrixChain())
	if err != nil {
		t.Fatal(err)
	}
	if wr.TableDigest != wire.TableDigest(direct.Table) {
		t.Fatal("served table digest differs from direct solve")
	}
	if wr.Tree == "" {
		t.Fatal("want_tree set but no tree returned")
	}
	if m := srv.Metrics(); m.OK != 1 || m.Solved != 1 || m.CacheHits != 0 {
		t.Fatalf("metrics %+v, want 1 ok / 1 solved", m)
	}
}

func TestBadRequestsAre400(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxN: 8})
	cases := []*wire.Request{
		{Kind: "nope"},
		{Kind: wire.KindMatrixChain, Dims: []int{4}},
		{Kind: wire.KindOBST, Alpha: []int64{1}, Beta: []int64{1, 2}},
		{Kind: wire.KindMatrixChain, Dims: []int{1, 2, 3}, Options: wire.Options{Engine: "warp-drive"}},
		{Kind: wire.KindMatrixChain, Dims: []int{1, 2, 3}, Options: wire.Options{Mode: "frantic"}},
		// n=9 exceeds MaxN=8
		{Kind: wire.KindMatrixChain, Dims: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		// The retired alias of hlv-dense is an unknown engine.
		{Kind: wire.KindMatrixChain, Dims: []int{1, 2, 3}, Options: wire.Options{Engine: "semiring"}},
	}
	for i, req := range cases {
		resp, body := postSolve(t, hs.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s), want 400", i, resp.StatusCode, body)
		}
		var eb wire.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" || eb.Code != 400 {
			t.Errorf("case %d: malformed error body %s", i, body)
		}
	}
	// Malformed JSON entirely, and a valid request followed by garbage
	// or by a second request: a body is exactly one JSON value.
	raw := []string{
		"{nope",
		`{"kind":"matrixchain","dims":[2,3,4]} garbage`,
		`{"kind":"matrixchain","dims":[2,3,4]}{"kind":"nosuch"}`,
	}
	for _, body := range raw {
		resp, err := http.Post(hs.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if m := srv.Metrics(); m.BadRequests != int64(len(cases)+len(raw)) || m.OK != 0 {
		t.Errorf("metrics %+v, want %d bad requests", srv.Metrics(), len(cases)+len(raw))
	}
}

// TestResourcePolicyRejections pins the engine-aware admission policy:
// the superquadratic-memory engines — the O(n^4) hlv-dense and rytter,
// and hlv-banded with its Θ(n^3) deficit buffer — get the
// stricter MaxNHeavy size bound, and the per-request workers option is
// capped — both are single-request denial-of-service vectors otherwise.
func TestResourcePolicyRejections(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxNHeavy: 16, MaxWorkers: 8})
	bigDims := make([]int, 20) // n=19 > MaxNHeavy, fine for default engines
	for i := range bigDims {
		bigDims[i] = i + 2
	}
	rejected := []*wire.Request{
		{Kind: wire.KindMatrixChain, Dims: bigDims, Options: wire.Options{Engine: "hlv-dense"}},
		{Kind: wire.KindMatrixChain, Dims: bigDims, Options: wire.Options{Engine: "rytter"}},
		{Kind: wire.KindMatrixChain, Dims: bigDims, Options: wire.Options{Engine: "hlv-banded"}},
		{Kind: wire.KindMatrixChain, Dims: []int{2, 3, 4}, Options: wire.Options{Workers: 9}},
	}
	for i, req := range rejected {
		resp, body := postSolve(t, hs.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s), want 400", i, resp.StatusCode, body)
		}
	}
	accepted := []*wire.Request{
		// The banded engine is fine up to the cap itself (n=16)...
		{Kind: wire.KindMatrixChain, Dims: bigDims[:17], Options: wire.Options{Engine: "hlv-banded"}},
		// ...the same size as the rejections is fine on the
		// O(n^2)-memory blocked engine, which is exempt from the heavy
		// cap by design — it exists for big instances...
		{Kind: wire.KindMatrixChain, Dims: bigDims, Options: wire.Options{Engine: "blocked"}},
		// ...and a small instance is fine on a heavy engine.
		{Kind: wire.KindMatrixChain, Dims: []int{2, 3, 4}, Options: wire.Options{Engine: "hlv-dense", Workers: 8}},
	}
	for i, req := range accepted {
		resp, body := postSolve(t, hs.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("accepted case %d: status %d (%s), want 200", i, resp.StatusCode, body)
		}
	}
	if m := srv.Metrics(); m.BadRequests != int64(len(rejected)) || m.OK != int64(len(accepted)) {
		t.Errorf("metrics %+v, want %d rejections / %d ok", m, len(rejected), len(accepted))
	}
}

func TestCacheHitServedWithoutSolving(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	req := &wire.Request{Kind: wire.KindOBST,
		Alpha: []int64{1, 2, 1, 0, 1}, Beta: []int64{4, 2, 6, 3}}

	_, body1 := postSolve(t, hs.URL, req)
	resp2, body2 := postSolve(t, hs.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second solve: %d %s", resp2.StatusCode, body2)
	}
	var r1, r2 wire.Response
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Fatalf("cached flags: first %v second %v, want false/true", r1.Cached, r2.Cached)
	}
	if r1.Cost != r2.Cost || r1.TableDigest != r2.TableDigest {
		t.Fatal("cached response differs from solved response")
	}
	m := srv.Metrics()
	if m.Solved != 1 || m.CacheHits != 1 || m.BatchInstances != 1 {
		t.Fatalf("metrics %+v, want 1 solved / 1 hit / 1 batched instance", m)
	}
}

func TestDifferentOptionsDoNotShareCacheEntries(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	base := &wire.Request{Kind: wire.KindMatrixChain, Dims: []int{8, 3, 9, 4, 7, 2, 8}}
	banded := *base
	banded.Options = wire.Options{Engine: "hlv-banded", BandRadius: 3}
	_, b1 := postSolve(t, hs.URL, base)
	_, b2 := postSolve(t, hs.URL, &banded)
	var r1, r2 wire.Response
	json.Unmarshal(b1, &r1)
	json.Unmarshal(b2, &r2)
	if r2.Cached {
		t.Fatal("different options hit the same cache entry")
	}
	if r1.TableDigest != r2.TableDigest {
		t.Fatal("engines disagree on the table") // conformance would have caught this too
	}
	if m := srv.Metrics(); m.Solved != 2 || m.CacheHits != 0 {
		t.Fatalf("metrics %+v, want 2 solved / 0 hits", m)
	}
}

// "auto_large_cutoff" belonged to the retired three-tier auto engine.
// Old clients still send it: the request is admitted, and it keys, routes
// and answers exactly like its twin without the field — so the twin is a
// cache hit.
func TestRetiredLargeCutoffIsAcceptedAndIgnored(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	dims := make([]int, 81) // n = 80: the old default routed it to hlv-banded, 70 to blocked-pipe
	for i := range dims {
		dims[i] = (i*11)%17 + 2
	}
	plain := &wire.Request{Kind: wire.KindMatrixChain, Dims: dims}
	legacy := *plain
	legacy.Options.RetiredLargeCutoff = 70
	if body, _ := json.Marshal(&legacy); !bytes.Contains(body, []byte(`"options":{"auto_large_cutoff":70}`)) {
		t.Fatalf("legacy request does not carry the wire field: %s", body)
	}
	if optionsSig("auto", legacy.Options, false) != optionsSig("auto", plain.Options, false) {
		t.Fatal("the ignored field moved the option signature")
	}

	var rs [2]wire.Response
	for i, req := range []*wire.Request{&legacy, plain} {
		resp, body := postSolve(t, hs.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if rs[0].Cached || !rs[1].Cached {
		t.Fatalf("cached flags: legacy %v plain %v, want false/true", rs[0].Cached, rs[1].Cached)
	}
	if rs[0].Engine != sublineardp.EngineBlockedPipe {
		t.Errorf("legacy request ran %q, want %q", rs[0].Engine, sublineardp.EngineBlockedPipe)
	}
	if rs[0].Cost != rs[1].Cost || rs[0].TableDigest != rs[1].TableDigest {
		t.Fatalf("answers differ: %d/%s vs %d/%s", rs[0].Cost, rs[0].TableDigest, rs[1].Cost, rs[1].TableDigest)
	}
	if m := srv.Metrics(); m.Solved != 1 || m.CacheHits != 1 {
		t.Fatalf("metrics %+v, want 1 solved / 1 hit", m)
	}
}

func TestAdmissionQueueShedsWith503(t *testing.T) {
	// QueueDepth 1 behind a saturated pool: the slow solve occupies the
	// only admission slot while it holds the only pool slot, so a second
	// request is shed immediately.
	srv, hs := newTestServer(t, Config{QueueDepth: 1, Concurrency: 1})
	slow := goPost(http.DefaultClient, hs.URL, slowSequential())
	waitFor(t, "the slow solve to be admitted", func() bool { return srv.Metrics().QueueDepth == 1 })
	resp, body := postSolve(t, hs.URL, tinyMiss(0))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	if r := <-slow; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("slow solve: status %d, err %v: %s", r.code, r.err, r.body)
	}
	if m := srv.Metrics(); m.RejectedFull != 1 {
		t.Fatalf("metrics %+v, want 1 rejection", m)
	}
}

func TestRequestTimeoutIs504(t *testing.T) {
	// A banded solve of a big instance cannot finish in 1ms; the heavy
	// cap is raised so the request reaches the solve at all.
	srv, hs := newTestServer(t, Config{RequestTimeout: time.Millisecond, MaxNHeavy: 300})
	dims := make([]int, 301)
	for i := range dims {
		dims[i] = (i*37)%97 + 3
	}
	req := &wire.Request{Kind: wire.KindMatrixChain, Dims: dims,
		Options: wire.Options{Engine: "hlv-banded"}}
	resp, body := postSolve(t, hs.URL, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if m := srv.Metrics(); m.Timeouts != 1 {
		t.Fatalf("metrics %+v, want 1 timeout", m)
	}
}

func TestBatcherCoalescesAWindow(t *testing.T) {
	// Distinct instances arriving while a slow solve saturates the pool
	// must be folded into few SolveBatch dispatches, not one per request.
	srv, hs := newTestServer(t, Config{Concurrency: 1, MaxBatch: 64, hold: 150 * time.Millisecond})
	slow := goPost(http.DefaultClient, hs.URL, slowSequential())
	waitFor(t, "the slow solve to occupy the slot", func() bool {
		m := srv.Metrics()
		return m.BatchInflight == 1 && m.Batches == 1
	})
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &wire.Request{Kind: wire.KindMatrixChain,
				Dims: []int{i + 2, i + 3, i + 4, i + 5}}
			resp, body := postSolve(t, hs.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("req %d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	if r := <-slow; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("slow solve: status %d, err %v: %s", r.code, r.err, r.body)
	}
	// Counted past the slow solve's own batch.
	m := srv.Metrics()
	if m.Solved-1 != n || m.BatchInstances-1 != n {
		t.Fatalf("metrics %+v, want %d solved instances past the slow one", m, n)
	}
	if batches := m.Batches - 1; batches >= n/2 {
		t.Fatalf("%d batches for %d concurrent requests: batcher not coalescing", batches, n)
	}
}

// A calibration profile attached to the server (dpserved -calibration)
// re-routes auto solves by its measured thresholds — here a profile
// whose tiny cutoff pushes a modest request onto the pipelined tile
// engine the defaults would never choose at that size — while a request
// that sets the same knobs explicitly keeps its own values.
func TestCalibrationProfileRoutesAutoSolves(t *testing.T) {
	_, hs := newTestServer(t, Config{Calibration: &sublineardp.Calibration{
		Schema:     calibrate.Schema,
		AutoCutoff: 4,
		TileSize:   8,
	}})
	dims := make([]int, 21) // n = 20: sequential under default routing
	for i := range dims {
		dims[i] = (i*7)%13 + 1
	}

	resp, body := postSolve(t, hs.URL, &wire.Request{
		ID: "cal-1", Kind: wire.KindMatrixChain, Dims: dims,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wr wire.Response
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Engine != sublineardp.EngineBlockedPipe {
		t.Fatalf("calibrated auto solve ran %q, want %q", wr.Engine, sublineardp.EngineBlockedPipe)
	}

	resp, body = postSolve(t, hs.URL, &wire.Request{
		ID: "cal-2", Kind: wire.KindMatrixChain, Dims: dims,
		Options: wire.Options{AutoCutoff: 64},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Engine != sublineardp.EngineSequential {
		t.Fatalf("explicit auto_cutoff lost to the server profile: engine %q", wr.Engine)
	}
}

// checkIdentities asserts the /metrics identities on a quiescent server:
// every request resolved exactly once, every 200 is exactly one of
// hit / coalesced / solved, every solve went through one batch slot, and
// no batch instance is still counted in flight.
func checkIdentities(t *testing.T, m MetricsSnapshot) {
	t.Helper()
	if got := m.OK + m.ClientGone + m.RejectedFull + m.BadRequests + m.Timeouts + m.SolveErrors; got != m.Requests {
		t.Errorf("request identity broken: resolutions %d != requests %d (%+v)", got, m.Requests, m)
	}
	if m.CacheHits+m.Coalesced+m.Solved != m.OK {
		t.Errorf("200 identity broken: %+v", m)
	}
	if m.BatchInstances < m.Solved {
		t.Errorf("%d batched instances for %d solves", m.BatchInstances, m.Solved)
	}
	if m.BatchInflight != 0 || m.QueueDepth != 0 {
		t.Errorf("in-flight gauge %d, queue depth %d on a quiescent server", m.BatchInflight, m.QueueDepth)
	}
}

// tinyMiss is the i'th of a family of distinct small matrix chains.
func tinyMiss(i int) *wire.Request {
	return &wire.Request{Kind: wire.KindMatrixChain, Dims: []int{i + 2, i%7 + 3, i%5 + 4, i + 5}}
}

// slowSequential is one explicit sequential matrix-chain solve that
// holds a batch slot for a few hundred milliseconds.
func slowSequential() *wire.Request {
	dims := make([]int, 601)
	for i := range dims {
		dims[i] = (i*37)%97 + 3
	}
	return &wire.Request{Kind: wire.KindMatrixChain, Dims: dims,
		Options: wire.Options{Engine: sublineardp.EngineSequential}}
}

// reply is one /solve answer as a client saw it.
type reply struct {
	code int
	body []byte
	err  error
}

// goPost posts req from its own goroutine; the reply arrives on the
// returned channel.
func goPost(client *http.Client, url string, req *wire.Request) <-chan reply {
	out := make(chan reply, 1)
	go func() {
		body, _ := json.Marshal(req)
		resp, err := client.Post(url+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			out <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		out <- reply{code: resp.StatusCode, body: buf.Bytes(), err: err}
	}()
	return out
}

// checkReply checks a 200 answer to req against a direct solve, bit
// for bit.
func checkReply(t *testing.T, req *wire.Request, r reply) {
	t.Helper()
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("status %d, err %v: %s", r.code, r.err, r.body)
	}
	var wr wire.Response
	if err := json.Unmarshal(r.body, &wr); err != nil {
		t.Fatal(err)
	}
	if want, _ := directDigest(t, req); wr.TableDigest != want {
		t.Fatalf("served digest %s, direct solve %s", wr.TableDigest, want)
	}
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherHoldsOnlyWhileSaturated pins the work-conserving batcher
// in both regimes: on an idle pool every miss
// dispatches at once, and behind a saturated pool misses are held —
// but never past saturatedHoldCap, so a slow solve occupying the pool
// does not make unrelated small misses wait for it.
func TestBatcherHoldsOnlyWhileSaturated(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		srv, hs := newTestServer(t, Config{})
		const n = 20
		for i := 0; i < n; i++ {
			checkReply(t, tinyMiss(i), <-goPost(http.DefaultClient, hs.URL, tinyMiss(i)))
		}
		m := srv.Metrics()
		if m.Batches != n || m.Solved != n {
			t.Fatalf("metrics %+v, want %d batches for %d sequential misses", m, n, n)
		}
		if mean := m.BatchWaitSeconds / float64(m.Batches); mean >= 0.5e-3 {
			t.Fatalf("mean batch wait %.3f ms on an idle pool, want < 0.5 ms", mean*1e3)
		}
		checkIdentities(t, m)
	})

	t.Run("saturated", func(t *testing.T) {
		srv, hs := newTestServer(t, Config{Concurrency: 1})
		slowStart := time.Now()
		slowReply := goPost(http.DefaultClient, hs.URL, slowSequential())
		waitFor(t, "the slow solve to occupy the slot", func() bool {
			m := srv.Metrics()
			return m.BatchInflight == 1 && m.Batches == 1
		})
		before := srv.Metrics()

		const n = 8
		fired := time.Now()
		replies := make([]<-chan reply, n)
		for i := range replies {
			replies[i] = goPost(http.DefaultClient, hs.URL, tinyMiss(i))
		}
		got := make([]reply, n)
		for i, r := range replies {
			got[i] = <-r
		}
		missTime := time.Since(fired)
		for i := range got {
			checkReply(t, tinyMiss(i), got[i])
		}
		// Every batch opened while the slot was taken, so each was held
		// until the cap: a slot freed by a returning miss batch does not
		// end the hold while the slow solve still occupies the pool.
		mid := srv.Metrics()
		batches := mid.Batches - before.Batches
		if mean := (mid.BatchWaitSeconds - before.BatchWaitSeconds) / float64(batches); mean < saturatedHoldCap.Seconds() {
			t.Fatalf("mean wait %.3f ms over %d batches behind a saturated pool, want >= %v", mean*1e3, batches, saturatedHoldCap)
		}
		t.Logf("%d misses behind a saturated slot took %d batches", n, batches)

		if r := <-slowReply; r.err != nil || r.code != http.StatusOK {
			t.Fatalf("slow solve: status %d, err %v: %s", r.code, r.err, r.body)
		}
		if slowTime := time.Since(slowStart); missTime > slowTime/2 {
			t.Fatalf("the misses took %v behind a %v slow solve: they waited for it, not at most %v", missTime, slowTime, saturatedHoldCap)
		}
		m := srv.Metrics()
		if m.Solved != n+1 {
			t.Fatalf("metrics %+v, want %d solved", m, n+1)
		}
		checkIdentities(t, m)

		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		for _, want := range []string{
			"# TYPE dpserved_batch_inflight gauge\ndpserved_batch_inflight 0\n",
			"# TYPE dpserved_batch_wait_seconds_total counter\ndpserved_batch_wait_seconds_total ",
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("metrics exposition missing %q", want)
			}
		}
	})
}

// TestCloseDrainsHeldAndInFlightBatches closes a server while batches
// are in flight and held: a slow solve occupies the only slot while
// misses arrive behind it, under the default 2ms hold and with a long
// hold window that keeps every miss in the open batch. Every request
// must still resolve, Close must return, the counters must balance and
// no goroutine may outlive the server.
func TestCloseDrainsHeldAndInFlightBatches(t *testing.T) {
	// The shared pool's workers start on first use and persist; start
	// them before counting goroutines.
	directDigest(t, tinyMiss(0))
	cases := []struct {
		name string
		cfg  Config
		held bool // a long hold: every miss is still held at Close
	}{
		{"saturated", Config{Concurrency: 1}, false},
		{"window", Config{Concurrency: 1, hold: 300 * time.Millisecond}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			srv, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			client := &http.Client{Transport: &http.Transport{}}

			reqs := []*wire.Request{slowSequential(), tinyMiss(0), tinyMiss(1), tinyMiss(2), tinyMiss(3)}
			replies := make([]<-chan reply, len(reqs))
			for i, req := range reqs {
				replies[i] = goPost(client, hs.URL, req)
				if i == 0 {
					waitFor(t, "the slow solve to occupy the slot", func() bool { return srv.Metrics().BatchInflight == 1 })
				}
			}
			if tc.held {
				waitFor(t, "every request to be held", func() bool { return srv.Metrics().QueueDepth == int64(len(reqs)) })
			} else {
				// The misses are held for at most saturatedHoldCap, so
				// they may be held, in flight or answered at Close; the
				// slow solve is still in flight.
				waitFor(t, "every request to arrive", func() bool { return srv.Metrics().Requests == int64(len(reqs)) })
			}

			closed := make(chan struct{})
			go func() {
				srv.Close()
				close(closed)
			}()
			deadline := time.After(10 * time.Second)
			for _, r := range replies {
				select {
				case r := <-r:
					if r.err != nil || r.code != http.StatusOK && r.code/100 != 5 {
						t.Errorf("request resolved with status %d, err %v, want 200 or 5xx", r.code, r.err)
					}
				case <-deadline:
					t.Fatal("a request hung across Close")
				}
			}
			select {
			case <-closed:
			case <-deadline:
				t.Fatal("Close did not return")
			}
			hs.Close()
			client.CloseIdleConnections()
			checkIdentities(t, srv.Metrics())
			waitFor(t, "goroutines to settle", func() bool { return runtime.NumGoroutine() <= baseline+2 })
		})
	}
}
