// Package serve is the HTTP serving layer over the Solver API — the
// front end cmd/dpserved mounts. One Server owns three cooperating
// mechanisms, each sized by a Config knob whose mapping onto the paper's
// processor-count model is documented in DESIGN.md:
//
//   - admission control: a bounded in-flight budget (QueueDepth). A
//     request either takes a slot immediately or is shed with 503, so
//     overload degrades by rejecting early instead of queueing without
//     bound; admitted requests run under a server deadline
//     (RequestTimeout) joined with the client's own disconnect.
//   - a canonical-instance cache with single-flight dedup: requests are
//     content-addressed by the instance's canonical encoding plus the
//     solving options, so a resident solution answers without touching
//     the pool and identical in-flight requests fold into one solve.
//   - a work-conserving batcher: a cache-missing flight dispatches as
//     soon as the pool has a free slot (fewer than Concurrency instances
//     in flight); only while the pool is saturated do misses collect,
//     and the collected batch dispatches as one batch call per options
//     signature when a slot frees, or after at most 2ms. Arrival
//     concurrency becomes batch-level parallelism instead of goroutine
//     oversubscription, and an idle pool never makes a miss wait.
//
// The three run once, for both recurrence classes. handleSolve selects
// the request's class — interval (SolveBatch) or chain
// (SolveChainBatch) — and from there on the class is a descriptor the
// one protocol consults: its engine registry, instance builder, cache
// store and key domain, batch function and response builder.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sublineardp"
	"sublineardp/internal/cache"
	"sublineardp/internal/wire"
)

// Config sizes the serving layer. The zero value serves with the
// defaults noted per field.
type Config struct {
	// Engine is the registry engine used when a request names none
	// (default "auto").
	Engine string
	// MaxN rejects instances larger than this with 400 (default 4096;
	// negative = unbounded). It bounds per-request memory for the
	// engines auto routes to, whose working set is O(n^2).
	MaxN int
	// MaxNHeavy is the stricter size bound for the superquadratic-memory
	// engines a request may name explicitly — hlv-dense and rytter
	// (O(n^4) partial-weight arrays) and hlv-banded, whose
	// deficit buffer is Θ(n^3) cells (default 64; negative = unbounded).
	// Without it one request for hlv-dense at n=256 would try to
	// allocate ~70 GB, and one for hlv-banded at n=1024 ~16 GB.
	MaxNHeavy int
	// MaxWorkers caps the per-request workers option (default 256;
	// negative = unbounded). Workers beyond the pool width spawn
	// transient goroutines, so an unbounded client value is a
	// goroutine-exhaustion vector.
	MaxWorkers int
	// QueueDepth is the admission budget: how many requests may be past
	// admission at once (default 256). The full queue sheds with 503.
	QueueDepth int
	// MaxBatch caps instances per SolveBatch dispatch (default 32).
	MaxBatch int
	// Concurrency bounds how many instances one SolveBatch dispatch
	// solves at once (default GOMAXPROCS, see SolveBatch). The batcher
	// counts the same number of pool slots, capped at Pool.Workers()
	// when Pool is set: an open batch dispatches at once while a slot is
	// free, and holds — gathering misses — only while every slot is
	// busy, until a slot frees, MaxBatch fills, the server closes or
	// saturatedHoldCap (2ms) passes. The cap bounds what a miss can wait
	// behind an unrelated slow solve.
	Concurrency int
	// CacheCapacity is the solution LRU size in entries (default 4096;
	// negative disables caching and single-flight entirely).
	CacheCapacity int
	// RequestTimeout is the server-side deadline per admitted request
	// (default 30s; negative = none).
	RequestTimeout time.Duration
	// Pool is the worker pool every batch dispatches onto (nil = the
	// process-wide shared pool).
	Pool *sublineardp.Pool
	// Calibration, when non-nil, is the machine-local profile written by
	// `dpbench -calibrate`: its measured auto-routing cutoff and tile
	// size apply to every solve, with knobs a request sets explicitly
	// still winning (see sublineardp.WithCalibration).
	Calibration *sublineardp.Calibration

	// hold bounds how long a batch is held behind a saturated pool
	// (default saturatedHoldCap). Tests lengthen it to make a held batch
	// observable.
	hold time.Duration
}

func (c Config) withDefaults() Config {
	if c.Engine == "" {
		c.Engine = sublineardp.EngineAuto
	}
	if c.MaxN == 0 {
		c.MaxN = 4096
	}
	if c.MaxNHeavy == 0 {
		c.MaxNHeavy = 64
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 4096
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.hold <= 0 {
		c.hold = saturatedHoldCap
	}
	return c
}

// Server is the serving layer. Build with New, mount Handler, Close when
// done.
type Server struct {
	cfg Config
	met *metrics

	// One descriptor per recurrence class, each owning its own cache
	// store (nil when caching is disabled): the two classes can never
	// collide on an entry.
	interval *class[sublineardp.Instance, sublineardp.Solution]
	chain    *class[sublineardp.Chain, sublineardp.ChainSolution]

	slots   chan struct{} // admission tokens; buffered to QueueDepth
	batchCh chan *task
	// freed wakes a batcher holding a batch behind a saturated pool: a
	// group whose batch call returned signals it without blocking.
	freed chan struct{}

	done    chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup
}

// task is one cache-missing solve on its way through the batcher.
type task struct {
	class  recurrenceClass // solves the group the task lands in
	item   any             // the class's item: *Instance or *Chain
	engine string
	opts   []sublineardp.Option
	sig    string // class-tagged options signature: tasks with equal sig share a batch call
	ctx    context.Context
	res    chan taskResult
}

type taskResult struct {
	sol any // the class's solution: *Solution or *ChainSolution
	err error
}

// New validates the configuration and starts the batcher.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, ok := sublineardp.LookupEngine(cfg.Engine); !ok {
		return nil, fmt.Errorf("serve: unknown default engine %q (registered: %v)",
			cfg.Engine, sublineardp.Engines())
	}
	s := &Server{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.QueueDepth),
		batchCh: make(chan *task),
		freed:   make(chan struct{}, 1),
		done:    make(chan struct{}),
		interval: &class[sublineardp.Instance, sublineardp.Solution]{
			domain:        "instance",
			engineNoun:    "engine",
			defaultEngine: cfg.Engine,
			lookup:        known(sublineardp.LookupEngine),
			engines:       sublineardp.Engines,
			heavyEngines:  heavyMemoryEngines,
			keySplits:     true,
			build:         (*wire.Request).Instance,
			canon:         (*sublineardp.Instance).Canonical,
			solveBatch:    sublineardp.SolveBatch,
			respond:       wire.NewResponse,
		},
		chain: &class[sublineardp.Chain, sublineardp.ChainSolution]{
			domain:        "chain",
			sigPrefix:     "chain|",
			engineNoun:    "chain engine",
			defaultEngine: sublineardp.ChainEngineAuto,
			lookup:        known(sublineardp.LookupChainEngine),
			engines:       sublineardp.ChainEngines,
			build:         (*wire.Request).ChainInstance,
			canon:         (*sublineardp.Chain).Canonical,
			solveBatch:    sublineardp.SolveChainBatch,
			respond:       wire.NewChainResponse,
		},
	}
	entries := func() int { return 0 }
	if cfg.CacheCapacity > 0 {
		s.interval.store = cache.NewStore[sublineardp.Solution](cfg.CacheCapacity)
		s.chain.store = cache.NewStore[sublineardp.ChainSolution](cfg.CacheCapacity)
		entries = func() int { return s.interval.store.Len() + s.chain.store.Len() }
	}
	s.met = newMetrics(entries)
	s.wg.Add(1)
	go s.batcher()
	return s, nil
}

// Close stops accepting new work and waits for the batcher to drain.
func (s *Server) Close() {
	if s.closing.CompareAndSwap(false, true) {
		close(s.done)
	}
	s.wg.Wait()
}

// Metrics returns the counter surface (for tests and embedding).
func (s *Server) Metrics() MetricsSnapshot { return s.snapshot() }

// MetricsSnapshot is a point-in-time copy of the serving counters.
type MetricsSnapshot struct {
	Requests, OK                          int64
	ClientGone, RejectedFull, BadRequests int64
	Timeouts, SolveErrors                 int64
	CacheHits, Coalesced, Solved          int64
	Batches, BatchInstances               int64
	QueueDepth                            int64
	// BatchInflight is the instances of dispatched batch calls that have
	// not returned yet: the pool's occupancy as the batcher counts it.
	BatchInflight int64
	// BatchWaitSeconds sums, over dispatches, the time from a batch's
	// first task reaching the batcher to the batch's dispatch.
	BatchWaitSeconds float64
}

func (s *Server) snapshot() MetricsSnapshot {
	m := s.met
	return MetricsSnapshot{
		Requests: m.requests.Load(), OK: m.ok.Load(),
		ClientGone: m.clientGone.Load(), RejectedFull: m.rejectedFull.Load(),
		BadRequests: m.badRequests.Load(), Timeouts: m.timeouts.Load(),
		SolveErrors: m.solveErrors.Load(), CacheHits: m.cacheHits.Load(),
		Coalesced: m.coalesced.Load(), Solved: m.solved.Load(),
		Batches: m.batches.Load(), BatchInstances: m.batchSolves.Load(),
		QueueDepth: m.queueDepth.Load(), BatchInflight: m.batchInflight.Load(),
		BatchWaitSeconds: time.Duration(m.batchWaitNs.Load()).Seconds(),
	}
}

// Handler returns the HTTP surface: POST /solve, GET /healthz,
// GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.met.write(w)
	})
	return mux
}

const maxBodyBytes = 8 << 20

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.met.requests.Add(1)

	var req wire.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// One JSON value per body: trailing whitespace only.
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the request object")
		}
	}
	if err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
		return
	}
	if err := req.Validate(s.cfg.MaxN); err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The request's recurrence class is selected once: everything below
	// is the one protocol, consulting the class's descriptor.
	var c recurrenceClass = s.interval
	if wire.IsChainKind(req.Kind) {
		c = s.chain
	}
	engine, err := c.engine(req.Engine())
	if err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Engine-aware resource policy: the superquadratic-memory engines
	// get a stricter size bound, and the workers option is capped — both
	// are single-request denial-of-service vectors otherwise.
	if c.heavy(engine) && s.cfg.MaxNHeavy > 0 && req.N() > s.cfg.MaxNHeavy {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("engine %q has a superquadratic working set: instance size n=%d exceeds the server limit n=%d for it",
				engine, req.N(), s.cfg.MaxNHeavy))
		return
	}
	if s.cfg.MaxWorkers > 0 && req.Options.Workers > s.cfg.MaxWorkers {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("workers=%d exceeds the server limit %d", req.Options.Workers, s.cfg.MaxWorkers))
		return
	}
	opts, err := req.SolverOptions()
	if err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.cfg.Calibration != nil {
		// Fill-if-unset semantics: the machine profile supplies routing
		// cutoff and tile size only where the request did not.
		opts = append(opts, sublineardp.WithCalibration(s.cfg.Calibration))
	}
	run, err := c.prepare(s, &req, engine, opts)
	if err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Admission: take an in-flight slot or shed immediately.
	select {
	case s.slots <- struct{}{}:
		s.met.queueDepth.Add(1)
		defer func() {
			<-s.slots
			s.met.queueDepth.Add(-1)
		}()
	default:
		s.met.rejectedFull.Add(1)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("admission queue full (%d in flight)", s.cfg.QueueDepth))
		return
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	resp, route, err := run(ctx)
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// The client is gone; nothing useful can be written.
			s.met.clientGone.Add(1)
		case errors.Is(err, context.DeadlineExceeded):
			s.met.timeouts.Add(1)
			writeError(w, http.StatusGatewayTimeout, err)
		case errors.Is(err, context.Canceled):
			s.met.clientGone.Add(1)
		default:
			s.met.solveErrors.Add(1)
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	resp.Cached = route == cache.Hit
	resp.Coalesced = route == cache.Coalesced
	resp.ElapsedMicros = time.Since(start).Microseconds()
	// Marshal before counting: a request must resolve as exactly one of
	// ok / clientGone / shed / rejected / timeout / solveError for the
	// /metrics identity to balance, so the ok and hit/coalesced/solved
	// counters only move once the response bytes are actually written.
	blob, err := json.Marshal(resp)
	if err != nil {
		s.met.solveErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(blob, '\n')); err != nil {
		s.met.clientGone.Add(1)
		return
	}
	s.met.ok.Add(1)
	s.met.observeLatency(time.Since(start).Seconds())
	switch route {
	case cache.Hit:
		s.met.cacheHits.Add(1)
	case cache.Coalesced:
		s.met.coalesced.Add(1)
	default:
		s.met.solved.Add(1)
	}
}

// heavyMemoryEngines names the built-ins whose working set grows faster
// than O(n^2) — the ones Config.MaxNHeavy bounds: hlv-dense and rytter
// hold O(n^4) partial-weight arrays, and hlv-banded
// holds sum over lengths L of tri(min(D, L-1)+1) deficit cells with
// D = 2*ceil(sqrt n), which is Θ(n^3) (16.5 GB at n=1024). The auto
// engine never routes to any of them. The blocked engines are
// deliberately exempt: their O(n^2) table is the same memory class MaxN
// already bounds, so explicit "blocked" requests serve the full
// n <= MaxN range — that is the engine large instances are meant to
// name (TestResourcePolicyRejections pins the exemption).
var heavyMemoryEngines = map[string]bool{
	sublineardp.EngineHLVDense:  true,
	sublineardp.EngineHLVBanded: true,
	sublineardp.EngineRytter:    true,
}

// recurrenceClass is what the one serving protocol asks of a request's
// recurrence class; class implements it for the interval and the chain
// class alike.
type recurrenceClass interface {
	// engine resolves a request's engine name ("" = the class default)
	// against the class's registry.
	engine(name string) (string, error)
	// heavy reports that Config.MaxNHeavy bounds the named engine.
	heavy(engine string) bool
	// prepare builds the request's item and returns the run that answers
	// it through the cache → single-flight → batcher protocol.
	prepare(s *Server, req *wire.Request, engine string, opts []sublineardp.Option) (func(context.Context) (*wire.Response, cache.Via, error), error)
	// batch solves one options-signature group of the class's items in
	// one batch call. The result has one slot per item, nil where the
	// item failed.
	batch(ctx context.Context, items []any, opts []sublineardp.Option) ([]any, error)
}

// class is the descriptor of one recurrence class, over its item type I
// (Instance, Chain) and solution type S (Solution, ChainSolution):
// everything in which serving an interval request and a chain request
// differ.
type class[I, S any] struct {
	domain        string // cache-key domain tag over the canonical bytes
	sigPrefix     string // keeps the class's batch groups (and keys) apart
	engineNoun    string // "engine" / "chain engine", for errors
	defaultEngine string
	lookup        func(string) bool
	engines       func() []string
	heavyEngines  map[string]bool // nil: no engine of the class is heavy
	// keySplits: return_splits changes the solve (it records
	// reconstruction state), so it joins the signature. Chain
	// reconstruction reads the value vector and does not.
	keySplits  bool
	build      func(*wire.Request) (*I, error)
	canon      func(*I) ([]byte, bool)
	solveBatch func(context.Context, []*I, ...sublineardp.Option) ([]*S, error)
	respond    func(*wire.Request, *S) *wire.Response
	store      *cache.Store[S] // nil when caching is disabled
}

// known adapts a registry lookup to the membership test class needs.
func known[E any](lookup func(string) (E, bool)) func(string) bool {
	return func(name string) bool { _, ok := lookup(name); return ok }
}

func (c *class[I, S]) engine(name string) (string, error) {
	if name == "" {
		name = c.defaultEngine
	}
	if !c.lookup(name) {
		return "", fmt.Errorf("unknown %s %q (registered: %v)", c.engineNoun, name, c.engines())
	}
	return name, nil
}

func (c *class[I, S]) heavy(engine string) bool { return c.heavyEngines[engine] }

func (c *class[I, S]) prepare(s *Server, req *wire.Request, engine string, opts []sublineardp.Option) (func(context.Context) (*wire.Response, cache.Via, error), error) {
	item, err := c.build(req)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (*wire.Response, cache.Via, error) {
		sol, route, err := c.solve(ctx, s, item, engine, req, opts)
		if err != nil {
			return nil, route, err
		}
		return c.respond(req, sol), route, nil
	}, nil
}

// solve runs the cache → single-flight → batcher protocol for one
// admitted request. The store hands every caller a private shallow copy,
// so nothing downstream can mutate a cached entry.
func (c *class[I, S]) solve(ctx context.Context, s *Server, item *I, engine string, req *wire.Request, opts []sublineardp.Option) (*S, cache.Via, error) {
	sig := c.sigPrefix + optionsSig(engine, req.Options, c.keySplits && req.ReturnSplits)
	compute := func(ctx context.Context) (*S, error) {
		sol, err := s.submit(ctx, &task{class: c, item: item, engine: engine, opts: opts, sig: sig})
		if err != nil {
			return nil, err
		}
		return sol.(*S), nil
	}
	key, keyed := c.solveKey(item, sig)
	if c.store == nil || !keyed {
		sol, err := compute(ctx)
		return sol, cache.Computed, err
	}
	return c.store.Do(ctx, key, compute)
}

// solveKey content-addresses one request: the class's domain tag over
// the item's canonical bytes, plus the option signature. Every
// wire-buildable item is canonicalisable, so the bool is only false for
// exotic custom kinds.
func (c *class[I, S]) solveKey(item *I, sig string) (cache.Key, bool) {
	canon, ok := c.canon(item)
	if !ok {
		return cache.Key{}, false
	}
	return cache.NewHasher().Bytes(c.domain, canon).String("opts", sig).Sum(), true
}

func (c *class[I, S]) batch(ctx context.Context, items []any, opts []sublineardp.Option) ([]any, error) {
	typed := make([]*I, len(items))
	for i, item := range items {
		typed[i] = item.(*I)
	}
	sols, err := c.solveBatch(ctx, typed, opts...)
	out := make([]any, len(items))
	for i, sol := range sols {
		if sol != nil {
			out[i] = sol
		}
	}
	return out, err
}

// optionsSig renders the solving configuration of a request into the
// string that both content-addresses it (with the instance) and groups
// batcher tasks: tasks with equal signatures are safe to fold into one
// batch call. splits mirrors the root solveKey's RecordSplits keying: a
// split-recording solve carries reconstruction state a non-recording
// one does not, so the two never share a cache entry.
func optionsSig(engine string, o wire.Options, splits bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%s|%d|%d|%v|%d|%d|%d|%v",
		engine, o.Mode, o.Termination, o.Semiring, o.MaxIterations,
		o.BandRadius, o.Window, o.TileSize, o.Workers, o.AutoCutoff,
		splits)
	return b.String()
}

// submit hands a task to the batcher and waits for its result; the task
// runs under ctx.
func (s *Server) submit(ctx context.Context, t *task) (any, error) {
	t.ctx, t.res = ctx, make(chan taskResult, 1)
	select {
	case s.batchCh <- t:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		return nil, errors.New("server shutting down")
	}
	select {
	case r := <-t.res:
		return r.sol, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// saturatedHoldCap bounds how long the work-conserving batcher holds a
// batch behind a saturated pool: no miss waits longer for a slot than
// it did under the fixed 2ms window this policy replaced, however slow
// the solves occupying the pool are.
const saturatedHoldCap = 2 * time.Millisecond

// batcher collects tasks into batches and dispatches each
// asynchronously, so the next batch can collect while this one solves.
// The first task opens a batch and whatever is already queued joins it.
// The batch dispatches at once while fewer than width instances are in
// flight; on a saturated pool it keeps collecting until a slot frees,
// MaxBatch fills or the hold (saturatedHoldCap) passes. Close
// dispatches a held batch at once.
func (s *Server) batcher() {
	defer s.wg.Done()
	width := s.cfg.Concurrency
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if s.cfg.Pool != nil {
		width = min(width, s.cfg.Pool.Workers())
	}
	for {
		var first *task
		select {
		case first = <-s.batchCh:
		case <-s.done:
			return
		}
		opened := time.Now()
		batch := []*task{first}
		var timer *time.Timer // started when the batch first holds
	collect:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case t := <-s.batchCh:
				batch = append(batch, t)
				continue
			default:
			}
			if s.met.batchInflight.Load() < int64(width) {
				break collect
			}
			if timer == nil {
				timer = time.NewTimer(s.cfg.hold)
			}
			select {
			case t := <-s.batchCh:
				batch = append(batch, t)
			case <-s.freed:
				// A group returned: re-check the slot count.
			case <-timer.C:
				break collect
			case <-s.done:
				break collect
			}
		}
		if timer != nil {
			timer.Stop()
		}
		s.met.batchWaitNs.Add(int64(time.Since(opened)))
		s.met.batchInflight.Add(int64(len(batch)))
		s.wg.Add(1)
		go func(batch []*task) {
			defer s.wg.Done()
			s.runBatch(batch)
		}(batch)
	}
}

// runBatch partitions a batch by options signature and dispatches one
// batch call per group on the shared pool. The batch context is
// refcounted over the member tasks' contexts: it cancels only when every
// member has been abandoned, which is how a client disconnect propagates
// down to tile-level kernel abort without killing co-batched strangers.
func (s *Server) runBatch(batch []*task) {
	groups := make(map[string][]*task)
	for _, t := range batch {
		groups[t.sig] = append(groups[t.sig], t)
	}
	// Dispatch groups concurrently: signatures are independent solves,
	// and serialising them would head-of-line block a batch's small
	// requests behind an unrelated large batch.
	var gwg sync.WaitGroup
	for _, group := range groups {
		gwg.Add(1)
		go func(group []*task) {
			defer gwg.Done()
			s.runGroup(group)
		}(group)
	}
	gwg.Wait()
}

// runGroup dispatches one options-signature group as one batch call of
// its class. The class-tagged signature guarantees a group is
// homogeneous: its head task's class is the whole group's class. When
// the call returns, the group's instances leave the in-flight count
// before any result is delivered, and a held batch is woken.
func (s *Server) runGroup(group []*task) {
	bctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pending atomic.Int64
	pending.Store(int64(len(group)))
	stops := make([]func() bool, len(group))
	for i, t := range group {
		stops[i] = context.AfterFunc(t.ctx, func() {
			if pending.Add(-1) == 0 {
				cancel()
			}
		})
	}

	lead := group[0]
	opts := append(append([]sublineardp.Option(nil), lead.opts...),
		sublineardp.WithEngine(lead.engine),
		sublineardp.WithPool(s.cfg.Pool),
		sublineardp.WithConcurrency(s.cfg.Concurrency),
	)
	s.met.batches.Add(1)
	s.met.batchSolves.Add(int64(len(group)))

	items := make([]any, len(group))
	for i, t := range group {
		items[i] = t.item
	}
	sols, err := lead.class.batch(bctx, items, opts)
	s.met.batchInflight.Add(-int64(len(group)))
	select {
	case s.freed <- struct{}{}:
	default:
	}
	for _, stop := range stops {
		stop()
	}
	for i, t := range group {
		if sols[i] != nil {
			t.res <- taskResult{sol: sols[i]}
			continue
		}
		terr := t.ctx.Err()
		if terr == nil {
			terr = bctx.Err()
		}
		if terr == nil {
			terr = err
		}
		if terr == nil {
			terr = errors.New("solve produced no solution")
		}
		t.res <- taskResult{err: terr}
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(wire.ErrorBody{Error: err.Error(), Code: code})
}
