package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/errclass"
	"apbcc/internal/faults"
	"apbcc/internal/isa"
	"apbcc/internal/obs"
	"apbcc/internal/pack"
	"apbcc/internal/policy"
	"apbcc/internal/program"
	"apbcc/internal/report"
	"apbcc/internal/store"
	"apbcc/internal/workloads"
)

// Response headers carrying block metadata to the fetching device.
const (
	HeaderCodec = "X-Apcc-Codec" // codec the payload was compressed with
	HeaderWords = "X-Apcc-Words" // plain size in ERI32 words
	HeaderCRC   = "X-Apcc-Crc32" // IEEE CRC-32 of the plain block image
	HeaderCache = "X-Apcc-Cache" // hit | miss; "bypass" on word reads
	// HeaderWord and HeaderSource are set only on word-read responses
	// (?word=W&words=N): the span's first word index, and whether the
	// bytes came through the store's v3 group directory ("store") or by
	// slicing the entry's in-memory image ("memory").
	HeaderWord   = "X-Apcc-Word"
	HeaderSource = "X-Apcc-Source"
	// HeaderTrace and HeaderStages are only set when tracing is enabled:
	// the request's trace id (correlate with /debug/trace) and its
	// per-stage exclusive nanoseconds as "stage:ns;..." — everything but
	// the response write, which is still open when headers go out.
	HeaderTrace  = "X-Apcc-Trace"
	HeaderStages = "X-Apcc-Stages"
)

// Shared header values for the serving hot path. Assigning one of
// these straight into a response's header map costs nothing, where
// Header.Set allocates a fresh one-element slice per call. The slices
// are shared by every response, so they are immutable: replace a
// key's value, never append to it or write into it in place. Each is
// len == cap == 1, so even an append by a wrapping handler reallocates
// instead of writing into the shared array.
var (
	hdrOctetStream  = []string{"application/octet-stream"}
	hdrCacheHit     = []string{obs.OutcomeHit}
	hdrCacheMiss    = []string{obs.OutcomeMiss}
	hdrCacheBypass  = []string{"bypass"}
	hdrSourceStore  = []string{"store"}
	hdrSourceMemory = []string{"memory"}
)

// decimalHdrs holds the decimal header values of 0..len-1, which cover
// the word counts and word indices of every block in the suite. Values
// past the table are formatted per response.
var decimalHdrs = func() []string {
	out := make([]string, 1<<10)
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}()

// decimalHdr returns the header value for n, shared when n is in the
// table.
func decimalHdr(n int) []string {
	if n >= 0 && n < len(decimalHdrs) {
		return decimalHdrs[n : n+1 : n+1]
	}
	return []string{strconv.Itoa(n)}
}

// hexCRC renders a CRC-32 as the 8 lowercase hex digits of X-Apcc-Crc32.
func hexCRC(crc uint32) [8]byte {
	var be [4]byte
	var out [8]byte
	binary.BigEndian.PutUint32(be[:], crc)
	hex.Encode(out[:], be[:])
	return out
}

// maxAsmBody bounds POST /v1/pack request bodies.
const maxAsmBody = 1 << 20

// faultCacheCompute injects latency or transient errors into the L1
// miss compute, upstream of both the L2 read and the rebuild path.
var faultCacheCompute = faults.Register("service.cache-compute")

// retryCap bounds a single retry backoff sleep; with the default
// 2ms base the bounded schedule is ~2/4/8ms of jittered delay.
const retryCap = 50 * time.Millisecond

// Config sizes the serving subsystem. Zero values select defaults.
type Config struct {
	// CacheShards is the block-cache shard count (default 16).
	CacheShards int
	// CacheBytes is the total block-cache capacity, split evenly across
	// shards (default 32 MiB).
	CacheBytes int
	// Workers is the pack/compress worker-pool size (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pool's job queue (default 256).
	QueueDepth int
	// MaxBatch is the pool's per-wakeup batch limit (default 8).
	MaxBatch int
	// StoreDir, when non-empty, roots the content-addressed disk store:
	// built containers are persisted there asynchronously, block misses
	// try an index read from disk before rebuilding, and a restart
	// against a warm store serves previously-built containers without
	// re-packing.
	StoreDir string
	// ReadaheadK is the number of predicted successor blocks an L2 read
	// fetches alongside the demanded block — one coalesced ReadAt — and
	// admits into the L1 cache. Candidates come from the entry's
	// markov-prefetch beam over the CFG edge probabilities. 0 selects
	// the default of 2; negative disables readahead. Only meaningful
	// with StoreDir set.
	ReadaheadK int
	// TraceRing is the capacity of the completed-request trace ring
	// behind GET /debug/trace. 0 selects the default of 256; negative
	// disables tracing entirely, leaving block serving on the nil-sink
	// fast path (no clock reads, no allocations).
	TraceRing int
	// TraceExemplars is how many slowest-request traces survive ring
	// recycling as exemplars (default 8). Only meaningful with tracing
	// enabled.
	TraceExemplars int
	// RequestTimeout is the per-request deadline applied by the
	// instrumented handler: the request context is cancelled when it
	// expires, which aborts coalesced waits, L2 retry backoffs, and
	// queued pool work, and the client gets 504. 0 disables (default).
	RequestTimeout time.Duration
	// RetryMax bounds how many times a transient L2 store error is
	// retried (with jittered exponential backoff) before the read
	// degrades to the rebuild path. 0 selects the default of 3;
	// negative disables retries. Corrupt reads are never retried.
	RetryMax int
	// RetryBase scales the retry backoff: retry n sleeps a uniformly
	// jittered duration up to RetryBase<<n (capped). Default 2ms.
	RetryBase time.Duration
	// BreakerThreshold is the consecutive-failure count that opens an
	// entry's L2 circuit breaker, detaching the serving path from a
	// flapping store object (requests degrade to rebuilds without
	// paying a failing disk read each). 0 selects the default of 3;
	// negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before
	// letting one half-open probe through; the probe's success
	// re-attaches the object. Default 500ms.
	BreakerCooldown time.Duration
	// ShedDepth is the pool backlog (queued, unstarted jobs) at which
	// the admission controller sheds /v1/ requests with 429 and
	// Retry-After instead of letting them block on a saturated queue.
	// 0 selects the pool's queue depth; negative disables shedding.
	ShedDepth int
	// DebugFaults mounts the fault-injection control endpoint
	// (GET/POST /debug/faults) on the serving mux. Off by default:
	// unlike /debug/trace, the endpoint mutates process-global fault
	// state, so an unauthenticated client could fail every store read
	// and quarantine healthy objects with one request. Enable it only
	// on chaos/debug deployments (apcc-serve arms it via -debug-faults,
	// or implicitly when -faults is given).
	DebugFaults bool
	// Log receives the server's structured events (request debug lines,
	// quarantines, eviction storms). nil discards everything.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 32 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.ReadaheadK == 0 {
		c.ReadaheadK = 2
	}
	if c.ReadaheadK < 0 {
		c.ReadaheadK = 0
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.TraceRing < 0 {
		c.TraceRing = 0
	}
	if c.TraceExemplars <= 0 {
		c.TraceExemplars = 8
	}
	if c.RetryMax == 0 {
		c.RetryMax = 3
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.ShedDepth == 0 {
		c.ShedDepth = c.QueueDepth
	}
	if c.ShedDepth < 0 {
		c.ShedDepth = 0
	}
	if c.Log == nil {
		c.Log = obs.Discard
	}
	return c
}

// Readahead shape limits: candidates beyond readaheadWindowBlocks of
// the demanded block, or spans beyond readaheadMaxBytes of compressed
// payload, are not worth one coalesced read — the seek they save costs
// less than the extra bytes they drag in.
const (
	readaheadWindowBlocks = 16
	readaheadMaxBytes     = 256 << 10
	// readaheadDepth is the markov-prefetch beam depth used to score
	// successor candidates when an entry is built.
	readaheadDepth = 2
)

// Server is the pack-serving subsystem: container and block endpoints
// in front of the sharded L1 block cache, the batching worker pool,
// and (when configured) the content-addressed L2 disk store.
type Server struct {
	cache      *BlockCache
	pool       *Pool
	metrics    *Metrics
	store      *store.Store // nil when no StoreDir was configured
	readaheadK int          // predicted successors fetched per L2 read (0 = off)
	handler    http.Handler
	rec        *obs.Recorder // nil when tracing is disabled
	log        *slog.Logger  // never nil (obs.Discard by default)

	timeout   time.Duration // per-request deadline (0 = none)
	retry     retryPolicy   // transient L2 error retry schedule
	brkCfg    breakerConfig // per-entry circuit breaker sizing
	shedDepth int           // pool backlog that triggers 429 shedding (0 = off)
	draining  atomic.Bool   // BeginDrain was called; /healthz reports 503

	mu      sync.Mutex
	entries map[entryKey]*entry
	closing bool // no new persists may start once set

	// unp re-verifies containers through pack's streaming Unpacker:
	// repeated verification of an unchanged container (idempotent
	// POST /v1/pack retries, warm restores of a container another
	// entry already proved) skips the parse-and-rebuild and runs only
	// the decode+CRC pass. Guarded by unpMu; results are read-only and
	// never recycled, so entries may keep them.
	unpMu sync.Mutex
	unp   *pack.Unpacker

	persistWG sync.WaitGroup // in-flight async store persists

	workloadsOnce  sync.Once
	workloadsTable string
	workloadsErr   error
}

// entryKey names an entry. A struct key lets the per-request lookup
// hash the path and query strings as they are, without building a
// joined name.
type entryKey struct{ workload, codec string }

// entry is one built (workload, codec) container, ready to serve. It is
// constructed once per key: later requesters wait on ready.
type entry struct {
	ready chan struct{}
	err   error

	container []byte
	codec     compress.Codec
	plain     [][]byte   // per-block images of the *unpacked* program
	crcs      []uint32   // per-block IEEE CRC-32 of plain
	keys      []string   // per-block content addresses, precomputed
	hist      *Histogram // latency histogram for this entry's codec
	// codecHdr and crcHdrs are the entry's precomputed, shared response
	// header values: the codec name, and per block its CRC as 8 hex
	// digits. Serve them through crcHdr, never append to them.
	codecHdr []string
	crcHdrs  []string
	// readahead holds, per block, the markov-prefetch beam's successor
	// proposals (best first) — the score table the L2 tier coalesces
	// reads around. nil when readahead is disabled.
	readahead [][]cfg.BlockID

	// obj is the entry's open store object, the L2 tier block misses
	// read through. Set asynchronously after a cold build persists (or
	// immediately on a warm restore); nil when no store is configured
	// or the object went corrupt and was detached.
	obj atomic.Pointer[store.Object]

	// brk is the entry's L2 circuit breaker: consecutive read
	// failures open it and requests skip the object (rebuild path)
	// until a half-open probe succeeds. nil when disabled.
	brk *breaker
}

// crcHdr is block id's X-Apcc-Crc32 value: a len == cap == 1 window
// onto the entry's table, so an append cannot reach a neighbour.
func (e *entry) crcHdr(id int) []string { return e.crcHdrs[id : id+1 : id+1] }

// New builds a Server. Call Close when done to stop the worker pool.
// The only error source is opening Config.StoreDir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache := NewBlockCache(cfg.CacheShards, cfg.CacheBytes/cfg.CacheShards)
	s := &Server{
		cache:      cache,
		pool:       NewPool(cfg.Workers, cfg.QueueDepth, cfg.MaxBatch),
		metrics:    NewMetrics(),
		readaheadK: cfg.ReadaheadK,
		entries:    make(map[entryKey]*entry),
		unp:        pack.NewUnpacker(),
		log:        cfg.Log,
		timeout:    cfg.RequestTimeout,
		retry:      retryPolicy{max: cfg.RetryMax, base: cfg.RetryBase, cap: retryCap},
		shedDepth:  cfg.ShedDepth,
	}
	s.brkCfg = breakerConfig{
		threshold:    cfg.BreakerThreshold,
		cooldown:     cfg.BreakerCooldown,
		onTransition: s.onBreakerTransition,
	}
	if cfg.TraceRing > 0 {
		s.rec = obs.NewRecorder(cfg.TraceRing, cfg.TraceExemplars)
	}
	cache.SetEvictionStormFn(func(key string, evicted int) {
		s.log.Warn("cache eviction storm: one insert displaced many residents",
			"key", shortKey(key), "evicted", evicted)
	})
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.store = st
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/prom", s.handleMetricsProm)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	if cfg.DebugFaults {
		mux.Handle("/debug/faults", faults.Handler())
	}
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/codecs", s.handleCodecs)
	mux.HandleFunc("GET /v1/pack/{workload}", s.handlePackWorkload)
	mux.HandleFunc("POST /v1/pack", s.handlePackAsm)
	mux.HandleFunc("GET /v1/block/{workload}/{id}", s.handleBlock)
	s.handler = s.instrument(mux)
	return s, nil
}

// Handler returns the instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Close waits for in-flight store persists, stops the worker pool
// (draining queued jobs), and releases open store objects.
func (s *Server) Close() {
	// Flip closing under the same lock persistAsync uses for Add, so no
	// Add can race the Wait below on a drained counter (sync.WaitGroup
	// forbids Add concurrent with Wait at zero).
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.persistWG.Wait()
	s.pool.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ent := range s.entries {
		if obj := ent.obj.Swap(nil); obj != nil {
			obj.Close()
		}
	}
}

// Store exposes the disk store (nil when not configured); tests and
// operational tooling inspect it directly.
func (s *Server) Store() *store.Store { return s.store }

// Metrics exposes the server's counters (for in-process inspection and
// tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats exposes the block cache aggregate.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// onBreakerTransition keeps the breaker transition counters and the
// per-state gauges in step with every entry breaker's state machine.
// Invoked by the breaker outside its lock.
func (s *Server) onBreakerTransition(from, to breakerState) {
	switch from {
	case brkOpen:
		s.metrics.BreakerOpen.Add(-1)
	case brkHalfOpen:
		s.metrics.BreakerHalfOpen.Add(-1)
	}
	switch to {
	case brkOpen:
		s.metrics.BreakerOpens.Add(1)
		s.metrics.BreakerOpen.Add(1)
	case brkHalfOpen:
		s.metrics.BreakerProbes.Add(1)
		s.metrics.BreakerHalfOpen.Add(1)
	case brkClosed:
		s.metrics.BreakerCloses.Add(1)
	}
	s.log.Info("l2 circuit breaker transition", "from", from.String(), "to", to.String())
}

// BeginDrain flips the server into draining mode: /healthz starts
// reporting 503 so load balancers stop routing here, while in-flight
// and new requests still complete. Call before http.Server.Shutdown.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.log.Info("drain started: /healthz now reports 503")
	}
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// instrument wraps the mux with request/error/in-flight accounting,
// queue-depth admission control (shed with 429 + Retry-After instead
// of blocking on a saturated pool), and the per-request deadline.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		s.metrics.InFlight.Add(1)
		defer s.metrics.InFlight.Add(-1)
		rec := recorders.Get().(*statusRecorder)
		*rec = statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec.status >= 400 {
				s.metrics.Errors.Add(1)
			}
			s.metrics.BytesSent.Add(rec.bytes)
			// The handler has returned, so nothing holds rec any more;
			// drop the writer so the pool does not pin the connection.
			*rec = statusRecorder{}
			recorders.Put(rec)
		}()
		// Shed serving-path requests while the pool backlog is at the
		// configured depth: a request admitted now would only block on
		// the full queue. Health, metrics, and debug endpoints are
		// never shed — operators need them most during overload.
		if s.shedDepth > 0 && strings.HasPrefix(r.URL.Path, "/v1/") &&
			s.pool.Backlog() >= int64(s.shedDepth) {
			s.metrics.Shed.Add(1)
			rec.Header().Set("Retry-After", "1")
			http.Error(rec, "server overloaded: worker queue saturated", http.StatusTooManyRequests)
			return
		}
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(rec, r)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// recorders recycles the per-request statusRecorder. A recorder belongs
// to one request from Get until its handler returns; handlers must not
// keep their ResponseWriter past that.
var recorders = sync.Pool{New: func() any { return new(statusRecorder) }}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	csv := r.URL.Query().Get("format") == "csv"
	if csv {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	writeTables(w, s.scrape(), csv)
}

// handleMetricsProm serves the metric list in Prometheus text
// exposition.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeProm(w, s.scrape())
}

// scrape reads every source the metric list renders.
func (s *Server) scrape() *scrape {
	sc := &scrape{m: s.metrics, cache: s.cache.Stats(), pool: s.pool.Stats(), ver: s.unp.Stats(), rec: s.rec.Stats()}
	if s.store != nil {
		st := s.store.Stats()
		sc.st = &st
	}
	return sc
}

// handleTrace dumps the trace ring as JSON: the n most recent request
// traces (default 100) plus the slowest-K exemplars.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		http.Error(w, "tracing disabled (Config.TraceRing < 0)", http.StatusNotFound)
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, fmt.Sprintf("bad n %q", q), http.StatusBadRequest)
			return
		}
		n = v
	}
	d := obs.Dump{Traces: s.rec.Snapshot(n), Exemplars: s.rec.Exemplars()}
	if d.Traces == nil {
		d.Traces = []obs.Record{}
	}
	if d.Exemplars == nil {
		d.Exemplars = []obs.Record{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(d)
}

// shortKey truncates a content address for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	// The suite is deterministic; synthesize and render it once.
	s.workloadsOnce.Do(func() {
		suite, err := workloads.Suite()
		if err != nil {
			s.workloadsErr = err
			return
		}
		t := report.NewTable("workloads", "name", "blocks", "bytes", "desc")
		for _, wl := range suite {
			t.AddRow(wl.Name, wl.Program.Graph.NumBlocks(), wl.Program.TotalBytes(), wl.Desc)
		}
		s.workloadsTable = t.String()
	})
	if s.workloadsErr != nil {
		http.Error(w, s.workloadsErr.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, s.workloadsTable)
}

func (s *Server) handleCodecs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, strings.Join(compress.Names(), "\n")+"\n")
}

func (s *Server) handlePackWorkload(w http.ResponseWriter, r *http.Request) {
	ent, status, err := s.entryFor(r.Context(), r.PathValue("workload"), codecParam(r))
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderCodec, ent.codec.Name())
	w.Write(ent.container)
}

func (s *Server) handlePackAsm(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "posted"
	}
	src, err := io.ReadAll(io.LimitReader(r.Body, maxAsmBody+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(src) > maxAsmBody {
		http.Error(w, "assembly source too large", http.StatusRequestEntityTooLarge)
		return
	}
	// Parse and validate outside the pool so client mistakes are cheap
	// 400s and never queue behind real work.
	if err := checkCodec(codecParam(r)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p, err := program.FromAssembly(name, string(src))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var container []byte
	err = s.pool.Do(r.Context(), func() error {
		var perr error
		container, _, _, perr = s.buildContainer(p, codecParam(r))
		return perr
	})
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	s.metrics.Packs.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(container)
}

func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// With tracing disabled (nil recorder) tr is nil and every obs call
	// below is a free no-op: the hot path costs what it did untraced
	// (pinned by BenchmarkBlockSource l1-hit and TestTracedPathAllocs).
	tr := s.rec.StartTrace()
	rsp := tr.Begin(obs.StageRoute)
	ctx := obs.WithTrace(r.Context(), tr)
	q := parseBlockQuery(r.URL.RawQuery)
	ent, status, err := s.entryFor(ctx, r.PathValue("workload"), q.codecName())
	if err != nil {
		rsp.End(obs.OutcomeError)
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, err.Error(), status)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= len(ent.plain) {
		rsp.End(obs.OutcomeError)
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, fmt.Sprintf("no block %q (%d blocks)", r.PathValue("id"), len(ent.plain)),
			http.StatusNotFound)
		return
	}
	tr.SetLabels(r.PathValue("workload"), ent.codec.Name(), id)
	if q.word != "" {
		s.serveWordRange(ctx, w, q, tr, rsp, ent, id)
		return
	}
	plain := ent.plain[id]
	compute := func() ([]byte, error) {
		// This compute runs synchronously on the request goroutine (the
		// singleflight leader), so it may use ctx's trace; the pool fn
		// below runs on a worker and must not.
		if err := faultCacheCompute.Err(); err != nil {
			return nil, err
		}
		// L2 first: one ReadAt through the container index plus a
		// decompress-verify is far cheaper than re-running the
		// compressor on the plain image.
		if comp, ok := s.blockFromStore(ctx, ent, id); ok {
			return comp, nil
		}
		// Full rebuild. Detach from the request context: coalesced
		// waiters depend on this compute, so the leader disconnecting
		// must not fail it.
		bctx := context.WithoutCancel(ctx)
		var comp []byte
		rbsp := tr.Begin(obs.StageRebuild)
		err := s.pool.Do(bctx, func() error {
			// Compress into pooled scratch; the cache retains values
			// indefinitely, so it gets an exact-size copy and the
			// (worst-case-sized) scratch goes back to the pool.
			scratch := compress.GetBuf(ent.codec.MaxCompressedLen(len(plain)))
			out, cerr := ent.codec.CompressAppend(scratch, plain)
			if cerr != nil {
				compress.PutBuf(scratch)
				return cerr
			}
			comp = bytes.Clone(out)
			compress.PutBuf(out)
			return nil
		})
		if err != nil {
			rbsp.End(obs.OutcomeError)
		} else {
			rbsp.End(obs.OutcomeOK)
		}
		return comp, err
	}
	// Root spans tile the trace, so the hand-off to the cache is charged
	// to l1, and the write span opens as soon as the cache returns, its
	// error checks and error response included: summed exclusive times
	// then track the trace's end-to-end total (asserted within 10% by
	// the e2e test).
	rsp.End(obs.OutcomeOK)
	payload, hit, err := s.cache.GetOrCompute(ctx, ent.keys[id], compute)
	wsp := tr.Begin(obs.StageWrite)
	if err == nil {
		// The deadline may have fired while the payload was being
		// produced (the leader completes detached from our context);
		// don't start a response write the client already gave up on.
		err = ctx.Err()
	}
	if err != nil {
		wsp.End(obs.OutcomeError)
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	outcome, cacheHdr := obs.OutcomeMiss, hdrCacheMiss
	if hit {
		outcome, cacheHdr = obs.OutcomeHit, hdrCacheHit
	}
	s.metrics.Blocks.Add(1)
	ent.hist.Observe(time.Since(start))
	h := w.Header()
	h["Content-Type"] = hdrOctetStream
	h[HeaderCodec] = ent.codecHdr
	h[HeaderWords] = decimalHdr(len(plain) / isa.WordSize)
	h[HeaderCRC] = ent.crcHdr(id)
	h[HeaderCache] = cacheHdr
	if tr != nil {
		h.Set(HeaderTrace, strconv.FormatUint(tr.TraceID(), 10))
		h.Set(HeaderStages, stagesHeader(tr.Spans()))
	}
	w.Write(payload)
	tr.FinishWith(wsp, obs.OutcomeOK, outcome)
	s.recordTrace(tr, outcome)
}

// wordReadCompGuess pre-sizes the pooled compressed-bytes buffer for a
// word read: small spans cover a handful of groups, far below one
// block's payload.
const wordReadCompGuess = 4 << 10

// errWordMismatch marks a store word read whose decoded bytes differ
// from the entry's verified in-memory image.
var errWordMismatch = errors.New("word span differs from the entry's plain image")

// serveWordRange handles ?word=W&words=N on the block endpoint — the
// sub-block serving path. The response is the span's *plain* bytes
// (N×4), not a compressed payload: a word read exists precisely so the
// client skips its own full-block decode. The read prefers the store's
// v3 group directory (a bounded ReadAt plus per-group decode, traced
// as l2-word-read) and cross-checks the result against the entry's
// in-memory image — a partial decode has no CRC of its own, so the
// image is the integrity authority, and a mismatch quarantines the
// object before the memory copy is served instead. Word reads never
// touch the L1 block cache in either direction: the cache holds whole
// compressed blocks for full-block serving, and letting sub-block
// probes admit or promote entries would let a word-scanning client
// evict the real working set (pinned by TestWordReadDoesNotTouchL1).
func (s *Server) serveWordRange(ctx context.Context, w http.ResponseWriter, q blockQuery, tr *obs.Trace, rsp obs.SpanHandle, ent *entry, id int) {
	word, err := strconv.Atoi(q.word)
	nwords := 1
	if err == nil && q.words != "" {
		nwords, err = strconv.Atoi(q.words)
	}
	blockWords := len(ent.plain[id]) / isa.WordSize
	if err != nil || word < 0 || nwords < 1 || word > blockWords-nwords {
		rsp.End(obs.OutcomeError)
		s.finishTrace(tr, obs.OutcomeError)
		http.Error(w, fmt.Sprintf("bad word range word=%q words=%q (block %d has %d words)",
			q.word, q.words, id, blockWords), http.StatusBadRequest)
		return
	}
	rsp.End(obs.OutcomeOK)
	dst := compress.GetBuf(nwords * isa.WordSize)
	defer func() { compress.PutBuf(dst) }()
	span, fromStore := s.wordSpanFromStore(ctx, ent, id, word, nwords, dst[:0])
	source := hdrSourceStore
	if fromStore {
		dst = span // recycle the (possibly grown) buffer
		s.metrics.StoreWordReads.Add(1)
	} else {
		// Fallback: slice the verified in-memory image directly (v2
		// containers, non-group codecs, detached or absent objects).
		span = ent.plain[id][word*isa.WordSize : (word+nwords)*isa.WordSize]
		source = hdrSourceMemory
		s.metrics.WordFallbacks.Add(1)
	}
	wsp := tr.Begin(obs.StageWrite)
	crc := hexCRC(crc32.ChecksumIEEE(span))
	h := w.Header()
	h["Content-Type"] = hdrOctetStream
	h[HeaderCodec] = ent.codecHdr
	h[HeaderWords] = decimalHdr(nwords)
	h[HeaderWord] = decimalHdr(word)
	h[HeaderSource] = source
	h[HeaderCRC] = []string{string(crc[:])}
	h[HeaderCache] = hdrCacheBypass
	if tr != nil {
		h.Set(HeaderTrace, strconv.FormatUint(tr.TraceID(), 10))
		h.Set(HeaderStages, stagesHeader(tr.Spans()))
	}
	w.Write(span)
	tr.FinishWith(wsp, obs.OutcomeOK, obs.OutcomeOK)
	s.recordTrace(tr, obs.OutcomeOK)
}

// wordSpanFromStore reads [word, word+nwords) of block id through the
// entry's store object and its container's v3 group directory,
// appending the plain bytes to dst. It reports false — fall back to
// the in-memory image — when there is no attached object, the
// container predates v3 or its codec cannot decode groups, or the read
// fails. Failed reads are triaged with the same errclass taxonomy the
// block path uses: only corrupt bytes — and any cross-check mismatch —
// detach and quarantine the object, because a store that cannot
// reproduce the entry's bytes must not serve anyone again. A transient
// hiccup, a dying context, or a benign miss (ErrNoGroupIndex) costs
// this request the store path, never the entry its healthy object.
func (s *Server) wordSpanFromStore(ctx context.Context, ent *entry, id, word, nwords int, dst []byte) ([]byte, bool) {
	obj := ent.obj.Load()
	if obj == nil || !obj.HasGroupIndex() {
		return dst, false
	}
	comp := compress.GetBuf(wordReadCompGuess)
	defer func() { compress.PutBuf(comp) }()
	base := len(dst)
	var plain []byte
	comp, plain, err := obj.ReadWordRangeCtx(ctx, ent.codec, id, word, nwords, comp[:0], dst)
	if err != nil {
		if errclass.IsCorrupt(err) {
			s.detachObject(obs.FromContext(ctx), ent, obj, id, "word range read", err)
		}
		return dst, false
	}
	if !bytes.Equal(plain[base:], ent.plain[id][word*isa.WordSize:(word+nwords)*isa.WordSize]) {
		s.detachObject(obs.FromContext(ctx), ent, obj, id, "word range cross-check", errWordMismatch)
		return dst, false
	}
	return plain, true
}

// detachObject quarantines a store object that failed verification and
// detaches it from the entry (first failure wins; later racers no-op),
// degrading that entry to rebuilds and in-memory serving instead of
// retrying corrupt disk forever.
func (s *Server) detachObject(tr *obs.Trace, ent *entry, obj *store.Object, block int, what string, err error) {
	if ent.obj.CompareAndSwap(obj, nil) {
		s.store.Quarantine(obj.Key())
		obj.Close()
		tr.Event(obs.StageQuarantine, obs.OutcomeCorrupt)
		s.log.Warn("store object quarantined, detaching from entry",
			"key", shortKey(obj.Key()), "block", block, "what", what, "err", err)
	}
}

// stagesHeader renders a trace's spans as "stage:exclNS;..." for the
// X-Apcc-Stages header. The write span is still open while the header
// is rendered, so it is omitted — /debug/trace has it.
func stagesHeader(spans []obs.Span) string {
	var sb strings.Builder
	for _, sp := range spans {
		if sp.Stage == obs.StageWrite {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(sp.Stage)
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatInt(sp.ExclNS, 10))
	}
	return sb.String()
}

// finishTrace stamps a completed request trace and records it.
func (s *Server) finishTrace(tr *obs.Trace, outcome string) {
	tr.Finish(outcome)
	s.recordTrace(tr, outcome)
}

// recordTrace attributes each span's exclusive time of a finished trace
// to the per-stage histograms, emits the per-request debug log line,
// and hands the trace to the ring. Nil trace no-ops.
func (s *Server) recordTrace(tr *obs.Trace, outcome string) {
	if tr == nil {
		return
	}
	codec := tr.Codec
	if codec == "" {
		codec = "unknown" // request failed before the entry resolved
	}
	for _, sp := range tr.Spans() {
		s.metrics.StageHist(sp.Stage, codec, sp.Outcome).Observe(time.Duration(sp.ExclNS))
	}
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.Debug("block request",
			"trace", tr.TraceID(), "workload", tr.Workload, "codec", codec,
			"block", tr.Block, "outcome", outcome,
			"dur", time.Duration(tr.TotalNS))
	}
	s.rec.Record(tr)
}

// blockFromStore is the L2 tier: read block id's compressed payload
// from the entry's open store object via the container index,
// decompress-verify it against the index CRC, and cross-check the
// plain image CRC the entry advertises to clients. The read attempt
// itself lives in l2Attempt; this wrapper classifies its failures and
// reacts per class:
//
//   - corrupt: quarantine and detach the object immediately — never
//     retried, corrupt disk cannot get better.
//   - transient: retry with jittered exponential backoff up to the
//     configured budget, then count the failure against the entry's
//     circuit breaker.
//   - context ended: abort without judging the object.
//   - anything else (fatal): one breaker strike, no retry.
//
// Enough consecutive failures open the entry's breaker: requests then
// skip the object entirely (degrading to the rebuild path) until a
// half-open probe succeeds and re-attaches it. Every failure path
// counts one StoreL2Miss so hits+misses still equal L2 lookups.
func (s *Server) blockFromStore(ctx context.Context, ent *entry, id int) ([]byte, bool) {
	obj := ent.obj.Load()
	if obj == nil {
		if s.store != nil {
			s.metrics.StoreL2Misses.Add(1)
		}
		return nil, false
	}
	if !ent.brk.Allow(time.Now()) {
		s.metrics.BreakerRejects.Add(1)
		s.metrics.StoreL2Misses.Add(1)
		return nil, false
	}
	tr := obs.FromContext(ctx)
	for attempt := 0; ; attempt++ {
		out, err := s.l2Attempt(ctx, tr, ent, obj, id)
		if err == nil {
			if attempt > 0 {
				s.metrics.RetrySuccess.Add(1)
			}
			ent.brk.Result(true)
			s.metrics.StoreL2Hits.Add(1)
			return out, true
		}
		switch {
		case errclass.IsCorrupt(err):
			// Corrupt bytes are never retried: quarantine now so the
			// object cannot serve anyone again.
			ent.brk.Result(false)
			s.detachObject(tr, ent, obj, id, "l2 read", err)
		case errclass.IsTransient(err) && attempt < s.retry.max:
			if sleepCtx(ctx, s.retry.backoff(attempt)) {
				continue
			}
			// The request died mid-backoff; don't blame the object.
			s.metrics.RetryAborted.Add(1)
			ent.brk.Abort()
		case errclass.IsTransient(err):
			s.metrics.RetryExhausted.Add(1)
			ent.brk.Result(false)
			s.log.Warn("l2 read transient failure exhausted retries, degrading to rebuild",
				"key", shortKey(obj.Key()), "block", id, "retries", s.retry.max, "err", err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			ent.brk.Abort()
		default:
			ent.brk.Result(false)
		}
		s.metrics.StoreL2Misses.Add(1)
		return nil, false
	}
}

// l2Attempt is one try at the L2 read: plan the coalesced readahead
// span, read it, decompress-verify the demand block, and admit every
// verified readahead candidate into L1. When readahead is on, the
// entry's prefetch scores extend the same ReadAt with the blocks
// execution is most likely to demand next, so the successor fetch that
// was about to miss hits instead. All disk bytes and decode scratch
// move through pooled buffers — the steady-state read path allocates
// only the exact-size copies the cache keeps. Demand-path errors are
// returned raw (unclassified, unquarantined) for blockFromStore to
// triage; a corrupt readahead candidate quarantines here since the
// demand block was still served.
func (s *Server) l2Attempt(ctx context.Context, tr *obs.Trace, ent *entry, obj *store.Object, id int) ([]byte, error) {
	idx := obj.Index()
	// Plan the coalesced span: forward readahead candidates inside the
	// window that are not already resident, capped in compressed bytes.
	// Candidates are distinct blocks in (id, id+window], so the stack
	// array below is a true bound and the plan itself allocates nothing.
	hi := id
	var candBuf [readaheadWindowBlocks]cfg.BlockID
	cands := candBuf[:0]
	if len(ent.readahead) > id {
		for _, c := range ent.readahead[id] {
			ci := int(c)
			if ci <= id || ci >= len(idx.Blocks) || ci-id > readaheadWindowBlocks ||
				ci >= len(ent.keys) || len(cands) == cap(cands) ||
				s.cache.Contains(ent.keys[ci]) {
				continue
			}
			if idx.Blocks[ci].Off+idx.Blocks[ci].Len-idx.Blocks[id].Off > readaheadMaxBytes {
				continue
			}
			cands = append(cands, c)
			if ci > hi {
				hi = ci
			}
		}
	}
	span := int(idx.Blocks[hi].Off + idx.Blocks[hi].Len - idx.Blocks[id].Off)
	buf := compress.GetBuf(span)
	defer func() { compress.PutBuf(buf) }()
	buf, err := obj.ReadBlockRangeCtx(ctx, id, hi, buf[:0])
	if err != nil {
		return nil, err
	}
	scratch := compress.GetBuf(len(ent.plain[id]))
	defer func() { compress.PutBuf(scratch) }()
	// attachObject proved the object's index CRCs equal ent.crcs, so
	// the index verify below is also the entry-level integrity check.
	comp := idx.PayloadRangeSlice(buf, 0, id, id)
	if _, err := idx.VerifyBlockCtx(ctx, ent.codec, id, comp, scratch[:0]); err != nil {
		return nil, err
	}
	// The cache retains values indefinitely; hand it exact-size copies
	// and recycle the (span-sized) read buffer.
	out := bytes.Clone(comp)
	// One readahead span covers the whole speculative batch; the
	// per-candidate verifies stay plain (their time is the span's).
	var rasp obs.SpanHandle
	if len(cands) > 0 {
		rasp = tr.Begin(obs.StageReadahead)
	}
	for _, c := range cands {
		ci := int(c)
		ccomp := idx.PayloadRangeSlice(buf, 0, id, ci)
		if need := len(ent.plain[ci]); cap(scratch) < need {
			compress.PutBuf(scratch)
			scratch = compress.GetBuf(need)
		}
		if _, err := idx.VerifyBlock(ent.codec, ci, ccomp, scratch[:0]); err != nil {
			if errclass.IsCorrupt(err) {
				// Speculative bytes failed verification: the object is as
				// corrupt as if the demand read had failed.
				s.detachObject(tr, ent, obj, ci, "readahead block verify", err)
				rasp.End(obs.OutcomeCorrupt)
			} else {
				// Transient (or fatal) readahead trouble: stop speculating,
				// keep the object — the demand block verified fine.
				rasp.End(obs.OutcomeError)
			}
			return out, nil // the demand block itself was served
		}
		if s.cache.Add(ent.keys[ci], bytes.Clone(ccomp)) {
			s.metrics.StoreReadahead.Add(1)
		}
	}
	rasp.End(obs.OutcomeOK)
	return out, nil
}

// blockQuery holds the query parameters the pack and block endpoints
// read. Each field is exactly what url.ParseQuery followed by
// Values.Get would give (pinned by FuzzBlockQuery).
type blockQuery struct{ codec, word, words string }

// parseBlockQuery reads the codec, word and words parameters from a
// raw query in one pass. It follows url.ParseQuery's rules: pairs split
// on '&', a pair containing ';' is skipped, as is one whose key or value
// is a bad escape, and the first valid pair for a key wins. Only pairs
// containing '%' or '+' are unescaped, so a plain query allocates
// nothing.
func parseBlockQuery(raw string) blockQuery {
	var q blockQuery
	var seen [3]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(pair, "%+") {
			var err error
			if key, err = url.QueryUnescape(key); err != nil {
				continue
			}
			if val, err = url.QueryUnescape(val); err != nil {
				continue
			}
		}
		var i int
		var dst *string
		switch key {
		case "codec":
			i, dst = 0, &q.codec
		case "word":
			i, dst = 1, &q.word
		case "words":
			i, dst = 2, &q.words
		default:
			continue
		}
		if !seen[i] {
			seen[i], *dst = true, val
		}
	}
	return q
}

// codecName is the requested codec, defaulting to dict.
func (q blockQuery) codecName() string {
	if q.codec != "" {
		return q.codec
	}
	return "dict"
}

// codecParam extracts the codec query parameter, defaulting to dict.
func codecParam(r *http.Request) string {
	return parseBlockQuery(r.URL.RawQuery).codecName()
}

// checkCodec validates a codec name against the registry without
// building or training anything.
func checkCodec(name string) error {
	if !compress.Registered(name) {
		return fmt.Errorf("%w %q (have %v)", compress.ErrUnknownCodec, name, compress.Names())
	}
	return nil
}

// entryFor returns the built container entry for (workload, codec),
// building it exactly once. The returned status is an HTTP status for
// err.
func (s *Server) entryFor(ctx context.Context, workload, codecName string) (*entry, int, error) {
	key := entryKey{workload, codecName}
	s.mu.Lock()
	ent, ok := s.entries[key]
	if !ok {
		ent = &entry{ready: make(chan struct{}), brk: newBreaker(s.brkCfg)}
		s.entries[key] = ent
		s.mu.Unlock()
		bsp := obs.FromContext(ctx).Begin(obs.StageBuild)
		ent.err = s.build(ent, workload, codecName)
		if ent.err != nil {
			bsp.End(obs.OutcomeError)
		} else {
			bsp.End(obs.OutcomeOK)
		}
		if ent.err != nil {
			// Drop failed builds so errors are not cached forever and
			// bogus names cannot grow the map without bound.
			s.mu.Lock()
			delete(s.entries, key)
			s.mu.Unlock()
		}
		close(ent.ready)
	} else {
		s.mu.Unlock()
		select {
		case <-ent.ready:
		default:
			// Only a request that actually has to wait touches
			// ctx.Done(), which allocates a channel per request on
			// net/http's cancelCtx.
			select {
			case <-ent.ready:
			case <-ctx.Done():
				return nil, statusFor(ctx.Err()), ctx.Err()
			}
		}
	}
	if ent.err != nil {
		return nil, statusFor(ent.err), ent.err
	}
	return ent, http.StatusOK, nil
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, workloads.ErrUnknown):
		return http.StatusNotFound
	case errors.Is(err, compress.ErrUnknownCodec):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request deadline fired while we were working upstream.
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrPoolClosed), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errclass.IsTransient(err):
		// A transient failure that exhausted its retries: the client may
		// retry; the resource is not (known to be) corrupt.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// build materializes the entry for (workload, codec): from the warm
// disk store when a previously-built container is available, otherwise
// by packing the workload and verifying the container by fully
// unpacking it — the served artifact has passed the image checksum,
// not just the packer's intent. The entry then serves blocks from the
// *reconstructed* program, so what devices fetch is exactly what
// survives verification. Freshly-built containers are persisted to the
// store asynchronously through the worker pool.
func (s *Server) build(ent *entry, workload, codecName string) error {
	wl, err := workloads.ByName(workload)
	if err != nil {
		return err
	}
	// Reject bad codec names before they occupy a pool slot.
	if err := checkCodec(codecName); err != nil {
		return err
	}
	if s.store != nil && s.restoreFromStore(ent, workload, codecName) {
		return nil
	}
	var (
		container []byte
		p         *program.Program
		codec     compress.Codec
	)
	err = s.pool.Do(context.Background(), func() error {
		var perr error
		container, p, codec, perr = s.buildContainer(wl.Program, codecName)
		return perr
	})
	if err != nil {
		return err
	}
	if err := s.finishEntry(ent, container, p, codec); err != nil {
		return err
	}
	s.metrics.Packs.Add(1)
	if s.store != nil {
		s.persistAsync(ent, store.RefName(workload, codecName), container)
	}
	return nil
}

// restoreFromStore is the warm-restart path: resolve the (workload,
// codec) ref, read and hash-verify the container, and Unpack it (the
// full image-checksum verification pass) — no packer involved. Any
// corruption quarantines the object and falls back to a cold build.
func (s *Server) restoreFromStore(ent *entry, workload, codecName string) bool {
	key, ok := s.store.Ref(store.RefName(workload, codecName))
	if !ok {
		return false
	}
	container, err := s.store.Get(key) // corrupt entries self-quarantine here
	if err != nil {
		return false
	}
	p, codec, _, err := s.verifyUnpack(workload, container)
	if err != nil {
		s.store.Quarantine(key)
		s.log.Warn("warm restore failed verification, object quarantined",
			"key", shortKey(key), "workload", workload, "codec", codecName, "err", err)
		return false
	}
	if err := s.finishEntry(ent, container, p, codec); err != nil {
		return false
	}
	if obj, err := s.store.Open(key); err == nil {
		s.attachObject(ent, obj)
	}
	s.metrics.StoreWarm.Add(1)
	return true
}

// attachObject binds an open store object to its entry after proving
// the object's index carries exactly the per-block plain CRCs the
// entry advertises to clients. Checking once here means L2 reads need
// only the index CRC verify, not a second checksum pass per block; a
// mismatched object is corrupt-or-wrong and gets quarantined.
func (s *Server) attachObject(ent *entry, obj *store.Object) {
	idx := obj.Index()
	ok := len(idx.Blocks) == len(ent.crcs)
	for i := 0; ok && i < len(ent.crcs); i++ {
		ok = idx.Blocks[i].CRC == ent.crcs[i]
	}
	if !ok {
		s.store.Quarantine(obj.Key())
		obj.Close()
		s.log.Warn("store object CRC table does not match entry, quarantined",
			"key", shortKey(obj.Key()))
		return
	}
	if !ent.obj.CompareAndSwap(nil, obj) {
		obj.Close() // someone else attached first
	}
}

// finishEntry fills the entry's serving state from a verified
// (container, reconstructed program, codec) triple.
func (s *Server) finishEntry(ent *entry, container []byte, p *program.Program, codec compress.Codec) error {
	plain, err := p.AllBlockBytes()
	if err != nil {
		return err
	}
	keys := BlockAddresses(codec.Name(), compress.MarshalModel(codec), plain)
	crcs := make([]uint32, len(plain))
	crcHdrs := make([]string, len(plain))
	for i, b := range plain {
		crcs[i] = crc32.ChecksumIEEE(b)
		hex := hexCRC(crcs[i])
		crcHdrs[i] = string(hex[:])
	}
	ent.container = container
	ent.codec = codec
	ent.plain = plain
	ent.crcs = crcs
	ent.keys = keys
	ent.codecHdr = []string{codec.Name()}
	ent.crcHdrs = crcHdrs
	// Only blockFromStore reads the candidate table, so a store-less
	// server skips both the beam search and the table's footprint.
	if s.store != nil && s.readaheadK > 0 {
		ent.readahead = readaheadCandidates(p.Graph, s.readaheadK)
	}
	// Resolve the histogram once so the hot path never takes the
	// metrics mutex.
	ent.hist = s.metrics.CodecHist(codec.Name())
	return nil
}

// readaheadCandidates precomputes every block's prefetch proposals
// through the markov-prefetch policy beam (path probability over the
// CFG's edge annotations, depth readaheadDepth, width k, best first) —
// the same scoring the embedded runtime prefetches under, reused here
// to decide which successor payloads ride along on an L2 disk read.
func readaheadCandidates(g *cfg.Graph, k int) [][]cfg.BlockID {
	pol := policy.NewMarkovPrefetch[string]()
	pol.Width = k
	pol.Depth = readaheadDepth
	pol.Bind(policy.Env{Graph: g})
	out := make([][]cfg.BlockID, g.NumBlocks())
	for id := range out {
		out[id] = pol.PrefetchCandidates(cfg.BlockID(id), nil)
	}
	return out
}

// persistAsync writes a freshly-built container to the disk store
// through the worker pool, without blocking the requester that
// triggered the build. Once the object and its ref land, the entry is
// handed the open object so later block misses can read through it.
// Persistence is best-effort: a failure leaves the server serving from
// memory exactly as if no store were configured.
func (s *Server) persistAsync(ent *entry, name string, container []byte) {
	s.mu.Lock()
	if s.closing {
		// Shutting down: the pool is (about to be) closed and Close may
		// already be waiting on persistWG — starting a persist now would
		// both race the WaitGroup and submit to a dead pool.
		s.mu.Unlock()
		return
	}
	s.persistWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.persistWG.Done()
		_ = s.pool.Do(context.Background(), func() error {
			key, err := s.store.Put(container)
			if err != nil {
				return err
			}
			if err := s.store.PutRef(name, key); err != nil {
				return err
			}
			if obj, err := s.store.Open(key); err == nil {
				s.attachObject(ent, obj)
			}
			s.metrics.StorePersists.Add(1)
			return nil
		})
	}()
}

// buildContainer trains the codec on the program's code and packs it,
// then round-trips the result through Unpack so no unverifiable
// container ever leaves the server. The reconstructed program and
// rebuilt codec from that verification pass are returned alongside the
// container bytes.
func (s *Server) buildContainer(p *program.Program, codecName string) ([]byte, *program.Program, compress.Codec, error) {
	code, err := p.CodeBytes()
	if err != nil {
		return nil, nil, nil, err
	}
	codec, err := compress.New(codecName, code)
	if err != nil {
		return nil, nil, nil, err
	}
	container, err := pack.Pack(p, codec)
	if err != nil {
		return nil, nil, nil, err
	}
	up, ucodec, _, err := s.verifyUnpack(p.Name, container)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("service: packed container failed verification: %w", err)
	}
	return container, up, ucodec, nil
}

// verifyUnpack runs a full container verification through the shared
// streaming Unpacker: an unchanged container (a client re-posting the
// same program, a restore of a just-verified build) pays only the
// decode+CRC pass instead of a fresh parse-and-rebuild. Results are
// read-only and possibly shared between entries that verified the
// same container — which is exactly how entries use them.
// The Unpacker is used opportunistically: when another verification
// holds it, this one runs a plain parallel Unpack instead of queueing
// ms-scale verify work behind a global lock.
func (s *Server) verifyUnpack(name string, container []byte) (*program.Program, compress.Codec, *pack.Info, error) {
	if s.unpMu.TryLock() {
		defer s.unpMu.Unlock()
		return s.unp.Unpack(name, container)
	}
	return pack.Unpack(name, container)
}
