package service

import (
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apbcc/internal/faults"
	"apbcc/internal/obs"
	"apbcc/internal/pack"
	"apbcc/internal/report"
	"apbcc/internal/store"
)

// histBounds are the latency bucket upper bounds. The last bucket is
// open-ended. Spacing is roughly logarithmic from 1µs to 1s: the
// sub-50µs buckets resolve per-stage attribution (an L1 lookup or a
// single-block decode is microseconds), the top covers cold
// whole-container packs.
var histBounds = [...]time.Duration{
	1 * time.Microsecond,
	5 * time.Microsecond,
	10 * time.Microsecond,
	25 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
}

// numBuckets is len(histBounds) plus the open-ended overflow bucket.
const numBuckets = len(histBounds) + 1

// promBounds is histBounds in seconds, the unit Prometheus histograms
// expose.
var promBounds = func() (out [len(histBounds)]float64) {
	for i, b := range histBounds {
		out[i] = b.Seconds()
	}
	return out
}()

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation. Observations beyond the last bound land in an overflow
// bucket whose maximum is tracked exactly, so quantiles falling there
// report the real worst case instead of silently clamping to 1s.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	sumNS  atomic.Int64
	n      atomic.Int64
	maxNS  atomic.Int64 // largest overflow observation
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(histBounds), func(i int) bool { return d <= histBounds[i] })
	if i == len(histBounds) {
		for {
			cur := h.maxNS.Load()
			if int64(d) <= cur || h.maxNS.CompareAndSwap(cur, int64(d)) {
				break
			}
		}
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Mean returns the mean observed duration, 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load() / n)
}

// Quantile approximates the q-quantile (0 < q <= 1) by linear
// interpolation within the bucket holding the q-th observation:
// assuming observations spread uniformly across a bucket, the value
// sits at lower + (rank position within bucket)/(bucket count) of the
// bucket's width. Reporting the raw upper bound instead would
// overstate the quantile by up to one full bucket width (a p50 of
// 30µs in the 25µs..50µs bucket used to print as 50µs). A quantile
// landing in the open-ended overflow bucket reports the largest
// overflow observation actually seen — never the last bound, which
// would silently understate pathological tails.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c > 0 && seen+c >= rank {
			if i >= len(histBounds) {
				return h.overflowMax()
			}
			var lower time.Duration
			if i > 0 {
				lower = histBounds[i-1]
			}
			upper := histBounds[i]
			frac := float64(rank-seen) / float64(c)
			return lower + time.Duration(frac*float64(upper-lower))
		}
		seen += c
	}
	return h.overflowMax()
}

// snapshot copies the bucket counts (cumulative) and total sum for
// exposition. The exposed _count is the cumulative total of the
// buckets themselves — not n, which a racing Observe could have
// advanced past the bucket increments we saw — so the +Inf bucket and
// _count always agree, as the exposition format requires.
func (h *Histogram) snapshot() (cum [numBuckets]int64, sumNS int64) {
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.sumNS.Load()
}

// writeProm writes the histogram as one Prometheus series under name.
func (h *Histogram) writeProm(p *obs.PromWriter, name string, labels []obs.Label) {
	cum, sumNS := h.snapshot()
	p.Histogram(name, labels, promBounds[:], cum[:len(histBounds)],
		time.Duration(sumNS).Seconds(), cum[numBuckets-1])
}

// overflowMax reports the largest observation beyond the last bound,
// falling back to the last bound if (impossibly) none was recorded.
func (h *Histogram) overflowMax() time.Duration {
	if max := h.maxNS.Load(); max > 0 {
		return time.Duration(max)
	}
	return histBounds[len(histBounds)-1]
}

// Metrics aggregates service-wide counters: request counts per route
// family, error counts, in-flight requests and per-codec block-serving
// latency histograms.
type Metrics struct {
	start time.Time

	Requests  atomic.Int64 // all HTTP requests
	Errors    atomic.Int64 // responses with status >= 400
	InFlight  atomic.Int64 // HTTP requests currently being handled
	Packs     atomic.Int64 // containers built (not cached re-serves)
	Blocks    atomic.Int64 // block fetches served
	BytesSent atomic.Int64 // payload bytes written

	// Word-granular serving counters (the v3 sub-block path; word reads
	// bypass the L1 block cache entirely). Each word read counts in
	// exactly one of the two.
	StoreWordReads atomic.Int64 // word spans served through the store's group directory
	WordFallbacks  atomic.Int64 // word spans served by slicing the in-memory image

	// L2 disk-store tier counters (all zero when no store is configured).
	StoreWarm      atomic.Int64 // entries restored from the store without packing
	StorePersists  atomic.Int64 // containers persisted to the store
	StoreL2Hits    atomic.Int64 // L1 block misses satisfied by an index read
	StoreL2Misses  atomic.Int64 // L1 block misses that fell back to a full rebuild
	StoreReadahead atomic.Int64 // predicted successor blocks admitted to L1 by coalesced readahead

	// Resilience counters: the retry/breaker/shed machinery on the
	// serving path (all zero until faults or overload exercise it).
	Shed            atomic.Int64 // requests rejected 429 by queue-depth admission control
	RetrySuccess    atomic.Int64 // transient L2 errors that a retry recovered
	RetryExhausted  atomic.Int64 // transient L2 errors still failing after the last retry
	RetryAborted    atomic.Int64 // retry loops abandoned because the request context ended
	BreakerRejects  atomic.Int64 // L2 reads skipped because an entry's breaker was open
	BreakerOpens    atomic.Int64 // closed/half-open -> open transitions
	BreakerCloses   atomic.Int64 // half-open -> closed transitions (probe succeeded)
	BreakerProbes   atomic.Int64 // open -> half-open transitions (cooldown elapsed)
	BreakerOpen     atomic.Int64 // gauge: entries currently open
	BreakerHalfOpen atomic.Int64 // gauge: entries currently half-open

	// Histogram maps use an RWMutex with a read-locked fast path: the
	// maps only ever grow (codec and stage universes are tiny and
	// fixed), so after warmup every lookup is an RLock + map read —
	// no allocation, no exclusive lock, no boxing (sync.Map's any-keyed
	// Load would heap-allocate the key on every call). Pinned by
	// TestMetricsLookupAllocFree.
	mu       sync.RWMutex
	perCodec map[string]*Histogram

	stageMu  sync.RWMutex
	perStage map[StageKey]*Histogram
}

// StageKey identifies one per-stage latency series: where the time
// went (obs stage name), under which codec, with what outcome.
type StageKey struct {
	Stage, Codec, Outcome string
}

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		perCodec: make(map[string]*Histogram),
		perStage: make(map[StageKey]*Histogram),
	}
}

// CodecHist returns (creating if needed) the latency histogram for a
// codec. The resident-codec path takes only a read lock and does not
// allocate.
func (m *Metrics) CodecHist(codec string) *Histogram {
	m.mu.RLock()
	h, ok := m.perCodec[codec]
	m.mu.RUnlock()
	if ok {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.perCodec[codec]; ok {
		return h
	}
	h = &Histogram{}
	m.perCodec[codec] = h
	return h
}

// StageHist returns (creating if needed) the per-stage histogram for
// {stage, codec, outcome} — the series behind
// apcc_block_stage_seconds. Same RWMutex fast path as CodecHist.
func (m *Metrics) StageHist(stage, codec, outcome string) *Histogram {
	k := StageKey{Stage: stage, Codec: codec, Outcome: outcome}
	m.stageMu.RLock()
	h, ok := m.perStage[k]
	m.stageMu.RUnlock()
	if ok {
		return h
	}
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	if h, ok := m.perStage[k]; ok {
		return h
	}
	h = &Histogram{}
	m.perStage[k] = h
	return h
}

// codecNames returns the codecs with histograms, sorted.
func (m *Metrics) codecNames() []string {
	m.mu.RLock()
	names := make([]string, 0, len(m.perCodec))
	for name := range m.perCodec {
		names = append(names, name)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	return names
}

// stageKeys returns the populated stage series, sorted for stable
// exposition order.
func (m *Metrics) stageKeys() []StageKey {
	m.stageMu.RLock()
	keys := make([]StageKey, 0, len(m.perStage))
	for k := range m.perStage {
		keys = append(keys, k)
	}
	m.stageMu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Codec != b.Codec {
			return a.Codec < b.Codec
		}
		return a.Outcome < b.Outcome
	})
	return keys
}

// scrape is one reading of every source the metric list renders,
// taken once per request.
type scrape struct {
	m     *Metrics
	cache CacheStats
	pool  PoolStats
	st    *store.Stats // nil when no store is configured
	ver   pack.VerifyStats
	rec   obs.RecorderStats
}

// series is one row of the metric list: a Prometheus sample, a
// /metrics table row, or both, reading one value from a scrape.
type series struct {
	// Prometheus family; typ and help go on the family's first row
	// only. An empty name keeps the row out of /metrics/prom.
	name, typ, help string
	label, value    string // the sample's one label, if any
	// /metrics table title and row name; an empty table keeps the row
	// out of /metrics. prec is the cell's decimal places.
	table, row string
	prec       int
	store      bool // rendered only when a disk store is configured
	read       func(*scrape) float64
	// emit writes a family's samples in place of read, for label sets
	// known only at scrape time; tab builds a whole table, with its own
	// columns, in place of table, row and read.
	emit func(p *obs.PromWriter, name string, s *scrape)
	tab  func(*scrape) *report.Table
}

// metricSeries is every metric apcc-serve exports, in /metrics/prom
// order. The /metrics tables follow the list too: a table starts at
// its first row, so a table's rows must be contiguous. A new counter
// is one row here. Family names are fixed at compile time, so scrape
// configs survive restarts (pinned by TestPromNamesStableAcrossRestarts).
var metricSeries = []series{
	{name: "apcc_uptime_seconds", typ: "gauge", help: "Seconds since the server started.",
		table: "service", row: "uptime_seconds", prec: 1, read: func(s *scrape) float64 { return time.Since(s.m.start).Seconds() }},
	{name: "apcc_http_requests_total", typ: "counter", help: "HTTP requests received.",
		table: "service", row: "requests_total", read: func(s *scrape) float64 { return float64(s.m.Requests.Load()) }},
	{name: "apcc_http_errors_total", typ: "counter", help: "HTTP responses with status >= 400.",
		table: "service", row: "errors_total", read: func(s *scrape) float64 { return float64(s.m.Errors.Load()) }},
	{name: "apcc_http_in_flight", typ: "gauge", help: "HTTP requests currently being handled.",
		table: "service", row: "in_flight", read: func(s *scrape) float64 { return float64(s.m.InFlight.Load()) }},
	{name: "apcc_packs_built_total", typ: "counter", help: "Containers built (not cached re-serves).",
		table: "service", row: "packs_built_total", read: func(s *scrape) float64 { return float64(s.m.Packs.Load()) }},
	{name: "apcc_blocks_served_total", typ: "counter", help: "Block fetches served.",
		table: "service", row: "blocks_served_total", read: func(s *scrape) float64 { return float64(s.m.Blocks.Load()) }},
	{table: "service", row: "word_reads_total",
		read: func(s *scrape) float64 { return float64(s.m.StoreWordReads.Load() + s.m.WordFallbacks.Load()) }},
	{name: "apcc_payload_bytes_total", typ: "counter", help: "Payload bytes written to clients.",
		table: "service", row: "payload_bytes_total", read: func(s *scrape) float64 { return float64(s.m.BytesSent.Load()) }},
	{name: "apcc_word_reads_total", typ: "counter",
		help:  "Word-span reads served, by source (store = v3 group directory, memory = entry plain image).",
		label: "source", value: "store", read: func(s *scrape) float64 { return float64(s.m.StoreWordReads.Load()) }},
	{name: "apcc_word_reads_total", label: "source", value: "memory",
		read: func(s *scrape) float64 { return float64(s.m.WordFallbacks.Load()) }},

	{name: "apcc_cache_events_total", typ: "counter", help: "Block-cache events by kind.", label: "event", value: "hit",
		table: "block cache", row: "hits", read: func(s *scrape) float64 { return float64(s.cache.Hits) }},
	{name: "apcc_cache_events_total", label: "event", value: "miss",
		table: "block cache", row: "misses", read: func(s *scrape) float64 { return float64(s.cache.Misses) }},
	{name: "apcc_cache_events_total", label: "event", value: "coalesced",
		table: "block cache", row: "coalesced", read: func(s *scrape) float64 { return float64(s.cache.Coalesced) }},
	{name: "apcc_cache_events_total", label: "event", value: "wait_abort",
		table: "block cache", row: "wait_aborts", read: func(s *scrape) float64 { return float64(s.cache.WaitAborts) }},
	{table: "block cache", row: "hit_rate", prec: 4, read: func(s *scrape) float64 { return s.cache.HitRate() }},
	{name: "apcc_cache_events_total", label: "event", value: "eviction",
		table: "block cache", row: "evictions", read: func(s *scrape) float64 { return float64(s.cache.Evictions) }},
	{name: "apcc_cache_entries", typ: "gauge", help: "Resident block-cache entries.",
		table: "block cache", row: "entries", read: func(s *scrape) float64 { return float64(s.cache.Entries) }},
	{name: "apcc_cache_bytes", typ: "gauge", help: "Resident block-cache bytes.",
		table: "block cache", row: "bytes", read: func(s *scrape) float64 { return float64(s.cache.Bytes) }},

	{name: "apcc_pool_workers", typ: "gauge", help: "Worker-pool size.",
		table: "worker pool", row: "workers", read: func(s *scrape) float64 { return float64(s.pool.Workers) }},
	{name: "apcc_pool_jobs_total", typ: "counter", help: "Worker-pool jobs by state.", label: "state", value: "submitted",
		table: "worker pool", row: "submitted", read: func(s *scrape) float64 { return float64(s.pool.Submitted) }},
	{name: "apcc_pool_jobs_total", label: "state", value: "completed",
		table: "worker pool", row: "completed", read: func(s *scrape) float64 { return float64(s.pool.Completed) }},
	{name: "apcc_pool_batches_total", typ: "counter", help: "Worker wakeups (Completed/Batches = mean batch).",
		table: "worker pool", row: "batches", read: func(s *scrape) float64 { return float64(s.pool.Batches) }},
	{table: "worker pool", row: "mean_batch", prec: 2, read: func(s *scrape) float64 { return s.pool.MeanBatch() }},
	{name: "apcc_pool_in_flight", typ: "gauge", help: "Jobs submitted but not finished.",
		table: "worker pool", row: "in_flight", read: func(s *scrape) float64 { return float64(s.pool.InFlight) }},
	{tab: codecLatencyTable},

	{name: "apcc_verify_unpacks_total", typ: "counter",
		help:  "Container verification unpacks by mode (reused = cached skeleton fast path).",
		label: "mode", value: "full", read: func(s *scrape) float64 { return float64(s.ver.Full) }},
	{name: "apcc_verify_unpacks_total", label: "mode", value: "reused",
		read: func(s *scrape) float64 { return float64(s.ver.Reused) }},
	{name: "apcc_verify_unpack_seconds_total", typ: "counter", help: "Cumulative seconds spent in verification unpacks.",
		read: func(s *scrape) float64 { return time.Duration(s.ver.NS).Seconds() }},

	{name: "apcc_shed_total", typ: "counter", help: "Requests rejected 429 by queue-depth admission control.",
		table: "resilience", row: "shed_total", read: func(s *scrape) float64 { return float64(s.m.Shed.Load()) }},
	{name: "apcc_retries_total", typ: "counter", help: "Transient L2 read retry loops by outcome.",
		label: "outcome", value: "success", table: "resilience", row: "retry_success_total",
		read: func(s *scrape) float64 { return float64(s.m.RetrySuccess.Load()) }},
	{name: "apcc_retries_total", label: "outcome", value: "exhausted", table: "resilience", row: "retry_exhausted_total",
		read: func(s *scrape) float64 { return float64(s.m.RetryExhausted.Load()) }},
	{name: "apcc_retries_total", label: "outcome", value: "aborted", table: "resilience", row: "retry_aborted_total",
		read: func(s *scrape) float64 { return float64(s.m.RetryAborted.Load()) }},
	{name: "apcc_breaker_state", typ: "gauge", help: "Entry circuit breakers currently in each non-closed state.",
		label: "state", value: "open", table: "resilience", row: "breaker_open",
		read: func(s *scrape) float64 { return float64(s.m.BreakerOpen.Load()) }},
	{name: "apcc_breaker_state", label: "state", value: "half-open", table: "resilience", row: "breaker_half_open",
		read: func(s *scrape) float64 { return float64(s.m.BreakerHalfOpen.Load()) }},
	{name: "apcc_breaker_transitions_total", typ: "counter", help: "Circuit-breaker state transitions by kind.",
		label: "kind", value: "open", table: "resilience", row: "breaker_opens_total",
		read: func(s *scrape) float64 { return float64(s.m.BreakerOpens.Load()) }},
	{name: "apcc_breaker_transitions_total", label: "kind", value: "close", table: "resilience", row: "breaker_closes_total",
		read: func(s *scrape) float64 { return float64(s.m.BreakerCloses.Load()) }},
	{name: "apcc_breaker_transitions_total", label: "kind", value: "probe", table: "resilience", row: "breaker_probes_total",
		read: func(s *scrape) float64 { return float64(s.m.BreakerProbes.Load()) }},
	{name: "apcc_breaker_rejects_total", typ: "counter", help: "L2 reads skipped because an entry's breaker was open.",
		table: "resilience", row: "breaker_rejects_total", read: func(s *scrape) float64 { return float64(s.m.BreakerRejects.Load()) }},
	{name: "apcc_faults_injected_total", typ: "counter", emit: emitFaults,
		help: "Failpoint activations by site and action kind (zero when fault injection is disabled)."},

	{name: "apcc_trace_records_total", typ: "counter", help: "Request traces recorded to the ring buffer.",
		read: func(s *scrape) float64 { return float64(s.rec.Recorded) }},
	{name: "apcc_trace_truncated_total", typ: "counter", help: "Traces that hit the per-trace span cap.",
		read: func(s *scrape) float64 { return float64(s.rec.Truncated) }},

	{name: "apcc_store_objects", typ: "gauge", help: "Objects in the disk store.", store: true,
		table: "disk store", row: "objects", read: func(s *scrape) float64 { return float64(s.st.Objects) }},
	{name: "apcc_store_refs", typ: "gauge", help: "Named refs in the disk store.", store: true,
		table: "disk store", row: "refs", read: func(s *scrape) float64 { return float64(s.st.Refs) }},
	{name: "apcc_store_warm_restores_total", typ: "counter", help: "Entries restored from the store without packing.", store: true,
		table: "disk store", row: "warm_restores", read: func(s *scrape) float64 { return float64(s.m.StoreWarm.Load()) }},
	{name: "apcc_store_persists_total", typ: "counter", help: "Containers persisted to the store.", store: true,
		table: "disk store", row: "containers_persisted", read: func(s *scrape) float64 { return float64(s.m.StorePersists.Load()) }},
	{name: "apcc_store_l2_events_total", typ: "counter", help: "L2 tier events by kind.", store: true, label: "event", value: "hit",
		table: "disk store", row: "l2_block_hits", read: func(s *scrape) float64 { return float64(s.m.StoreL2Hits.Load()) }},
	{name: "apcc_store_l2_events_total", store: true, label: "event", value: "miss",
		table: "disk store", row: "l2_block_misses", read: func(s *scrape) float64 { return float64(s.m.StoreL2Misses.Load()) }},
	{name: "apcc_store_l2_events_total", store: true, label: "event", value: "readahead_admit",
		table: "disk store", row: "readahead_admitted", read: func(s *scrape) float64 { return float64(s.m.StoreReadahead.Load()) }},
	{name: "apcc_store_block_reads_total", typ: "counter", help: "Blocks read from store objects.", store: true,
		table: "disk store", row: "block_reads", read: func(s *scrape) float64 { return float64(s.st.BlockReads) }},
	{name: "apcc_store_block_read_bytes_total", typ: "counter", help: "Compressed bytes read from store objects.", store: true,
		table: "disk store", row: "block_read_bytes", read: func(s *scrape) float64 { return float64(s.st.BlockBytes) }},
	{name: "apcc_store_word_reads_total", typ: "counter", help: "Word-group reads through store objects' group directories.", store: true,
		table: "disk store", row: "word_reads", read: func(s *scrape) float64 { return float64(s.st.WordReads) }},
	{name: "apcc_store_word_read_bytes_total", typ: "counter", help: "Compressed bytes read by word-group reads.", store: true,
		table: "disk store", row: "word_read_bytes", read: func(s *scrape) float64 { return float64(s.st.WordReadBytes) }},
	{name: "apcc_store_put_bytes_total", typ: "counter", help: "Bytes written to the store.", store: true,
		table: "disk store", row: "put_bytes", read: func(s *scrape) float64 { return float64(s.st.PutBytes) }},
	{name: "apcc_store_quarantined_total", typ: "counter", help: "Objects quarantined as corrupt.", store: true,
		table: "disk store", row: "quarantined", read: func(s *scrape) float64 { return float64(s.st.Quarantined) }},

	{name: "apcc_block_serve_seconds", typ: "histogram", help: "End-to-end block serve latency by codec.",
		emit: emitCodecHists},
	{name: "apcc_block_stage_seconds", typ: "histogram", emit: emitStageHists,
		help: "Per-stage exclusive latency of block serving, attributed by stage, codec and outcome."},
}

func emitFaults(p *obs.PromWriter, name string, _ *scrape) {
	for _, site := range faults.Snapshot() {
		for _, kind := range []string{faults.KindLatency, faults.KindTransient, faults.KindBitFlip} {
			p.Sample(name, []obs.Label{{Name: "site", Value: site.Name}, {Name: "kind", Value: kind}},
				float64(site.Injected[kind]))
		}
	}
}

func emitCodecHists(p *obs.PromWriter, name string, s *scrape) {
	for _, codec := range s.m.codecNames() {
		s.m.CodecHist(codec).writeProm(p, name, []obs.Label{{Name: "codec", Value: codec}})
	}
}

func codecLatencyTable(s *scrape) *report.Table {
	t := report.NewTable("block latency by codec", "codec", "count", "mean", "p50", "p90", "p99")
	for _, codec := range s.m.codecNames() {
		h := s.m.CodecHist(codec)
		t.AddRow(codec, h.Count(), h.Mean().String(),
			h.Quantile(0.50).String(), h.Quantile(0.90).String(), h.Quantile(0.99).String())
	}
	return t
}

func emitStageHists(p *obs.PromWriter, name string, s *scrape) {
	for _, k := range s.m.stageKeys() {
		s.m.StageHist(k.Stage, k.Codec, k.Outcome).writeProm(p, name, []obs.Label{
			{Name: "stage", Value: k.Stage},
			{Name: "codec", Value: k.Codec},
			{Name: "outcome", Value: k.Outcome},
		})
	}
}

// writeProm renders the metric list as Prometheus text exposition
// (version 0.0.4).
func writeProm(w io.Writer, s *scrape) error {
	p := obs.NewPromWriter(w)
	for _, r := range metricSeries {
		if r.name == "" || r.store && s.st == nil {
			continue
		}
		if r.help != "" {
			p.Family(r.name, r.typ, r.help)
		}
		switch {
		case r.emit != nil:
			r.emit(p, r.name, s)
		case r.label != "":
			p.Sample(r.name, []obs.Label{{Name: r.label, Value: r.value}}, r.read(s))
		default:
			p.Sample(r.name, nil, r.read(s))
		}
	}
	return p.Err()
}

// writeTables renders the metric list through internal/report: CSV
// (one table after another, separated by blank lines) or aligned text
// tables. The disk store table is omitted without a store.
func writeTables(w io.Writer, s *scrape, csv bool) error {
	var tables []*report.Table
	var title string
	for _, r := range metricSeries {
		switch {
		case r.tab != nil:
			tables, title = append(tables, r.tab(s)), ""
		case r.table == "" || r.store && s.st == nil:
		default:
			if r.table != title {
				tables, title = append(tables, report.NewTable(r.table, "metric", "value")), r.table
			}
			tables[len(tables)-1].AddRow(r.row, strconv.FormatFloat(r.read(s), 'f', r.prec, 64))
		}
	}
	for _, t := range tables {
		body := t.String()
		if csv {
			body = t.CSV()
		}
		if _, err := io.WriteString(w, body+"\n"); err != nil {
			return err
		}
	}
	return nil
}
