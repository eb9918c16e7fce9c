package service

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/obs"
)

// promFamilies extracts the "# TYPE name typ" declarations from an
// exposition body, name -> type.
func promFamilies(body string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			out[fields[2]] = fields[3]
		}
	}
	return out
}

// TestPromEndpointValid: after real traffic (including the disk-store
// tier), /metrics/prom passes the exposition linter and carries every
// family of the metric list with its declared type, /metrics carries
// every table row of the list, and the per-stage attribution
// histograms are populated.
func TestPromEndpointValid(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{
		Workers: 4, StoreDir: t.TempDir(),
	})
	get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=rle") // miss
	get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=rle") // hit
	get(t, ts.Client(), ts.URL+"/v1/pack/nosuch")             // error

	code, body, hdr := get(t, ts.Client(), ts.URL+"/metrics/prom")
	if code != http.StatusOK {
		t.Fatalf("prom endpoint: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	samples, err := obs.LintProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	if samples == 0 {
		t.Fatal("no samples")
	}

	fams := promFamilies(string(body))
	rows := metricsCSV(t, ts.Client(), ts.URL)
	for _, r := range metricSeries {
		if r.typ != "" && fams[r.name] != r.typ {
			t.Errorf("family %s has type %q in the exposition, want %q", r.name, fams[r.name], r.typ)
		}
		if _, ok := rows[r.row]; r.row != "" && !ok {
			t.Errorf("/metrics table %q is missing row %s", r.table, r.row)
		}
	}
	// The traffic above must have produced stage attribution series.
	for _, want := range []string{
		`apcc_block_stage_seconds_bucket{stage="l1",codec="rle",outcome="hit"`,
		`apcc_block_stage_seconds_bucket{stage="route"`,
		`apcc_block_stage_seconds_bucket{stage="write"`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestCodecMixPopulatesPromLabels drives the codecmix scenario end to
// end against one server and asserts the Prometheus exposition then
// carries per-stage decode attribution for every registered codec —
// in particular the word-pattern codecs, whose serving path (pack,
// L1/L2, decode, verify) must be exercised by the mix, not just by
// unit tests.
func TestCodecMixPopulatesPromLabels(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{Workers: 4, StoreDir: t.TempDir()})
	mix, err := RunCodecMix(context.Background(), LoadConfig{
		BaseURL:  ts.URL,
		Workload: "crc32",
		Clients:  2,
		Steps:    40,
		Seed:     7,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(compress.Names()); len(mix) != want {
		t.Fatalf("mix legs = %d, want %d", len(mix), want)
	}
	for _, leg := range mix {
		if leg.Stats.Errors != 0 {
			t.Errorf("%s: %d errors, first: %v", leg.Codec, leg.Stats.Errors, leg.Stats.FirstError)
		}
		if leg.Stats.Requests == 0 {
			t.Errorf("%s: no fetches", leg.Codec)
		}
	}
	_, body, _ := get(t, ts.Client(), ts.URL+"/metrics/prom")
	if _, err := obs.LintProm(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid after mix: %v", err)
	}
	for _, codec := range compress.Names() {
		series := fmt.Sprintf(`apcc_block_stage_seconds_bucket{stage="l1",codec=%q`, codec)
		if !strings.Contains(string(body), series) {
			t.Errorf("exposition missing stage series for codec %s", codec)
		}
	}
}

// TestMetricsCSVDialect: every table /metrics?format=csv emits parses
// with encoding/csv — rectangular, properly quoted, header first.
func TestMetricsCSVDialect(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{Workers: 2, StoreDir: t.TempDir()})
	get(t, ts.Client(), ts.URL+"/v1/block/sha/0?codec=dict")
	_, body, _ := get(t, ts.Client(), ts.URL+"/metrics?format=csv")

	tables := 0
	for _, chunk := range strings.Split(string(body), "\n\n") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		tables++
		r := csv.NewReader(strings.NewReader(chunk))
		recs, err := r.ReadAll()
		if err != nil {
			t.Fatalf("table %d not valid CSV: %v\n%s", tables, err, chunk)
		}
		if len(recs) < 2 {
			t.Errorf("table %d has no data rows:\n%s", tables, chunk)
		}
		for i, rec := range recs[1:] {
			if len(rec) != len(recs[0]) {
				t.Errorf("table %d row %d: %d fields, header has %d", tables, i+1, len(rec), len(recs[0]))
			}
		}
	}
	// service, cache, pool, latency, resilience, store.
	if tables != 6 {
		t.Errorf("got %d CSV tables, want 6", tables)
	}
}

// TestPromNamesStableAcrossRestarts: the family name set a scrape
// config binds to survives a server restart against the same store.
func TestPromNamesStableAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	scrape := func() []string {
		_, ts := newTestServerConfig(t, Config{Workers: 2, StoreDir: dir})
		get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict")
		_, body, _ := get(t, ts.Client(), ts.URL+"/metrics/prom")
		fams := promFamilies(string(body))
		names := make([]string, 0, len(fams))
		for name := range fams {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	first, second := scrape(), scrape()
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("family names changed across restart:\n first: %v\nsecond: %v", first, second)
	}
}

// TestDebugTraceAndStageSum is the tracing acceptance test: a loadgen
// run against a traced server yields (a) a /debug/trace dump that
// passes the lint and carries span trees, (b) per-request stage
// attribution in the X-Apcc-Stages headers collected via TraceOut, and
// (c) per-stage exclusive times that sum to within 10% of the
// end-to-end block latency in aggregate.
func TestDebugTraceAndStageSum(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{Workers: 4, TraceRing: 1024})
	var traceOut bytes.Buffer
	var mu sync.Mutex
	stats, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:  ts.URL,
		Workload: "fft",
		Codec:    "dict",
		Clients:  8,
		Steps:    50,
		Seed:     11,
		Client:   ts.Client(),
		TraceOut: lockedWriter{&mu, &traceOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("loadgen errors: %d, first: %v", stats.Errors, stats.FirstError)
	}

	// (a) the dump endpoint.
	code, body, _ := get(t, ts.Client(), ts.URL+"/debug/trace?n=500")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: %d", code)
	}
	traces, spans, err := obs.LintTraceDump(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("trace dump invalid: %v", err)
	}
	if traces == 0 || spans == 0 {
		t.Fatalf("empty trace dump: %d traces, %d spans", traces, spans)
	}

	// (c) stage attribution accounts for the end-to-end latency: over
	// the dump, summed exclusive span time within 10% of summed totals.
	var d obs.Dump
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	var excl, total int64
	for _, rec := range d.Traces {
		total += rec.TotalNS
		for _, sp := range rec.Spans {
			excl += sp.ExclNS
		}
		for i, sp := range rec.Spans {
			if sp.ExclNS < 0 {
				t.Fatalf("trace %d span %d (%s): negative exclusive %d", rec.ID, i, sp.Stage, sp.ExclNS)
			}
		}
	}
	ratio := float64(excl) / float64(total)
	if ratio < 0.90 || ratio > 1.001 {
		t.Errorf("stage exclusive sum = %.1f%% of end-to-end total, want within 10%%", ratio*100)
	}

	// (b) the loadgen joined server attribution into its records.
	recs := 0
	withStages := 0
	dec := json.NewDecoder(bytes.NewReader(traceOut.Bytes()))
	for dec.More() {
		var rec FetchRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("trace-out line %d: %v", recs, err)
		}
		recs++
		if rec.TraceID > 0 && len(rec.Stages) > 0 {
			withStages++
			if _, ok := rec.Stages[obs.StageL1]; !ok {
				t.Fatalf("record missing l1 stage: %+v", rec)
			}
		}
	}
	if int64(recs) != stats.Requests {
		t.Errorf("trace-out has %d records, loadgen made %d requests", recs, stats.Requests)
	}
	if withStages == 0 {
		t.Error("no trace-out record carried stage attribution")
	}
}

// lockedWriter serializes concurrent writes in tests (the sink already
// locks, but the bytes.Buffer itself must not be raced by Read later).
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestTracingDisabled: with TraceRing < 0 the endpoint is gone and
// responses carry no trace headers.
func TestTracingDisabled(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{Workers: 2, TraceRing: -1})
	_, _, hdr := get(t, ts.Client(), ts.URL+"/v1/block/crc32/0?codec=dict")
	if hdr.Get(HeaderTrace) != "" || hdr.Get(HeaderStages) != "" {
		t.Errorf("trace headers present with tracing disabled: %q %q",
			hdr.Get(HeaderTrace), hdr.Get(HeaderStages))
	}
	code, _, _ := get(t, ts.Client(), ts.URL+"/debug/trace")
	if code != http.StatusNotFound {
		t.Errorf("/debug/trace with tracing disabled: %d, want 404", code)
	}
	// The exposition stays valid with zeroed trace counters.
	_, body, _ := get(t, ts.Client(), ts.URL+"/metrics/prom")
	if _, err := obs.LintProm(bytes.NewReader(body)); err != nil {
		t.Errorf("exposition invalid with tracing disabled: %v", err)
	}
}

// TestTraceHeadersOnHit: the serving path advertises its trace id and
// stage breakdown, and the stages parse back through the loadgen's
// header parser.
func TestTraceHeadersOnHit(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts.Client(), ts.URL+"/v1/block/crc32/1?codec=dict")
	_, _, hdr := get(t, ts.Client(), ts.URL+"/v1/block/crc32/1?codec=dict")
	if hdr.Get(HeaderTrace) == "" {
		t.Fatal("no trace id header")
	}
	stages := parseStagesHeader(hdr.Get(HeaderStages))
	for _, want := range []string{obs.StageRoute, obs.StageL1} {
		if _, ok := stages[want]; !ok {
			t.Errorf("stages header %q missing %s", hdr.Get(HeaderStages), want)
		}
	}
	if _, ok := stages[obs.StageWrite]; ok {
		t.Error("write stage leaked into the header (still open when rendered)")
	}
}

// TestMetricsLookupAllocFree pins the RWMutex fast path: resident
// codec and stage histogram lookups allocate nothing (satellite for
// the old per-serve mutex + map-write behavior).
func TestMetricsLookupAllocFree(t *testing.T) {
	m := NewMetrics()
	m.CodecHist("dict")
	m.StageHist(obs.StageL1, "dict", obs.OutcomeHit)
	allocs := testing.AllocsPerRun(200, func() {
		m.CodecHist("dict").Observe(time.Microsecond)
		m.StageHist(obs.StageL1, "dict", obs.OutcomeHit).Observe(30 * time.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("resident histogram lookup allocates %v/op, want 0", allocs)
	}
}

// TestCacheHitPathAllocFree pins the untraced L1 hit: context plumbing
// through GetOrCompute must not add allocations when no trace is
// attached.
func TestCacheHitPathAllocFree(t *testing.T) {
	c := NewBlockCache(1, 1<<20)
	ctx := context.Background()
	if _, _, err := c.GetOrCompute(ctx, "k", func() ([]byte, error) {
		return []byte("v"), nil
	}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, hit, _ := c.GetOrCompute(ctx, "k", nil)
		if !hit {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Errorf("untraced hit path allocates %v/op, want 0", allocs)
	}
}

// TestEvictionStormCallback: one insert displacing >= stormThreshold
// residents fires the callback with the count, outside the shard lock.
func TestEvictionStormCallback(t *testing.T) {
	c := NewBlockCache(1, 64)
	var mu sync.Mutex
	var gotKey string
	var gotEvicted int
	c.SetEvictionStormFn(func(key string, evicted int) {
		// Re-entering the cache proves the callback runs unlocked.
		c.Contains("anything")
		mu.Lock()
		gotKey, gotEvicted = key, evicted
		mu.Unlock()
	})
	for i := 0; i < 16; i++ {
		if !c.Add(fmt.Sprintf("k%02d", i), []byte("abcd")) {
			t.Fatalf("seed entry %d not admitted", i)
		}
	}
	if !c.Add("big", make([]byte, 60)) {
		t.Fatal("storm entry not admitted")
	}
	mu.Lock()
	defer mu.Unlock()
	if gotKey != "big" || gotEvicted < stormThreshold {
		t.Errorf("storm callback got (%q, %d), want (big, >=%d)", gotKey, gotEvicted, stormThreshold)
	}
}

// TestHistogramSnapshotCumulative: snapshot returns cumulative counts
// whose final entry equals the observation count — the invariant the
// +Inf bucket and _count share in the exposition.
func TestHistogramSnapshotCumulative(t *testing.T) {
	var h Histogram
	h.Observe(30 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	h.Observe(3 * time.Second) // overflow
	cum, sumNS := h.snapshot()
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("snapshot not cumulative at %d: %v", i, cum)
		}
	}
	if cum[numBuckets-1] != 3 {
		t.Errorf("final cumulative = %d, want 3", cum[numBuckets-1])
	}
	if want := int64(2*30*time.Microsecond + 3*time.Second); sumNS != want {
		t.Errorf("sumNS = %d, want %d", sumNS, want)
	}
}
