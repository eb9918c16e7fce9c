package service

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"apbcc/internal/pack"
	"apbcc/internal/store"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics_golden.{prom,csv} from the current renderers")

// metricsFixture is a Metrics with every counter at a distinct value,
// two codec and two stage histograms with fixed observations, and
// fixed cache, pool, store and verification stats.
func metricsFixture(t *testing.T) (*Metrics, CacheStats, PoolStats, store.Stats, pack.VerifyStats) {
	t.Helper()
	m := NewMetrics()
	for _, c := range []struct {
		v *atomic.Int64
		n int64
	}{
		{&m.Requests, 11}, {&m.Errors, 12}, {&m.InFlight, 13}, {&m.Packs, 14},
		{&m.Blocks, 15}, {&m.BytesSent, 16},
		{&m.StoreWordReads, 17}, {&m.WordFallbacks, 18},
		{&m.StoreWarm, 19}, {&m.StorePersists, 20}, {&m.StoreL2Hits, 21},
		{&m.StoreL2Misses, 22}, {&m.StoreReadahead, 23},
		{&m.Shed, 24}, {&m.RetrySuccess, 25}, {&m.RetryExhausted, 26}, {&m.RetryAborted, 27},
		{&m.BreakerRejects, 28}, {&m.BreakerOpens, 29}, {&m.BreakerCloses, 30},
		{&m.BreakerProbes, 31}, {&m.BreakerOpen, 32}, {&m.BreakerHalfOpen, 33},
	} {
		c.v.Store(c.n)
	}
	// A counter added to Metrics must be added to the fixture above.
	seen := map[int64]string{}
	mv := reflect.ValueOf(m).Elem()
	for i := 0; i < mv.NumField(); i++ {
		f := mv.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		c, ok := mv.Field(i).Addr().Interface().(*atomic.Int64)
		if !ok {
			continue
		}
		name := f.Name
		if c.Load() == 0 {
			t.Fatalf("fixture leaves Metrics.%s at zero", name)
		}
		if prev, dup := seen[c.Load()]; dup {
			t.Fatalf("fixture gives Metrics.%s and Metrics.%s the same value", prev, name)
		}
		seen[c.Load()] = name
	}

	for _, o := range []struct {
		h *Histogram
		d []time.Duration
	}{
		{m.CodecHist("dict"), []time.Duration{3 * time.Microsecond, 40 * time.Microsecond, 2 * time.Second}},
		{m.CodecHist("rle"), []time.Duration{700 * time.Microsecond}},
		{m.StageHist("l1", "dict", "hit"), []time.Duration{2 * time.Microsecond}},
		{m.StageHist("decode", "rle", "ok"), []time.Duration{30 * time.Microsecond, 60 * time.Millisecond}},
	} {
		for _, d := range o.d {
			o.h.Observe(d)
		}
	}
	cache := CacheStats{Hits: 501, Misses: 502, Coalesced: 503, WaitAborts: 504, Evictions: 505, Entries: 506, Bytes: 507}
	pool := PoolStats{Workers: 3, Submitted: 601, Completed: 602, Batches: 603, InFlight: 604}
	st := store.Stats{Objects: 701, Refs: 702, Puts: 703, PutBytes: 704, Gets: 705, BlockReads: 706,
		BlockBytes: 707, WordReads: 708, WordReadBytes: 709, Quarantined: 710}
	ver := pack.VerifyStats{Full: 801, Reused: 802, NS: 1_234_567_890}
	return m, cache, pool, st, ver
}

// renderMetrics renders both endpoints' bodies for one fixture; st may
// be nil (no disk store). Tracing is off.
func renderMetrics(t *testing.T, m *Metrics, cache CacheStats, pool PoolStats, st *store.Stats, ver pack.VerifyStats) (prom, csv string) {
	t.Helper()
	sc := &scrape{m: m, cache: cache, pool: pool, st: st, ver: ver}
	var p, c bytes.Buffer
	if err := writeProm(&p, sc); err != nil {
		t.Fatal(err)
	}
	if err := writeTables(&c, sc, true); err != nil {
		t.Fatal(err)
	}
	return p.String(), c.String()
}

var uptimeLine = regexp.MustCompile(`(?m)^(apcc_uptime_seconds |uptime_seconds,)\S+$`)

func maskUptime(s string) string { return uptimeLine.ReplaceAllString(s, "${1}UPTIME") }

// csvTables splits a /metrics?format=csv body into its tables: the
// header line, then the data rows sorted.
func csvTables(body string) [][]string {
	var out [][]string
	for _, chunk := range strings.Split(strings.TrimSpace(body), "\n\n") {
		lines := strings.Split(chunk, "\n")
		sort.Strings(lines[1:])
		out = append(out, lines)
	}
	return out
}

// TestMetricsRenderGolden pins both metrics endpoints for a fixture
// with every counter distinct: /metrics/prom byte for byte, /metrics
// per table as a set of rows. Without a disk store, the store
// families and the store table are the only things that go.
func TestMetricsRenderGolden(t *testing.T) {
	resetFaults(t)
	m, cache, pool, st, ver := metricsFixture(t)
	prom, csv := renderMetrics(t, m, cache, pool, &st, ver)
	prom, csv = maskUptime(prom), maskUptime(csv)

	promPath := filepath.Join("testdata", "metrics_golden.prom")
	csvPath := filepath.Join("testdata", "metrics_golden.csv")
	if *updateGolden {
		if err := os.WriteFile(promPath, []byte(prom), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantProm, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if prom != string(wantProm) {
		t.Errorf("/metrics/prom differs from %s:\n%s", promPath, prom)
	}
	if got, want := csvTables(csv), csvTables(string(wantCSV)); !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics tables differ from %s:\n got %q\nwant %q", csvPath, got, want)
	}

	prom, csv = renderMetrics(t, m, cache, pool, nil, ver)
	var storeless []string
	for _, line := range strings.SplitAfter(string(wantProm), "\n") {
		if !strings.Contains(line, "apcc_store_") {
			storeless = append(storeless, line)
		}
	}
	if got, want := maskUptime(prom), strings.Join(storeless, ""); got != want {
		t.Errorf("storeless /metrics/prom is not the golden minus its store families:\n%s", got)
	}
	if got, want := csvTables(maskUptime(csv)), csvTables(string(wantCSV)); !reflect.DeepEqual(got, want[:len(want)-1]) {
		t.Errorf("storeless /metrics tables are not the golden minus the disk store table:\n%q", got)
	}
}
