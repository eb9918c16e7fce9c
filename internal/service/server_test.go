package service

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"apbcc/internal/pack"
	"apbcc/internal/workloads"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerConfig(t, Config{CacheShards: 8, CacheBytes: 8 << 20, Workers: 4, QueueDepth: 64, MaxBatch: 4})
}

func newTestServerConfig(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func get(t *testing.T, client *http.Client, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body, resp.Header
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, body, _ := get(t, ts.Client(), ts.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

func TestPackEndpointRoundTrips(t *testing.T) {
	_, ts := newTestServer(t)
	for _, codec := range []string{"dict", "lzss", "huffman", "rle", "identity", "cpack", "bdi"} {
		code, body, hdr := get(t, ts.Client(), ts.URL+"/v1/pack/crc32?codec="+codec)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", codec, code, body)
		}
		if got := hdr.Get(HeaderCodec); got != codec {
			t.Errorf("%s: codec header = %q", codec, got)
		}
		p, c, _, err := pack.Unpack("crc32", body)
		if err != nil {
			t.Fatalf("%s: served container fails Unpack: %v", codec, err)
		}
		if c.Name() != codec {
			t.Errorf("unpacked codec = %q, want %q", c.Name(), codec)
		}
		wl, err := workloads.ByName("crc32")
		if err != nil {
			t.Fatal(err)
		}
		if p.Graph.NumBlocks() != wl.Program.Graph.NumBlocks() {
			t.Errorf("%s: blocks = %d, want %d", codec, p.Graph.NumBlocks(), wl.Program.Graph.NumBlocks())
		}
	}
}

func TestPackAsmEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	src := `
		start:
			addi r1, r0, 10
		loop:
			addi r1, r1, -1
			bne  r1, r0, loop
			halt
	`
	resp, err := ts.Client().Post(ts.URL+"/v1/pack?name=countdown&codec=lzss", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	p, _, _, err := pack.Unpack("countdown", body)
	if err != nil {
		t.Fatalf("posted container fails Unpack: %v", err)
	}
	if p.Name != "countdown" {
		t.Errorf("name = %q", p.Name)
	}

	// Garbage assembly must be rejected, not packed.
	resp, err = ts.Client().Post(ts.URL+"/v1/pack", "text/plain", strings.NewReader("frobnicate r99"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad asm: status %d, want 400", resp.StatusCode)
	}
}

func TestBlockEndpointServesVerifiableBlocks(t *testing.T) {
	_, ts := newTestServer(t)
	code, body, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fir?codec=dict")
	if code != http.StatusOK {
		t.Fatalf("pack: %d", code)
	}
	prog, codec, _, err := pack.Unpack("fir", body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	for id := range want {
		url := fmt.Sprintf("%s/v1/block/fir/%d?codec=dict", ts.URL, id)
		code, payload, hdr := get(t, ts.Client(), url)
		if code != http.StatusOK {
			t.Fatalf("block %d: status %d", id, code)
		}
		if _, err := verifyBlock(codec, payload, hdr, want[id], nil); err != nil {
			t.Fatalf("block %d: %v", id, err)
		}
		words, _ := strconv.Atoi(hdr.Get(HeaderWords))
		if words*4 != len(want[id]) {
			t.Errorf("block %d: words header %d, want %d", id, words, len(want[id])/4)
		}
	}

	// Second pass over block 0 must be a cache hit.
	_, _, hdr := get(t, ts.Client(), ts.URL+"/v1/block/fir/0?codec=dict")
	if hdr.Get(HeaderCache) != "hit" {
		t.Errorf("revisit cache header = %q, want hit", hdr.Get(HeaderCache))
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		url  string
		want int
	}{
		{"/v1/pack/nosuch", http.StatusNotFound},
		{"/v1/pack/fir?codec=nosuch", http.StatusBadRequest},
		{"/v1/block/nosuch/0", http.StatusNotFound},
		{"/v1/block/fir/9999", http.StatusNotFound},
		{"/v1/block/fir/banana", http.StatusNotFound},
		{"/nosuch", http.StatusNotFound},
	}
	for _, c := range cases {
		code, _, _ := get(t, ts.Client(), ts.URL+c.url)
		if code != c.want {
			t.Errorf("%s: status %d, want %d", c.url, code, c.want)
		}
	}
}

func TestFailedBuildsAreNotCached(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < 20; i++ {
		code, _, _ := get(t, ts.Client(), fmt.Sprintf("%s/v1/pack/bogus-%d", ts.URL, i))
		if code != http.StatusNotFound {
			t.Fatalf("bogus workload: status %d", code)
		}
	}
	s.mu.Lock()
	n := len(s.entries)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d failed entries retained, want 0", n)
	}
	// A good request after failures must still work.
	if code, _, _ := get(t, ts.Client(), ts.URL+"/v1/pack/fir?codec=rle"); code != http.StatusOK {
		t.Fatalf("good request after failures: status %d", code)
	}
}

// metricsCSV fetches /metrics?format=csv and returns metric -> value
// for the named table's two-column rows.
func metricsCSV(t *testing.T, client *http.Client, base string) map[string]string {
	t.Helper()
	code, body, _ := get(t, client, base+"/metrics?format=csv")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	out := make(map[string]string)
	for _, tbl := range strings.Split(string(body), "\n\n") {
		r := csv.NewReader(strings.NewReader(tbl))
		r.FieldsPerRecord = -1
		recs, err := r.ReadAll()
		if err != nil {
			t.Fatalf("metrics csv: %v", err)
		}
		for _, rec := range recs {
			if len(rec) == 2 && rec[0] != "metric" {
				out[rec[0]] = rec[1]
			}
		}
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Generate traffic: two fetches of the same block = one miss, one hit.
	get(t, ts.Client(), ts.URL+"/v1/block/sha/0?codec=rle")
	get(t, ts.Client(), ts.URL+"/v1/block/sha/0?codec=rle")
	get(t, ts.Client(), ts.URL+"/v1/pack/nosuch") // one error

	m := metricsCSV(t, ts.Client(), ts.URL)
	checks := []struct {
		key string
		ok  func(float64) bool
	}{
		{"requests_total", func(v float64) bool { return v >= 3 }},
		{"errors_total", func(v float64) bool { return v >= 1 }},
		{"blocks_served_total", func(v float64) bool { return v == 2 }},
		{"hits", func(v float64) bool { return v == 1 }},
		{"misses", func(v float64) bool { return v == 1 }},
		{"hit_rate", func(v float64) bool { return v == 0.5 }},
	}
	for _, c := range checks {
		raw, ok := m[c.key]
		if !ok {
			t.Errorf("metrics missing %q (have %v)", c.key, m)
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || !c.ok(v) {
			t.Errorf("%s = %q, predicate failed", c.key, raw)
		}
	}

	// The aligned-text rendering must mention the latency table.
	code, body, _ := get(t, ts.Client(), ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "block latency by codec") ||
		!strings.Contains(string(body), "rle") {
		t.Errorf("text metrics missing latency table:\n%s", body)
	}
}

func TestListEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	code, body, _ := get(t, ts.Client(), ts.URL+"/v1/workloads")
	if code != http.StatusOK || !strings.Contains(string(body), "crc32") {
		t.Fatalf("workloads: %d\n%s", code, body)
	}
	code, body, _ = get(t, ts.Client(), ts.URL+"/v1/codecs")
	if code != http.StatusOK || !strings.Contains(string(body), "dict") {
		t.Fatalf("codecs: %d\n%s", code, body)
	}
}

// TestLoadgenE2E is the acceptance run: ≥32 concurrent clients replay a
// workload trace over HTTP with zero errors, the cache reports a
// nonzero hit rate on /metrics, and (inside RunLoad) every container
// round-trips through pack.Unpack. Run under -race this doubles as the
// subsystem's concurrency test.
func TestLoadgenE2E(t *testing.T) {
	s, ts := newTestServer(t)
	stats, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:  ts.URL,
		Workload: "fft",
		Codec:    "dict",
		Clients:  32,
		Steps:    100,
		Seed:     7,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("loadgen errors = %d, first: %v", stats.Errors, stats.FirstError)
	}
	if want := int64(32 * 100); stats.Requests != want {
		t.Fatalf("requests = %d, want %d", stats.Requests, want)
	}
	if stats.CacheHits == 0 {
		t.Fatal("no cache hits observed by clients")
	}

	cs := s.CacheStats()
	if cs.HitRate() <= 0 {
		t.Fatalf("server hit rate = %v, want > 0 (stats %+v)", cs.HitRate(), cs)
	}
	m := metricsCSV(t, ts.Client(), ts.URL)
	rate, err := strconv.ParseFloat(m["hit_rate"], 64)
	if err != nil || rate <= 0 {
		t.Fatalf("/metrics hit_rate = %q, want > 0", m["hit_rate"])
	}
}

// TestLoadgenMixedWorkloads hammers several (workload, codec) pairs at
// once so entry building, the cache and the pool all race.
func TestLoadgenMixedWorkloads(t *testing.T) {
	_, ts := newTestServer(t)
	type run struct {
		workload, codec string
	}
	runs := []run{{"crc32", "dict"}, {"fft", "lzss"}, {"sha", "huffman"}, {"fir", "identity"}}
	errc := make(chan error, len(runs))
	for _, r := range runs {
		go func(r run) {
			stats, err := RunLoad(context.Background(), LoadConfig{
				BaseURL: ts.URL, Workload: r.workload, Codec: r.codec,
				Clients: 8, Steps: 50, Client: ts.Client(),
			})
			if err == nil && stats.Errors > 0 {
				err = fmt.Errorf("%s/%s: %d errors, first: %v", r.workload, r.codec, stats.Errors, stats.FirstError)
			}
			errc <- err
		}(r)
	}
	for range runs {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 0; i < 90; i++ {
		h.Observe(histBounds[0] / 2) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(histBounds[len(histBounds)-1] * 3) // overflow bucket
	}
	// Interpolated p50: rank ceil(0.5*100)=50 lands in the first bucket
	// [0, histBounds[0]] holding 90 observations, 50/90 of the way up.
	wantP50 := time.Duration(float64(50) / 90 * float64(histBounds[0]))
	if got := h.Quantile(0.5); got != wantP50 {
		t.Errorf("p50 = %v, want interpolated %v", got, wantP50)
	}
	// The raw bucket upper bound would overstate it by a full bucket.
	if got := h.Quantile(0.5); got >= histBounds[0] {
		t.Errorf("p50 = %v not interpolated below bucket bound %v", got, histBounds[0])
	}
	// A quantile landing in the overflow bucket must report the largest
	// overflow observation actually seen — clamping to the last bound
	// (1s) would silently understate a 3s tail.
	slow := histBounds[len(histBounds)-1] * 3
	if got := h.Quantile(0.99); got != slow {
		t.Errorf("p99 = %v, want overflow max %v", got, slow)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}

	// Small-n boundary: 9 fast + 1 slow, the p99 observation IS the
	// slow one (rank must be ceil(q*n), not floor).
	var h2 Histogram
	for i := 0; i < 9; i++ {
		h2.Observe(histBounds[0] / 2)
	}
	h2.Observe(slow)
	if got := h2.Quantile(0.99); got != slow {
		t.Errorf("small-n p99 = %v, want overflow max %v", got, slow)
	}
	// The overflow max tracks the largest observation, not the latest.
	h2.Observe(2 * time.Second)
	if got := h2.Quantile(0.999); got != slow {
		t.Errorf("p99.9 after smaller overflow = %v, want %v", got, slow)
	}

	// Interior bucket interpolation: 4 observations land in the
	// 25µs..50µs bucket; p50 rank 2 sits 2/4 through its 25µs width.
	var h3 Histogram
	for i := 0; i < 4; i++ {
		h3.Observe(30 * time.Microsecond)
	}
	want := 25*time.Microsecond + time.Duration(0.5*float64(25*time.Microsecond))
	if got := h3.Quantile(0.5); got != want {
		t.Errorf("interior p50 = %v, want %v", got, want)
	}
}

// TestLoadgenScenarioList replays a comma-separated scenario list: the
// clients split round-robin across the named workloads (including the
// skewed/phase scenarios added for policy comparison) with no errors.
func TestLoadgenScenarioList(t *testing.T) {
	_, ts := newTestServer(t)
	stats, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:  ts.URL,
		Workload: "crc32, zipf,loopphase",
		Codec:    "dict",
		Clients:  6,
		Steps:    40,
		Seed:     3,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("loadgen errors = %d, first: %v", stats.Errors, stats.FirstError)
	}
	if want := int64(6 * 40); stats.Requests != want {
		t.Fatalf("requests = %d, want %d", stats.Requests, want)
	}

	// An empty list is rejected, not silently idle.
	if _, err := RunLoad(context.Background(), LoadConfig{
		BaseURL: ts.URL, Workload: " , ", Clients: 1, Steps: 1, Client: ts.Client(),
	}); err == nil {
		t.Fatal("empty scenario list accepted")
	}
}
