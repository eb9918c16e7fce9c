package service

import (
	"context"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"apbcc/internal/isa"
)

// nopWriter is a ResponseWriter that keeps the header map and the body
// bytes of the last response and allocates nothing per write, so
// AllocsPerRun over the handler counts only what the serving path
// allocates.
type nopWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) WriteHeader(code int)        { w.status = code }
func (w *nopWriter) Write(b []byte) (int, error) { w.body = append(w.body, b...); return len(b), nil }

// reset clears the previous response, keeping the map's and the body's
// storage.
func (w *nopWriter) reset() {
	clear(w.h)
	w.status = http.StatusOK
	w.body = w.body[:0]
}

// hotPathServer returns an untraced server (cfg plus a store directory)
// with an attached store object for fft/dict, its built entry, and a
// cancelable context that stands in for net/http's per-connection
// request context.
func hotPathServer(t testing.TB, cfg Config) (*Server, *entry, context.Context) {
	t.Helper()
	cfg.Workers, cfg.StoreDir, cfg.TraceRing = 2, t.TempDir(), -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ent, _, err := s.entryFor(context.Background(), "fft", "dict")
	if err != nil {
		t.Fatal(err)
	}
	s.persistWG.Wait() // the store object attaches after the async persist
	if ent.obj.Load() == nil {
		t.Fatal("no store object attached")
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return s, ent, ctx
}

// serve runs one request through the full instrumented handler.
func serve(s *Server, w *nopWriter, r *http.Request) {
	w.reset()
	s.Handler().ServeHTTP(w, r)
}

// TestServeHTTPAllocBudget pins the request hot path's allocation
// budget over the full instrumented handler, tracing off, store
// attached. What remains is not the handler's own: an L1-hit block
// pays ServeMux's wildcard match (the request's pattern and match
// slices, 2 allocations); a word read pays the same 2 plus its span
// CRC header, computed per request (the hex string and its one-element
// value slice). An L2-miss block pays the same 2, the in-flight record
// and its channel, and the exact-size copies L1 keeps of the demand
// payload and each admitted readahead candidate; the fill and its
// evictions allocate nothing.
func TestServeHTTPAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	s, ent, ctx := hotPathServer(t, Config{})
	w := &nopWriter{h: http.Header{}}

	block := httptest.NewRequest("GET", "/v1/block/fft/2?codec=dict", nil).WithContext(ctx)
	serve(s, w, block) // fill L1
	serve(s, w, block)
	if w.status != http.StatusOK || w.h.Get(HeaderCache) != "hit" {
		t.Fatalf("warm block: status %d cache %q", w.status, w.h.Get(HeaderCache))
	}
	if got := testing.AllocsPerRun(200, func() { serve(s, w, block) }); got > 2 {
		t.Errorf("L1-hit block: %v allocs/op, budget 2", got)
	}

	word := httptest.NewRequest("GET", "/v1/block/fft/2?codec=dict&word=1&words=2", nil).WithContext(ctx)
	serve(s, w, word)
	if w.status != http.StatusOK || w.h.Get(HeaderSource) != "store" {
		t.Fatalf("word read: status %d source %q", w.status, w.h.Get(HeaderSource))
	}
	if want := ent.plain[2][isa.WordSize : 3*isa.WordSize]; string(w.body) != string(want) {
		t.Fatal("word read: span bytes differ")
	}
	if got := testing.AllocsPerRun(200, func() { serve(s, w, word) }); got > 4 {
		t.Errorf("store word read: %v allocs/op, budget 4", got)
	}

	// An L1 small enough that every request misses: a cycle over
	// blocks that are nobody's readahead candidate and whose payloads
	// exceed the cache together, so each request runs the demand L2
	// read, verifies and admits its readahead candidates, and evicts to
	// make room.
	tiny, tent, tctx := hotPathServer(t, Config{CacheShards: 1, CacheBytes: 256})
	demanded, predicted := make(map[int]bool), make(map[int]bool)
	var reqs []*http.Request
	for id := range tent.plain {
		ok := !predicted[id]
		for _, c := range tent.readahead[id] {
			ok = ok && !demanded[int(c)]
		}
		if !ok {
			continue
		}
		demanded[id] = true
		for _, c := range tent.readahead[id] {
			predicted[int(c)] = true
		}
		reqs = append(reqs, httptest.NewRequest("GET", fmt.Sprintf("/v1/block/fft/%d?codec=dict", id), nil).WithContext(tctx))
	}
	next := 0
	miss := func() {
		serve(tiny, w, reqs[next])
		next = (next + 1) % len(reqs)
	}
	for range reqs {
		miss()
	}
	before, ra := tiny.cache.Stats(), tiny.metrics.StoreReadahead.Load()
	got := testing.AllocsPerRun(500, miss)
	after := tiny.cache.Stats()
	t.Logf("L2-miss block: %v allocs/op over %d requests to %d blocks: %d misses, %d evictions, %d readahead admissions",
		got, 501, len(reqs), after.Misses-before.Misses, after.Evictions-before.Evictions, tiny.metrics.StoreReadahead.Load()-ra)
	if after.Misses-before.Misses != 501 || tiny.metrics.StoreReadahead.Load() == ra {
		t.Fatalf("tiny L1: %d misses in 501 requests, %d readahead admissions; want every request an L2 miss with readahead",
			after.Misses-before.Misses, tiny.metrics.StoreReadahead.Load()-ra)
	}
	if got > 6 {
		t.Errorf("L2-miss block: %v allocs/op, budget 6", got)
	}
}

// TestSharedHeaderValuesStayPerResponse: the block path assigns
// precomputed, shared header value slices. Consecutive responses for
// different blocks of one entry must still carry their own CRC and
// word count, and a caller appending to one response's header values
// must not change what a later response carries.
func TestSharedHeaderValuesStayPerResponse(t *testing.T) {
	s, ent, ctx := hotPathServer(t, Config{})
	w := &nopWriter{h: http.Header{}}
	want := func(id int) (crc, words string) {
		return fmt.Sprintf("%08x", crc32.ChecksumIEEE(ent.plain[id])), fmt.Sprint(len(ent.plain[id]) / isa.WordSize)
	}
	check := func(id int) http.Header {
		t.Helper()
		serve(s, w, httptest.NewRequest("GET", fmt.Sprintf("/v1/block/fft/%d?codec=dict", id), nil).WithContext(ctx))
		crc, words := want(id)
		if w.status != http.StatusOK || w.h.Get(HeaderCRC) != crc || w.h.Get(HeaderWords) != words {
			t.Fatalf("block %d: status %d crc %q words %q, want %s %s",
				id, w.status, w.h.Get(HeaderCRC), w.h.Get(HeaderWords), crc, words)
		}
		if got := w.h.Get(HeaderCodec); got != "dict" {
			t.Fatalf("block %d: codec header %q", id, got)
		}
		return w.h
	}
	for round := 0; round < 2; round++ { // miss, then hit
		for id := range ent.plain {
			check(id)
		}
	}
	// Append to every value of one response, the way a wrapping
	// middleware might, then serve the neighbouring blocks and the same
	// block again.
	h := check(1)
	for k := range h {
		h.Add(k, "tampered")
	}
	check(0)
	check(2)
	check(1)
	if got := len(w.h.Values(HeaderCRC)); got != 1 {
		t.Fatalf("CRC header has %d values after re-serve, want 1", got)
	}
}

// FuzzBlockQuery checks the block endpoint's one-pass query reader
// against url.ParseQuery + Values.Get, which is what the endpoint's
// contract was written against.
func FuzzBlockQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"codec=dict",
		"codec=lzss&word=3&words=2",
		"word=1&words=4&codec=bdi",
		"codec=%64ict",
		"codec=a+b&word=%31",
		"codec=%zz&codec=rle",
		"codec=%4",
		"co%64ec=dict",
		"codec;=x&codec=y",
		"codec=x;y&word=1",
		"codec=&codec=dict",
		"codec&word=2",
		"word=&words=",
		"word=1&word=2&words=3&words=4",
		"&&codec=dict&&",
		"=x&codec==dict",
		"words=%2B1&word=+1",
		"codec=dict%00",
		"word=1%",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw)
		q := parseBlockQuery(raw)
		if q.codec != v.Get("codec") || q.word != v.Get("word") || q.words != v.Get("words") {
			t.Fatalf("parseBlockQuery(%q) = %+v, want codec=%q word=%q words=%q",
				raw, q, v.Get("codec"), v.Get("word"), v.Get("words"))
		}
	})
}

// BenchmarkServeHTTP measures the request hot path in process: the full
// instrumented handler over a reused request and a no-op writer, tracing
// off, store attached. block is an L1 hit and word a store word read;
// their allocs/op are what TestServeHTTPAllocBudget pins.
func BenchmarkServeHTTP(b *testing.B) {
	s, _, ctx := hotPathServer(b, Config{})
	for _, bc := range []struct{ name, url string }{
		{"block", "/v1/block/fft/2?codec=dict"},
		{"word", "/v1/block/fft/2?codec=dict&word=1&words=2"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := &nopWriter{h: http.Header{}}
			r := httptest.NewRequest("GET", bc.url, nil).WithContext(ctx)
			serve(s, w, r) // fill L1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(s, w, r)
			}
		})
	}
}

// TestHeaderKeysCanonical: the hot path assigns header values straight
// into the map, bypassing Header.Set's key canonicalization, so every
// key it uses must already be in canonical form.
func TestHeaderKeysCanonical(t *testing.T) {
	for _, k := range []string{"Content-Type", HeaderCodec, HeaderWords, HeaderCRC, HeaderCache, HeaderWord, HeaderSource} {
		if c := http.CanonicalHeaderKey(k); c != k {
			t.Errorf("header key %q is not canonical (%q)", k, c)
		}
	}
}
