package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/workloads"
)

// warmEntryWithStore builds a server on a pre-warmed store so its
// entry has an attached L2 object from the start (the warm-restart
// path attaches synchronously, unlike the cold build's async persist).
func warmEntryWithStore(t *testing.T, cfg Config) (*Server, *entry) {
	t.Helper()
	seed, err := New(Config{Workers: 2, StoreDir: cfg.StoreDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seed.entryFor(context.Background(), "fft", "dict"); err != nil {
		t.Fatal(err)
	}
	seed.Close() // flush the async persist
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ent, _, err := s.entryFor(context.Background(), "fft", "dict")
	if err != nil {
		t.Fatal(err)
	}
	if ent.obj.Load() == nil {
		t.Fatal("warm entry has no attached store object")
	}
	return s, ent
}

// TestReadaheadAdmitsPredictedSuccessors: an L2 read of one block must
// coalesce its predicted successors into the same read and leave them
// resident in L1, so fetching a successor next is a pure cache hit
// with no further store traffic.
func TestReadaheadAdmitsPredictedSuccessors(t *testing.T) {
	dir := t.TempDir()
	s, ent := warmEntryWithStore(t, Config{Workers: 2, StoreDir: dir, ReadaheadK: 2})
	id := 0
	if len(ent.readahead) == 0 {
		t.Fatal("entry has no readahead table")
	}
	// Pick a block that actually has forward candidates.
	for i, cands := range ent.readahead {
		ok := false
		for _, c := range cands {
			if int(c) > i {
				ok = true
			}
		}
		if ok {
			id = i
			break
		}
	}
	comp, hit := s.blockFromStore(context.Background(), ent, id)
	if !hit || len(comp) == 0 {
		t.Fatalf("blockFromStore(%d) missed", id)
	}
	admitted := s.metrics.StoreReadahead.Load()
	if admitted == 0 {
		t.Fatalf("no readahead admissions for block %d (candidates %v)", id, ent.readahead[id])
	}
	resident := 0
	for _, c := range ent.readahead[id] {
		if int(c) > id && s.cache.Contains(ent.keys[c]) {
			resident++
		}
	}
	if resident == 0 {
		t.Fatal("no predicted successor resident in L1 after the coalesced read")
	}
	// A second read of the same block plans the same candidates but
	// finds them resident: no further admissions.
	if _, hit := s.blockFromStore(context.Background(), ent, id); !hit {
		t.Fatal("second blockFromStore missed")
	}
	if got := s.metrics.StoreReadahead.Load(); got != admitted {
		t.Fatalf("re-read admitted more blocks (%d -> %d)", admitted, got)
	}
	reads := s.Store().Stats().BlockReads
	if reads == 0 {
		t.Fatal("no block reads counted")
	}
}

// TestReadaheadDisabled: a negative ReadaheadK must turn the feature
// off — no readahead table, no admissions, single-block reads only.
func TestReadaheadDisabled(t *testing.T) {
	dir := t.TempDir()
	s, ent := warmEntryWithStore(t, Config{Workers: 2, StoreDir: dir, ReadaheadK: -1})
	if ent.readahead != nil {
		t.Fatal("readahead table built with readahead disabled")
	}
	if _, hit := s.blockFromStore(context.Background(), ent, 0); !hit {
		t.Fatal("blockFromStore missed")
	}
	if got := s.metrics.StoreReadahead.Load(); got != 0 {
		t.Fatalf("readahead admissions = %d, want 0", got)
	}
	if got := s.Store().Stats().BlockReads; got != 1 {
		t.Fatalf("block reads = %d, want 1", got)
	}
}

// TestReadaheadServesCorrectBytes drives the HTTP surface over a warm
// store with readahead on: every block response must still be byte-
// and CRC-correct regardless of whether it came from the demand read,
// a readahead admission, or the L1 cache.
func TestReadaheadServesCorrectBytes(t *testing.T) {
	dir := t.TempDir()
	seed, err := New(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seed.entryFor(context.Background(), "fft", "dict"); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	cfg := storeConfig(dir)
	cfg.ReadaheadK = 3
	s, ts := newTestServerConfig(t, cfg)
	w, err := workloads.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Program.AllBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	ent, _, err := s.entryFor(context.Background(), "fft", "dict")
	if err != nil {
		t.Fatal(err)
	}
	for id := range want {
		code, payload, hdr := get(t, ts.Client(), fmt.Sprintf("%s/v1/block/fft/%d?codec=dict", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("block %d: status %d", id, code)
		}
		if _, err := verifyBlock(ent.codec, payload, hdr, want[id], nil); err != nil {
			t.Fatalf("block %d: %v", id, err)
		}
	}
	if s.metrics.StoreReadahead.Load() == 0 {
		t.Fatal("sequential fetch over a chained CFG admitted no readahead")
	}
}

// logRecorder is a slog.Handler that keeps every record it is given.
type logRecorder struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *logRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (h *logRecorder) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *logRecorder) WithGroup(string) slog.Handler            { return h }
func (h *logRecorder) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}

// attrs returns the attributes of every record logged with msg.
func (h *logRecorder) attrs(msg string) []map[string]slog.Value {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []map[string]slog.Value
	for _, r := range h.recs {
		if r.Message != msg {
			continue
		}
		m := make(map[string]slog.Value)
		r.Attrs(func(a slog.Attr) bool {
			m[a.Key] = a.Value
			return true
		})
		out = append(out, m)
	}
	return out
}

// TestReadaheadCorruptCandidateQuarantineNamesIt: when a readahead
// candidate's payload fails verification, the demand block is still
// served intact, the object is quarantined, and the quarantine warning
// names the candidate block — the one whose bytes were bad — not the
// demanded one.
func TestReadaheadCorruptCandidateQuarantineNamesIt(t *testing.T) {
	logs := &logRecorder{}
	dir := t.TempDir()
	s, ent := warmEntryWithStore(t, Config{Workers: 2, StoreDir: dir, ReadaheadK: 2, Log: slog.New(logs)})
	obj := ent.obj.Load()
	idx := obj.Index()
	id, ci := -1, -1
	for i, cands := range ent.readahead {
		for _, c := range cands {
			if c := int(c); c > i && c-i <= readaheadWindowBlocks && idx.Blocks[c].Len > 0 &&
				idx.Blocks[c].Off+idx.Blocks[c].Len-idx.Blocks[i].Off <= readaheadMaxBytes {
				id, ci = i, c
				break
			}
		}
		if id >= 0 {
			break
		}
	}
	if id < 0 {
		t.Fatal("no block has a forward readahead candidate")
	}

	// Flip one byte inside the candidate's payload, in place: the live
	// object reads through its open descriptor.
	f, err := os.OpenFile(filepath.Join(dir, "objects", obj.Key()[:2], obj.Key()), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := idx.PayloadBase + idx.Blocks[ci].Off + idx.Blocks[ci].Len/2
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/block/fft/%d?codec=dict", id), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("demand block %d: status %d", id, rec.Code)
	}
	if _, err := verifyBlock(ent.codec, rec.Body.Bytes(), rec.Header(), ent.plain[id], nil); err != nil {
		t.Fatalf("demand block %d: %v", id, err)
	}
	if st := s.Store().Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	warns := logs.attrs("store object quarantined, detaching from entry")
	if len(warns) != 1 {
		t.Fatalf("%d quarantine warnings, want 1", len(warns))
	}
	if got := warns[0]["block"].Int64(); got != int64(ci) {
		t.Errorf("quarantine warning names block %d, want the corrupt candidate %d (demand block %d)", got, ci, id)
	}
	if got := warns[0]["what"].String(); got != "readahead block verify" {
		t.Errorf("quarantine warning what = %q, want the readahead verify", got)
	}
}

// TestReadaheadCandidates pins the candidate precompute against the
// policy beam on a hand-built CFG: the hot successor ranks first and
// improbable edges are dropped.
func TestReadaheadCandidates(t *testing.T) {
	g := cfg.New()
	a := g.AddBlock("a", 4)
	b := g.AddBlock("b", 4)
	c := g.AddBlock("c", 4)
	d := g.AddBlock("d", 4)
	g.MustAddEdge(a, b, cfg.EdgeTaken, 0.9)
	g.MustAddEdge(a, c, cfg.EdgeFallthrough, 0.1)
	g.MustAddEdge(b, d, cfg.EdgeJump, 1)
	if err := g.SetEntry(a); err != nil {
		t.Fatal(err)
	}
	ra := readaheadCandidates(g, 2)
	if len(ra) != 4 {
		t.Fatalf("len = %d, want 4", len(ra))
	}
	if len(ra[a]) == 0 || ra[a][0] != b {
		t.Fatalf("candidates for a = %v, want b first", ra[a])
	}
	if len(ra[b]) == 0 || ra[b][0] != d {
		t.Fatalf("candidates for b = %v, want d first", ra[b])
	}
	if len(ra[d]) != 0 {
		t.Fatalf("candidates for sink d = %v, want none", ra[d])
	}
}

// TestCacheAddAndContains covers the out-of-band admission primitives
// the readahead path relies on.
func TestCacheAddAndContains(t *testing.T) {
	c := NewBlockCache(2, 1<<10)
	key := BlockAddress("dict", nil, []byte("x"))
	if c.Contains(key) {
		t.Fatal("empty cache claims residency")
	}
	if !c.Add(key, []byte("payload")) {
		t.Fatal("first Add rejected")
	}
	if !c.Contains(key) {
		t.Fatal("added key not resident")
	}
	if c.Add(key, []byte("other")) {
		t.Fatal("second Add replaced a resident entry")
	}
	if v, ok := c.Get(key); !ok || string(v) != "payload" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	// Add must not distort hit/miss accounting.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Add charged hit/miss: %+v", st)
	}
	// Oversized values are refused like any fill.
	big := make([]byte, 2<<10)
	if c.Add(BlockAddress("dict", nil, []byte("big")), big) {
		t.Fatal("oversized Add admitted")
	}
}
