package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/service"
	"apbcc/internal/store"
	"apbcc/internal/workloads"
)

// layerBudget is how long each in-process layer timing loops.
const layerBudget = 150 * time.Millisecond

// timeLoop runs pass until at least layerBudget has elapsed (and at
// least once) and returns the passes run and the time they took.
func timeLoop(pass func() error) (int, time.Duration, error) {
	start := time.Now()
	n := 0
	for {
		if err := pass(); err != nil {
			return n, 0, err
		}
		n++
		if d := time.Since(start); d >= layerBudget {
			return n, d, nil
		}
	}
}

// inProcessLayers times the compress, pack, store and service layers by
// calling their public functions on the run's inputs.
func (b *bench) inProcessLayers(pl map[string]float64, storeDir string, d time.Duration) error {
	us, err := b.handlerLayer(storeDir, d)
	if err != nil {
		return fmt.Errorf("in-process handler: %w", err)
	}
	pl["service.handler_us"] = us
	pl["nethttp.tax_us"] = pl["client.ttfb_us"] - us
	if err := decodeLayers(pl); err != nil {
		return err
	}
	spans := b.wordSpans(4096)
	if err := groupLayers(pl, spans); err != nil {
		return err
	}
	if err := b.storeLayers(pl, storeDir, spans); err != nil {
		return err
	}
	return b.packLayers(pl)
}

// handlerLayer replays the connections' request sequences through an
// in-process Server's Handler on httptest recorders, with the same
// config and tracing as the traced server, and returns the mean
// ServeHTTP time in microseconds. The gap to client.ttfb_us is what
// net/http and the loopback add.
func (b *bench) handlerLayer(storeDir string, d time.Duration) (float64, error) {
	cfg := service.Config{CacheBytes: b.wl.cacheBytes, CacheShards: b.wl.shards}
	if storeDir != "" {
		// The traced server's store: warm for a warm workload; a cold
		// workload gets a fresh one so set-up packs and persists again.
		cfg.StoreDir = storeDir
		if b.wl.store == "cold" {
			cfg.StoreDir = filepath.Join(b.dir, "store-inproc")
		}
	}
	srv, err := service.New(cfg)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	h := srv.Handler()
	serve := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	for _, e := range b.entries {
		rec := serve(fmt.Sprintf("/v1/pack/%s?codec=%s", e.workload, e.codec))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), e.container) {
			return 0, fmt.Errorf("container %s/%s: status %d or bytes differ", e.workload, e.codec, rec.Code)
		}
	}
	if cfg.StoreDir != "" {
		deadline := time.Now().Add(60 * time.Second)
		for srv.Metrics().StorePersists.Load()+srv.Metrics().StoreWarm.Load() < int64(len(b.entries)) {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("in-process store did not persist %d containers", len(b.entries))
			}
			time.Sleep(time.Millisecond)
		}
	}
	if !b.wl.words {
		for _, e := range b.entries {
			for blk := range e.want {
				if rec := serve(e.blockPath[blk]); rec.Code != http.StatusOK {
					return 0, fmt.Errorf("sweep %s: status %d", e.blockPath[blk], rec.Code)
				}
			}
		}
	}

	var mu sync.Mutex
	var totalNS, n int64
	var firstErr error
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ns, cnt int64
			var scratch []byte
			var err error
			for i := 0; err == nil && time.Now().Before(deadline); i++ {
				o := c.ops[i%len(c.ops)]
				e := b.entries[o.entry]
				req := httptest.NewRequest(http.MethodGet, opPath(e, o), nil)
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				ns += int64(time.Since(t0))
				cnt++
				got := rec.Body.Bytes()
				if rec.Code != http.StatusOK {
					err = fmt.Errorf("%s: status %d", opPath(e, o), rec.Code)
					break
				}
				if o.nwords == 0 {
					if got, err = e.c.DecompressAppend(scratch[:0], got); err != nil {
						break
					}
					scratch = got[:0]
				}
				err = verify(e, o, got, rec.Header().Get(service.HeaderCRC))
			}
			mu.Lock()
			defer mu.Unlock()
			totalNS += ns
			n += cnt
			if firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return ratio(float64(totalNS), float64(n)) / 1e3, nil
}

// decodeLayers measures each codec's DecompressAppend throughput over
// every block of the suite, with the codec trained on each program.
func decodeLayers(pl map[string]float64) error {
	suite, err := workloads.Suite()
	if err != nil {
		return err
	}
	for _, name := range compress.Names() {
		type block struct{ plain, comp []byte }
		type prog struct {
			c      compress.Codec
			blocks []block
		}
		var progs []prog
		var plainBytes int
		for _, wl := range suite {
			code, err := wl.Program.CodeBytes()
			if err != nil {
				return err
			}
			c, err := compress.New(name, code)
			if err != nil {
				return err
			}
			blocks, err := wl.Program.AllBlockBytes()
			if err != nil {
				return err
			}
			p := prog{c: c}
			for _, bl := range blocks {
				comp, err := c.CompressAppend(nil, bl)
				if err != nil {
					return err
				}
				p.blocks = append(p.blocks, block{bl, comp})
				plainBytes += len(bl)
			}
			progs = append(progs, p)
		}
		dst := make([]byte, 0, 64<<10)
		passes, took, err := timeLoop(func() error {
			for _, p := range progs {
				for _, bl := range p.blocks {
					out, err := p.c.DecompressAppend(dst[:0], bl.comp)
					if err != nil {
						return err
					}
					if len(out) != len(bl.plain) {
						return fmt.Errorf("%s: decoded %d bytes, want %d", name, len(out), len(bl.plain))
					}
					dst = out[:0]
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		pl["compress."+name+".decode_mbps"] = float64(plainBytes*passes) / took.Seconds() / 1e6
	}
	return nil
}

// wordSpan is one sub-block read of a group-codec entry.
type wordSpan struct {
	e                   *entry
	block, word, nwords int
}

// wordSpans draws n word spans over the run's group-codec entries:
// uniform entry and block, zipf start word, 1-4 words, from the seed.
func (b *bench) wordSpans(n int) []wordSpan {
	var group []*entry
	for _, e := range b.entries {
		if _, ok := compress.AsGroupCodec(e.c); ok {
			group = append(group, e)
		}
	}
	rng := rand.New(rand.NewSource(b.seed*131 + 7))
	zipf := rand.NewZipf(rng, 1.2, 1, 255)
	out := make([]wordSpan, 0, n)
	for len(out) < n && len(group) > 0 {
		e := group[rng.Intn(len(group))]
		blk := rng.Intn(len(e.want))
		bw := len(e.want[blk]) / isa.WordSize
		w := int(zipf.Uint64()) % bw
		out = append(out, wordSpan{e, blk, w, min(1+rng.Intn(4), bw-w)})
	}
	return out
}

// groupLayers times compress.DecodeWordRange per group codec on the
// spans, reading each block's group offsets from its container's v3
// index exactly as the store path does.
func groupLayers(pl map[string]float64, spans []wordSpan) error {
	type prepared struct {
		gc   compress.GroupCodec
		comp []byte
		offs []uint32
		bw   int
		ws   wordSpan
	}
	byCodec := make(map[string][]prepared)
	indexes := make(map[*entry]*pack.Index)
	for _, ws := range spans {
		idx := indexes[ws.e]
		if idx == nil {
			var err error
			if idx, err = pack.ParseIndex(ws.e.container); err != nil {
				return err
			}
			indexes[ws.e] = idx
		}
		gc, _ := compress.AsGroupCodec(ws.e.c)
		be := idx.Blocks[ws.block]
		off := idx.PayloadBase + be.Off
		byCodec[ws.e.codec] = append(byCodec[ws.e.codec], prepared{
			gc: gc, comp: ws.e.container[off : off+be.Len], offs: idx.BlockGroupOffsets(ws.block),
			bw: be.Words, ws: ws,
		})
	}
	for _, name := range groupCodecs() {
		ps := byCodec[name]
		if len(ps) == 0 {
			pl["compress."+name+".group_decode_ns"] = 0
			continue
		}
		dst := make([]byte, 0, 64)
		for _, p := range ps {
			out, err := compress.DecodeWordRange(dst[:0], p.gc, p.comp, p.offs, p.bw, p.ws.word, p.ws.nwords)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, p.ws.e.want[p.ws.block][p.ws.word*isa.WordSize:(p.ws.word+p.ws.nwords)*isa.WordSize]) {
				return fmt.Errorf("%s: DecodeWordRange returned wrong bytes", name)
			}
		}
		passes, took, err := timeLoop(func() error {
			for _, p := range ps {
				out, err := compress.DecodeWordRange(dst[:0], p.gc, p.comp, p.offs, p.bw, p.ws.word, p.ws.nwords)
				if err != nil {
					return err
				}
				dst = out[:0]
			}
			return nil
		})
		if err != nil {
			return err
		}
		pl["compress."+name+".group_decode_ns"] = float64(took.Nanoseconds()) / float64(passes*len(ps))
	}
	return nil
}

// storeLayers times store.Open on the traced server's store (0 without
// one) and Object.ReadWordRange on the spans through a scratch store.
func (b *bench) storeLayers(pl map[string]float64, storeDir string, spans []wordSpan) error {
	pl["store.open_ms"] = 0
	if storeDir != "" {
		var opens []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := store.Open(storeDir); err != nil {
				return err
			}
			opens = append(opens, float64(time.Since(t0).Microseconds())/1e3)
		}
		pl["store.open_ms"] = median(opens)
	}
	st, err := store.Open(filepath.Join(b.dir, "store-layers"))
	if err != nil {
		return err
	}
	objs := make(map[*entry]*store.Object)
	defer func() {
		for _, o := range objs {
			o.Close()
		}
	}()
	for _, ws := range spans {
		if objs[ws.e] != nil {
			continue
		}
		key, err := st.Put(ws.e.container)
		if err != nil {
			return err
		}
		if objs[ws.e], err = st.Open(key); err != nil {
			return err
		}
	}
	comp := make([]byte, 0, 4<<10)
	plain := make([]byte, 0, 64)
	passes, took, err := timeLoop(func() error {
		for _, ws := range spans {
			c, p, err := objs[ws.e].ReadWordRange(ws.e.c, ws.block, ws.word, ws.nwords, comp[:0], plain[:0])
			if err != nil {
				return err
			}
			comp, plain = c[:0], p[:0]
		}
		return nil
	})
	if err != nil {
		return err
	}
	pl["store.read_word_range_us"] = ratio(float64(took.Nanoseconds())/1e3, float64(passes*len(spans)))
	return nil
}

// packLayers times pack.Pack, pack.Unpack and pack.ParseIndex per
// container over the run's entries.
func (b *bench) packLayers(pl map[string]float64) error {
	for _, l := range []struct {
		name string
		f    func(e *entry) error
	}{
		{"pack.pack_us", func(e *entry) error { _, err := pack.Pack(e.prog, e.c); return err }},
		{"pack.unpack_us", func(e *entry) error { _, _, _, err := pack.Unpack(e.workload, e.container); return err }},
		{"pack.parse_index_us", func(e *entry) error { _, err := pack.ParseIndex(e.container); return err }},
	} {
		passes, took, err := timeLoop(func() error {
			for _, e := range b.entries {
				if err := l.f(e); err != nil {
					return fmt.Errorf("%s %s/%s: %w", l.name, e.workload, e.codec, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		pl[l.name] = float64(took.Nanoseconds()) / 1e3 / float64(passes*len(b.entries))
	}
	return nil
}
