package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/obs"
	"apbcc/internal/pack"
	"apbcc/internal/program"
	"apbcc/internal/store"
)

// BenchmarkServeBlock measures the hot serving path: cached block
// fetches over real HTTP from parallel clients.
func BenchmarkServeBlock(b *testing.B) {
	for _, codec := range []string{"dict", "lzss", "identity", "cpack", "bdi"} {
		b.Run(codec, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() { ts.Close(); s.Close() }()
			url := ts.URL + "/v1/block/fft/2?codec=" + codec
			warm, err := ts.Client().Get(url) // build entry + fill cache
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, warm.Body)
			warm.Body.Close()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client := &http.Client{Transport: ts.Client().Transport}
				for pb.Next() {
					resp, err := client.Get(url)
					if err != nil {
						b.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Errorf("status %d", resp.StatusCode)
						return
					}
				}
			})
		})
	}
}

// BenchmarkBlockCache measures the cache in isolation: hits on a
// resident key from parallel goroutines.
func BenchmarkBlockCache(b *testing.B) {
	c := NewBlockCache(16, 1<<20)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = BlockAddress("dict", nil, []byte{byte(i)})
		c.GetOrCompute(context.Background(), keys[i], func() ([]byte, error) { return make([]byte, 64), nil })
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := c.GetOrCompute(context.Background(), keys[i%len(keys)], nil); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkCacheFill measures one fill of a full shard holding n
// entries: each Add admits a key that is not resident and evicts the
// least recently used one. An LRU fill costs the same whatever n is.
func BenchmarkCacheFill(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			const size = 64
			c := NewBlockCache(1, n*size)
			val := make([]byte, size)
			// Cycling through 2n keys in order, the next key is always
			// the one evicted n fills ago.
			keys := make([]string, 2*n)
			for i := range keys {
				keys[i] = BlockAddress("dict", nil, []byte(fmt.Sprint(i)))
			}
			for _, k := range keys[:n] {
				c.Add(k, val)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !c.Add(keys[(n+i)%len(keys)], val) {
					b.Fatal("fill not admitted")
				}
			}
			b.StopTimer()
			if st := c.Stats(); st.Entries != int64(n) || st.Evictions != int64(b.N) {
				b.Fatalf("after %d fills: %d entries, %d evictions; want %d, %d", b.N, st.Entries, st.Evictions, n, b.N)
			}
		})
	}
}

// BenchmarkPool measures job submission overhead through the batching
// pool.
func BenchmarkPool(b *testing.B) {
	p := NewPool(4, 256, 8)
	defer p.Close()
	noop := func() error { return nil }
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := p.Do(context.Background(), noop); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPackContainer measures cold container builds (no cache) per
// codec.
func BenchmarkPackContainer(b *testing.B) {
	for _, codec := range []string{"dict", "lzss", "huffman", "cpack", "bdi"} {
		b.Run(codec, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() { ts.Close(); s.Close() }()
			src := `
				start:
					addi r1, r0, 10
				loop:
					addi r1, r1, -1
					bne  r1, r0, loop
					halt
			`
			for i := 0; i < b.N; i++ {
				resp, err := ts.Client().Post(
					fmt.Sprintf("%s/v1/pack?name=bench&codec=%s", ts.URL, codec),
					"text/plain", strings.NewReader(src))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		})
	}
}

// BenchmarkBlockSource isolates the three places a block fetch can be
// satisfied from, cheapest to dearest: an L1 cache hit, an L2 read
// through the container index on disk (one ReadAt + decompress +
// CRC verify), and a full rebuild (re-running the compressor on the
// plain image). The serving tier is healthy when the middle column
// sits strictly between the other two.
func BenchmarkBlockSource(b *testing.B) {
	// Suite blocks are tens of words — too small for the tiers to
	// separate from syscall noise. Synthesize production-sized blocks
	// (16 KiB each) so per-byte costs dominate.
	g := cfg.New()
	const nblocks, words = 8, 4096
	ids := make([]cfg.BlockID, nblocks)
	for i := range ids {
		ids[i] = g.AddBlock(fmt.Sprintf("b%d", i), words)
	}
	if err := g.SetEntry(ids[0]); err != nil {
		b.Fatal(err)
	}
	for i := 0; i+1 < len(ids); i++ {
		g.MustAddEdge(ids[i], ids[i+1], cfg.EdgeJump, 1)
	}
	prog, err := program.Synthesize("bigblocks", g, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, codecName := range []string{"dict", "lzss", "cpack", "bdi"} {
		code, err := prog.CodeBytes()
		if err != nil {
			b.Fatal(err)
		}
		codec, err := compress.New(codecName, code)
		if err != nil {
			b.Fatal(err)
		}
		container, err := pack.Pack(prog, codec)
		if err != nil {
			b.Fatal(err)
		}
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		key, err := st.Put(container)
		if err != nil {
			b.Fatal(err)
		}
		obj, err := st.Open(key)
		if err != nil {
			b.Fatal(err)
		}
		plain, err := prog.AllBlockBytes()
		if err != nil {
			b.Fatal(err)
		}
		id := len(plain) / 2
		img := plain[id]

		b.Run(codecName+"/l1-hit", func(b *testing.B) {
			c := NewBlockCache(1, 1<<20)
			k := BlockAddress(codecName, nil, img)
			c.GetOrCompute(context.Background(), k, func() ([]byte, error) { return img, nil })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, hit, _ := c.GetOrCompute(context.Background(), k, nil); !hit {
					b.Fatal("not a hit")
				}
			}
		})
		b.Run(codecName+"/l1-hit-traced", func(b *testing.B) {
			// Full per-request tracing: trace from the recorder pool, span
			// around the hit, finish + record back into the ring. The
			// delta over l1-hit is the whole observability tax.
			c := NewBlockCache(1, 1<<20)
			k := BlockAddress(codecName, nil, img)
			rec := obs.NewRecorder(256, 8)
			c.GetOrCompute(context.Background(), k, func() ([]byte, error) { return img, nil })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := rec.StartTrace()
				ctx := obs.WithTrace(context.Background(), tr)
				if _, hit, _ := c.GetOrCompute(ctx, k, nil); !hit {
					b.Fatal("not a hit")
				}
				tr.Finish(obs.OutcomeHit)
				rec.Record(tr)
			}
		})
		b.Run(codecName+"/l2-index-read", func(b *testing.B) {
			scratch := compress.GetBuf(len(img))
			comps := compress.GetBuf(codec.MaxCompressedLen(len(img)))
			defer func() {
				compress.PutBuf(scratch)
				compress.PutBuf(comps)
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := obj.VerifiedBlock(codec, id, comps[:0], scratch[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codecName+"/l2-range-read3", func(b *testing.B) {
			// The coalesced readahead shape: three adjacent blocks in one
			// ReadAt, each decompress-verified. Compare against 3x the
			// l2-index-read row to see what coalescing saves.
			idx := obj.Index()
			span := int(idx.Blocks[id+2].Off + idx.Blocks[id+2].Len - idx.Blocks[id].Off)
			buf := compress.GetBuf(span)
			scratch := compress.GetBuf(len(img))
			defer func() {
				compress.PutBuf(buf)
				compress.PutBuf(scratch)
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := obj.ReadBlockRange(id, id+2, buf[:0])
				if err != nil {
					b.Fatal(err)
				}
				for j := id; j <= id+2; j++ {
					comp := idx.PayloadRangeSlice(out, 0, id, j)
					if _, err := idx.VerifyBlock(codec, j, comp, scratch[:0]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(codecName+"/full-rebuild", func(b *testing.B) {
			scratch := compress.GetBuf(codec.MaxCompressedLen(len(img)))
			defer compress.PutBuf(scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.CompressAppend(scratch[:0], img); err != nil {
					b.Fatal(err)
				}
			}
		})
		obj.Close()
	}
}

// BenchmarkWordRead prices the v3 sub-block serving path against what
// it replaces: serving a single word (or a 16-word span) through the
// container's group directory — one bounded ReadAt plus one-group
// decode — versus decoding the whole 16 KiB block through the index
// (l2-index-read) or re-running the compressor (full-rebuild). The
// acceptance bar is the word read coming in an order of magnitude
// under the whole-block decode for the group-capable codecs, at zero
// steady-state allocations.
func BenchmarkWordRead(b *testing.B) {
	g := cfg.New()
	const nblocks, words = 8, 4096 // 16 KiB blocks, production-sized
	ids := make([]cfg.BlockID, nblocks)
	for i := range ids {
		ids[i] = g.AddBlock(fmt.Sprintf("b%d", i), words)
	}
	if err := g.SetEntry(ids[0]); err != nil {
		b.Fatal(err)
	}
	for i := 0; i+1 < len(ids); i++ {
		g.MustAddEdge(ids[i], ids[i+1], cfg.EdgeJump, 1)
	}
	prog, err := program.Synthesize("bigblocks", g, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, codecName := range []string{"dict", "bdi", "cpack", "identity"} {
		code, err := prog.CodeBytes()
		if err != nil {
			b.Fatal(err)
		}
		codec, err := compress.New(codecName, code)
		if err != nil {
			b.Fatal(err)
		}
		container, err := pack.Pack(prog, codec)
		if err != nil {
			b.Fatal(err)
		}
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		key, err := st.Put(container)
		if err != nil {
			b.Fatal(err)
		}
		obj, err := st.Open(key)
		if err != nil {
			b.Fatal(err)
		}
		if !obj.HasGroupIndex() {
			b.Fatalf("%s container has no group directory", codecName)
		}
		plain, err := prog.AllBlockBytes()
		if err != nil {
			b.Fatal(err)
		}
		id := len(plain) / 2
		img := plain[id]

		for _, span := range []struct {
			name   string
			nwords int
		}{{"l2-word-read", 1}, {"l2-word-read-span16", 16}} {
			b.Run(codecName+"/"+span.name, func(b *testing.B) {
				comp := compress.GetBuf(4 << 10)
				dst := compress.GetBuf(span.nwords * 4)
				defer func() {
					compress.PutBuf(comp)
					compress.PutBuf(dst)
				}()
				word := words/2 + 3 // mid-block, mid-group
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := obj.ReadWordRange(codec, id, word, span.nwords, comp[:0], dst[:0]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(codecName+"/l2-index-read", func(b *testing.B) {
			scratch := compress.GetBuf(len(img))
			comps := compress.GetBuf(codec.MaxCompressedLen(len(img)))
			defer func() {
				compress.PutBuf(scratch)
				compress.PutBuf(comps)
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := obj.VerifiedBlock(codec, id, comps[:0], scratch[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codecName+"/full-rebuild", func(b *testing.B) {
			scratch := compress.GetBuf(codec.MaxCompressedLen(len(img)))
			defer compress.PutBuf(scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.CompressAppend(scratch[:0], img); err != nil {
					b.Fatal(err)
				}
			}
		})
		obj.Close()
	}
}

// BenchmarkStartup compares what a restarted server pays to get its
// first (workload, codec) container ready: a cold start runs the
// packer and the verification unpack; a warm start against a
// populated store restores from disk without packing.
func BenchmarkStartup(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := New(Config{Workers: 2, StoreDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := s.entryFor(context.Background(), "fft", "dict"); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		seed, err := New(Config{Workers: 2, StoreDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := seed.entryFor(context.Background(), "fft", "dict"); err != nil {
			b.Fatal(err)
		}
		seed.Close() // flushes the async persist
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := New(Config{Workers: 2, StoreDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			ent, _, err := s.entryFor(context.Background(), "fft", "dict")
			if err != nil {
				b.Fatal(err)
			}
			if ent == nil {
				b.Fatal("no entry")
			}
			b.StopTimer()
			if s.Metrics().Packs.Load() != 0 {
				b.Fatal("warm start invoked the packer")
			}
			s.Close()
			b.StartTimer()
		}
	})
}
