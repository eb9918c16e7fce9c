package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/isa"
	"apbcc/internal/pack"
	"apbcc/internal/program"
	"apbcc/internal/service"
	"apbcc/internal/trace"
)

// entry is one (workload, codec) container as the client unpacked it:
// the client's own reference image for every byte the server returns.
type entry struct {
	workload, codec string
	container       []byte
	prog            *program.Program
	c               compress.Codec
	want            [][]byte // per-block plain images
	blockPath       []string // per-block full-fetch path and query
}

// fetchEntry fetches, unpacks and verifies one container.
func fetchEntry(ctx context.Context, client *http.Client, base, workload, codec string) (*entry, error) {
	url := fmt.Sprintf("%s/v1/pack/%s?codec=%s", base, workload, codec)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return unpackEntry(workload, codec, body)
}

// unpackEntry runs the full container verification (pack.Unpack checks
// the image checksum) and derives the per-block reference images.
func unpackEntry(workload, codec string, container []byte) (*entry, error) {
	prog, c, _, err := pack.Unpack(workload, container)
	if err != nil {
		return nil, fmt.Errorf("unpack %s/%s: %w", workload, codec, err)
	}
	if c.Name() != codec {
		return nil, fmt.Errorf("%s/%s: container holds codec %s", workload, codec, c.Name())
	}
	want, err := prog.AllBlockBytes()
	if err != nil {
		return nil, err
	}
	e := &entry{workload: workload, codec: codec, container: container, prog: prog, c: c, want: want}
	e.blockPath = make([]string, len(want))
	for i := range want {
		e.blockPath[i] = fmt.Sprintf("/v1/block/%s/%d?codec=%s", workload, i, codec)
	}
	return e, nil
}

// op is one planned fetch: a full block, or words [word, word+nwords)
// of it when nwords > 0.
type op struct {
	entry, block, word, nwords int32
}

// planConn builds connection conn's request sequence: one device trace
// per entry from trace.Generate, interleaved round-robin so consecutive
// fetches on a connection go to different entries. Word reads draw
// zipf start words and 1-4 word spans, like service.RunLoad.
func planConn(entries []*entry, seed int64, conn, steps int, words bool) ([]op, error) {
	traces := make([][]int32, len(entries))
	for i, e := range entries {
		tr, err := trace.Generate(e.prog.Graph, trace.GenConfig{
			Seed:     seed*1_000_003 + int64(conn)*7_919 + int64(i),
			MaxSteps: steps,
			Restart:  true,
		})
		if err != nil {
			return nil, err
		}
		t := make([]int32, len(tr.Blocks))
		for j, b := range tr.Blocks {
			t[j] = int32(b)
		}
		traces[i] = t
	}
	rng := rand.New(rand.NewSource(seed*31 + int64(conn)))
	zipfs := make([]*rand.Zipf, len(entries))
	if words {
		for i, e := range entries {
			maxWords := 0
			for _, b := range e.want {
				maxWords = max(maxWords, len(b)/isa.WordSize)
			}
			zipfs[i] = rand.NewZipf(rng, 1.2, 1, uint64(max(maxWords-1, 1)))
		}
	}
	// Connections start on different entries so the two are not in
	// lockstep on the same container.
	shift := conn * len(entries) / 2
	ops := make([]op, 0, steps*len(entries))
	for s := 0; s < steps; s++ {
		for k := range entries {
			i := (k + shift) % len(entries)
			t := traces[i]
			o := op{entry: int32(i), block: t[s%len(t)]}
			if words {
				bw := len(entries[i].want[o.block]) / isa.WordSize
				w := int(zipfs[i].Uint64()) % bw
				o.word = int32(w)
				o.nwords = int32(min(1+rng.Intn(4), bw-w))
			}
			ops = append(ops, o)
		}
	}
	return ops, nil
}

// span is the traced record of one fetch: client phases from httptrace
// and the client's own clock, joined to the server's trace id and the
// stages it reported.
type span struct {
	Conn     int    `json:"conn"`
	Workload string `json:"workload"`
	Codec    string `json:"codec"`
	Block    int32  `json:"block"`
	Word     int32  `json:"word,omitempty"`
	Words    int32  `json:"words,omitempty"`
	StartNS  int64  `json:"start_ns"` // from the window's start
	TotalNS  int64  `json:"total_ns"` // client-observed fetch time
	// Client phases; they tile [start, start+total).
	ConnWaitNS int64      `json:"conn_wait_ns"`
	WriteNS    int64      `json:"write_ns"`
	TTFBNS     int64      `json:"ttfb_ns"`
	BodyNS     int64      `json:"body_ns"`
	DecodeNS   int64      `json:"decode_ns"`
	VerifyNS   int64      `json:"verify_ns"` // after the fetch, not part of TotalNS
	TraceID    uint64     `json:"trace_id"`
	Stages     stageTimes `json:"stages"`
	Err        string     `json:"err,omitempty"`
}

// hookTimes holds one request's httptrace timestamps as nanoseconds
// since the window epoch. GotFirstResponseByte and WroteRequest run on
// the transport's goroutines, hence the atomics.
type hookTimes struct {
	epoch                     time.Time
	gotConn, wrote, firstByte atomic.Int64
	clientTrace               *httptrace.ClientTrace
}

func newHookTimes(epoch time.Time) *hookTimes {
	h := &hookTimes{epoch: epoch}
	now := func() int64 { return int64(time.Since(h.epoch)) }
	h.clientTrace = &httptrace.ClientTrace{
		GotConn:              func(httptrace.GotConnInfo) { h.gotConn.Store(now()) },
		WroteRequest:         func(httptrace.WroteRequestInfo) { h.wrote.Store(now()) },
		GotFirstResponseByte: func() { h.firstByte.Store(now()) },
	}
	return h
}

func (h *hookTimes) reset() {
	h.gotConn.Store(0)
	h.wrote.Store(0)
	h.firstByte.Store(0)
}

// conn is one closed-loop client connection: it sends its next request
// only after the previous one's payload is usable.
type conn struct {
	id      int
	base    string // server base URL
	client  *http.Client
	ops     []op
	pos     int
	body    bytes.Buffer
	scratch []byte
	hooks   *hookTimes // nil when untraced
	st      windowStats
}

func newConn(id int, ops []op) *conn {
	return &conn{
		id:  id,
		ops: ops,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		scratch: make([]byte, 0, 64<<10),
	}
}

// resetStats clears the counters before a window; the plan position
// carries on.
func (c *conn) resetStats(capHint int) {
	c.st = windowStats{lat: make([]int64, 0, capHint)}
}

func (c *conn) fail(err error) {
	c.st.failed++
	if c.st.firstErr == nil {
		c.st.firstErr = err
	}
}

// fetch runs the next planned op. The fetch time runs from building the
// request to the payload being usable: a block decoded with
// DecompressAppend into the reused buffer, a word span received. Byte
// checks against the client's own image and the CRC header follow,
// outside the timed interval.
func (c *conn) fetch(entries []*entry, epoch time.Time) {
	o := c.ops[c.pos]
	c.pos++
	if c.pos == len(c.ops) {
		c.pos = 0
	}
	e := entries[o.entry]
	url := c.base + opPath(e, o)
	if o.nwords > 0 {
		c.st.wordFetches++
	} else {
		c.st.blockFetches++
	}
	c.st.attempted++

	t0 := time.Now()
	ctx := context.Background()
	if c.hooks != nil {
		c.hooks.reset()
		ctx = httptrace.WithClientTrace(ctx, c.hooks.clientTrace)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		c.fail(err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.fail(err)
		return
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	tBody := time.Now()
	if err != nil {
		c.fail(err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		c.fail(fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(c.body.Bytes())))
		return
	}
	payload := c.body.Bytes()
	got := payload
	var derr error
	if o.nwords == 0 {
		got, derr = e.c.DecompressAppend(c.scratch[:0], payload)
		if derr == nil {
			c.scratch = got[:0]
		}
	}
	tEnd := time.Now()

	verr := derr
	if verr == nil {
		verr = verify(e, o, got, resp.Header.Get(service.HeaderCRC))
	}
	tVerify := time.Now()
	if verr != nil {
		c.fail(fmt.Errorf("%s: %w", url, verr))
	} else {
		c.st.lat = append(c.st.lat, int64(tEnd.Sub(t0)))
		c.st.wireBytes += int64(len(payload))
		if o.nwords > 0 {
			c.st.okWords++
		} else {
			c.st.okBlocks++
		}
	}
	if c.hooks != nil {
		c.st.spans = append(c.st.spans, c.span(e, o, t0, tBody, tEnd, tVerify, resp.Header, verr, epoch))
	}
}

// opPath is the request path and query of o.
func opPath(e *entry, o op) string {
	if o.nwords == 0 {
		return e.blockPath[o.block]
	}
	return e.blockPath[o.block] + "&word=" + strconv.Itoa(int(o.word)) + "&words=" + strconv.Itoa(int(o.nwords))
}

// verify checks returned plain bytes against the client's image and the
// server's CRC header.
func verify(e *entry, o op, got []byte, crcHdr string) error {
	want := e.want[o.block]
	if o.nwords > 0 {
		want = want[int(o.word)*isa.WordSize : int(o.word+o.nwords)*isa.WordSize]
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%d bytes returned differ from the client's %d-byte image", len(got), len(want))
	}
	crc, err := strconv.ParseUint(crcHdr, 16, 32)
	if err != nil {
		return fmt.Errorf("bad %s header %q", service.HeaderCRC, crcHdr)
	}
	if crc32.ChecksumIEEE(got) != uint32(crc) {
		return fmt.Errorf("%s %s does not match the returned bytes", service.HeaderCRC, crcHdr)
	}
	return nil
}

// span assembles the traced record: the phase boundaries are the
// request start, GotConn, WroteRequest, GotFirstResponseByte, body read
// and decode done. A hook that did not fire leaves its phase at zero,
// which the coverage check then reports.
func (c *conn) span(e *entry, o op, t0, tBody, tEnd, tVerify time.Time, h http.Header, verr error, epoch time.Time) span {
	start := int64(t0.Sub(epoch))
	body := int64(tBody.Sub(epoch))
	bounds := []int64{start, c.hooks.gotConn.Load(), c.hooks.wrote.Load(), c.hooks.firstByte.Load(), body}
	phases := make([]int64, 4)
	prev := start
	for i, b := range bounds[1:] {
		if b >= prev {
			phases[i] = b - prev
			prev = b
		}
	}
	sp := span{
		Conn: c.id, Workload: e.workload, Codec: e.codec,
		Block: o.block, Word: o.word, Words: o.nwords,
		StartNS: start, TotalNS: int64(tEnd.Sub(t0)),
		ConnWaitNS: phases[0], WriteNS: phases[1], TTFBNS: phases[2], BodyNS: phases[3],
		DecodeNS: int64(tEnd.Sub(tBody)),
		VerifyNS: int64(tVerify.Sub(tEnd)),
		Stages:   parseStages(h.Get(service.HeaderStages)),
	}
	sp.TraceID, _ = strconv.ParseUint(h.Get(service.HeaderTrace), 10, 64)
	if verr != nil {
		sp.Err = verr.Error()
	}
	return sp
}

// serverStages are the stages X-Apcc-Stages reports. The write stage is
// still open when the header is rendered, so it is not among them.
var serverStages = [...]string{"route", "build", "l1", "l2-read", "decode", "readahead", "rebuild", "l2-word-read"}

// stageTimes holds one fetch's exclusive nanoseconds per serverStages
// entry; it is written out as a stage -> ns object.
type stageTimes [len(serverStages)]int64

func (t stageTimes) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, len(t))
	for i, ns := range t {
		if ns != 0 {
			m[serverStages[i]] = ns
		}
	}
	return json.Marshal(m)
}

// parseStages decodes X-Apcc-Stages ("stage:ns;..."); repeated stages
// sum. A stage outside serverStages is left to service.unattributed_us.
func parseStages(h string) stageTimes {
	var t stageTimes
	for _, part := range strings.Split(h, ";") {
		stage, ns, ok := strings.Cut(part, ":")
		if !ok {
			continue
		}
		i := slices.Index(serverStages[:], stage)
		v, err := strconv.ParseInt(ns, 10, 64)
		if i >= 0 && err == nil {
			t[i] += v
		}
	}
	return t
}

// windowStats aggregates the connections' counters over one window.
type windowStats struct {
	elapsed                   time.Duration
	lat                       []int64
	attempted, failed         int64
	blockFetches, wordFetches int64
	okBlocks, okWords         int64
	wireBytes                 int64
	firstErr                  error
	spans                     []span
}

func (w *windowStats) ok() int64 { return w.okBlocks + w.okWords }

// add merges o, a later slice of the same window, into w.
func (w *windowStats) add(o *windowStats) {
	w.elapsed += o.elapsed
	w.lat = append(w.lat, o.lat...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.blockFetches += o.blockFetches
	w.wordFetches += o.wordFetches
	w.okBlocks += o.okBlocks
	w.okWords += o.okWords
	w.wireBytes += o.wireBytes
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	w.spans = append(w.spans, o.spans...)
}

// runWindow drives every connection in a closed loop for d and returns
// the merged counters. The window ends when the last in-flight fetch
// completes, so server counters read afterwards cover exactly its
// requests. Span start times are relative to epoch.
func runWindow(conns []*conn, entries []*entry, d time.Duration, traced bool, epoch time.Time) *windowStats {
	capHint := int(d.Seconds()*20000) / len(conns)
	for _, c := range conns {
		c.resetStats(capHint)
		c.hooks = nil
		if traced {
			c.hooks = newHookTimes(epoch)
			c.st.spans = make([]span, 0, capHint)
		}
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.fetch(entries, epoch)
			}
		}()
	}
	wg.Wait()
	w := &windowStats{}
	for _, c := range conns {
		w.add(&c.st)
		c.hooks = nil
	}
	w.elapsed = time.Since(start)
	return w
}

// nullBytes is the control server's fixed response size, about one
// compressed block.
const nullBytes = 48

// runNullWindow drives the connections against the bare net/http control
// server at base for d, with the same closed loop as runWindow, and
// counts its responses as ok blocks.
func runNullWindow(conns []*conn, base string, d time.Duration) *windowStats {
	url := base + "/null"
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range conns {
		c.resetStats(int(d.Seconds()*30000) / len(conns))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.st.attempted++
				t0 := time.Now()
				resp, err := c.client.Get(url)
				if err == nil {
					c.body.Reset()
					_, err = c.body.ReadFrom(resp.Body)
					resp.Body.Close()
					if err == nil && (resp.StatusCode != http.StatusOK || c.body.Len() != nullBytes) {
						err = fmt.Errorf("control server: %s, %d bytes", resp.Status, c.body.Len())
					}
				}
				if err != nil {
					c.fail(err)
					continue
				}
				c.st.lat = append(c.st.lat, int64(time.Since(t0)))
				c.st.okBlocks++
			}
		}()
	}
	wg.Wait()
	w := &windowStats{}
	for _, c := range conns {
		w.add(&c.st)
	}
	w.elapsed = time.Since(start)
	return w
}

// sweep fetches every block of every entry once, split across the
// connections, so a block workload's window starts with each block
// seen at least once. Failures count like window failures.
func sweep(conns []*conn, entries []*entry) (attempted, failed int64, firstErr error) {
	var wg sync.WaitGroup
	for ci, c := range conns {
		saved, savedPos := c.ops, c.pos
		var ops []op
		for i, e := range entries {
			for b := range e.want {
				if (i+b)%len(conns) == ci {
					ops = append(ops, op{entry: int32(i), block: int32(b)})
				}
			}
		}
		c.resetStats(len(ops))
		c.ops, c.pos = ops, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ops {
				c.fetch(entries, time.Now())
			}
			c.ops, c.pos = saved, savedPos
		}()
	}
	wg.Wait()
	for _, c := range conns {
		attempted += c.st.attempted
		failed += c.st.failed
		if firstErr == nil {
			firstErr = c.st.firstErr
		}
	}
	return attempted, failed, firstErr
}
