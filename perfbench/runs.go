package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"apbcc/internal/compress"
)

// endToEndRun sets the server up setupReps times (setup_s is the
// median), then alternates one untraced window between the last server
// and the bare net/http control server.
//
// The host this benchmark was built on drifted by up to 3x in speed
// within a minute, moving every raw timing with it. The gated timing
// metrics are therefore ratios to the control measured in the same
// slices; the raw figures are printed beside them.
func (b *bench) endToEndRun(window time.Duration) (*result, error) {
	ctx := context.Background()
	if err := b.prepare(ctx, 1); err != nil {
		return nil, err
	}
	var setups []float64
	var s *server
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			b.stop(s)
			if b.wl.store == "cold" {
				// Each cold setup writes a fresh store; drop the last one
				// so disk use stays flat across the reps.
				if err := os.RemoveAll(b.storeDir(0, rep-1)); err != nil {
					return nil, err
				}
			}
		}
		var d time.Duration
		var err error
		if s, d, err = b.launch(ctx, b.storeDir(0, rep), false); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	if err := b.planConns(); err != nil {
		return nil, err
	}
	ctl, err := startServer(filepath.Join(b.binDir, "perfbench-launcher"),
		[]string{"-null-bytes", strconv.Itoa(nullBytes)}, filepath.Join(b.dir, "control.log"))
	if err != nil {
		return nil, err
	}
	b.servers = append(b.servers, ctl)
	ms, err := b.measure(ctx, []arm{{s: s}, {s: ctl, control: true}}, window)
	if err != nil {
		return nil, err
	}
	b.stopAll()

	raw, w := figures(ms[0]), ms[0].w
	ref := figures(ms[1])
	res := &result{Correct: true, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{
		"fetches_per_s_vs_nethttp": {ratio(raw.fetchesPerS, ref.fetchesPerS), "ratio"},
		"fetch_p50_vs_nethttp":     {ratio(raw.p50US, ref.p50US), "ratio"},
		"fetch_p99_vs_nethttp":     {ratio(raw.p99US, ref.p99US), "ratio"},
		"server_cpu_vs_nethttp":    {ratio(raw.cpuUS, ref.cpuUS), "ratio"},
		"ok_ratio":                 {ratio(float64(w.ok()), float64(w.attempted)), "ratio"},
		"server_peak_rss_mib":      {float64(ms[0].hwmKiB) / 1024, "MiB"},
		"wire_bytes_per_fetch":     {ratio(float64(w.wireBytes), float64(w.ok())), "B"},
		"setup_s":                  {median(setups), "s"},
	}}
	b.detail["raw"] = map[string]metric{
		"fetches_per_s":           {raw.fetchesPerS, "1/s"},
		"fetch_p50_us":            {raw.p50US, "us"},
		"fetch_p99_us":            {raw.p99US, "us"},
		"server_cpu_us_per_fetch": {raw.cpuUS, "us"},
	}
	b.detail["control"] = map[string]metric{
		"fetches_per_s":           {ref.fetchesPerS, "1/s"},
		"fetch_p50_us":            {ref.p50US, "us"},
		"fetch_p99_us":            {ref.p99US, "us"},
		"server_cpu_us_per_fetch": {ref.cpuUS, "us"},
	}
	b.detail["samples"] = len(w.lat)
	b.detail["p99_tail_samples"] = len(w.lat) - int(0.99*float64(len(w.lat)))
	b.detail["window_s"] = w.elapsed.Seconds()
	b.detail["setup_s_each"] = setups
	b.env["steal_frac"] = ms[0].stealFrac
	return res, nil
}

// armFigures are one arm's raw end-to-end figures over the window.
type armFigures struct{ fetchesPerS, p50US, p99US, cpuUS float64 }

func figures(m *measured) armFigures {
	lat := slices.Clone(m.w.lat)
	slices.Sort(lat)
	return armFigures{
		fetchesPerS: m.fetchesPerS,
		p50US:       quantile(lat, 0.50) / 1e3,
		p99US:       quantile(lat, 0.99) / 1e3,
		cpuUS:       ratio(float64(m.cpuTicks)*1e6/clockTicks, float64(m.w.ok())),
	}
}

// tracedRun runs an untraced and a traced server side by side and
// alternates the window between them in altSlice slices: the traced
// one with server tracing (X-Apcc-Trace, X-Apcc-Stages) and client
// httptrace hooks. The split of the traced half, the in-process timings
// of the compress, pack, store and service layers on the same inputs,
// and the tracing overhead against the untraced half make up the
// per-layer metrics.
func (b *bench) tracedRun(window time.Duration) (*result, error) {
	ctx := context.Background()
	if err := b.prepare(ctx, 2); err != nil {
		return nil, err
	}
	plainSrv, _, err := b.launch(ctx, b.storeDir(0, 0), false)
	if err != nil {
		return nil, err
	}
	tracedStore := b.storeDir(1, 0)
	tracedSrv, _, err := b.launch(ctx, tracedStore, true)
	if err != nil {
		return nil, err
	}
	if err := b.planConns(); err != nil {
		return nil, err
	}
	ms, err := b.measure(ctx, []arm{{s: plainSrv}, {s: tracedSrv, traced: true}}, window)
	if err != nil {
		return nil, err
	}
	b.stopAll()
	plain, tm := ms[0], ms[1]
	if err := b.writeSpans(tm.w.spans); err != nil {
		return nil, err
	}

	pl := make(map[string]float64)
	b.clientLayers(pl, tm)
	b.serverLayers(pl, tm)
	pl["obs.trace_overhead_frac"] = 1 - ratio(tm.fetchesPerS, plain.fetchesPerS)
	if err := b.inProcessLayers(pl, tracedStore, min(window/2, handlerReplay)); err != nil {
		return nil, err
	}

	res := &result{
		Correct:   true,
		Attempted: plain.w.attempted + tm.w.attempted,
		Failed:    plain.w.failed + tm.w.failed,
		Metrics:   make(map[string]metric, len(pl)),
	}
	for _, l := range perLayer() {
		v, ok := pl[l.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", l.name)
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
	b.detail["traced_samples"] = len(tm.w.spans)
	b.detail["untraced_fetches_per_s"] = plain.fetchesPerS
	b.detail["traced_fetches_per_s"] = tm.fetchesPerS
	b.env["steal_frac"] = tm.stealFrac
	return res, nil
}

// handlerReplay caps the in-process handler replay.
const handlerReplay = 2 * time.Second

// writeSpans leaves the traced run's spans, one JSON line per fetch, in
// spans-<workload>.jsonl beside the run directories.
func (b *bench) writeSpans(spans []span) error {
	path := filepath.Join(b.spansDir, "spans-"+b.wl.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	b.detail["spans_file"] = path
	return f.Close()
}

// clientLayers averages the client phases over the traced window's
// successful fetches. Means, unlike medians, add up, so the phases sum
// to the mean fetch time.
func (b *bench) clientLayers(pl map[string]float64, m *measured) {
	var n, total, connWait, write, ttfb, body, decode, verify float64
	for _, sp := range m.w.spans {
		if sp.Err != "" {
			continue
		}
		n++
		total += float64(sp.TotalNS)
		connWait += float64(sp.ConnWaitNS)
		write += float64(sp.WriteNS)
		ttfb += float64(sp.TTFBNS)
		body += float64(sp.BodyNS)
		decode += float64(sp.DecodeNS)
		verify += float64(sp.VerifyNS)
	}
	us := func(ns float64) float64 { return ratio(ns, n) / 1e3 }
	pl["client.fetch_us"] = us(total)
	pl["client.conn_wait_us"] = us(connWait)
	pl["client.write_us"] = us(write)
	pl["client.ttfb_us"] = us(ttfb)
	pl["client.body_us"] = us(body)
	pl["client.decode_us"] = us(decode)
	pl["client.verify_us"] = us(verify)
	cover := ratio(connWait+write+ttfb+body+decode, total)
	pl["client.phase_cover_frac"] = cover
	if cover < 0.9 || cover > 1.1 {
		b.problemf("client phases cover %.3f of the fetch time, outside 0.9-1.1", cover)
	}
}

// serverLayers turns the traced window's stage headers and counter
// deltas into per-fetch means and ratios.
func (b *bench) serverLayers(pl map[string]float64, m *measured) {
	var sums [len(serverStages)]float64
	var n float64
	for _, sp := range m.w.spans {
		if sp.Err != "" {
			continue
		}
		n++
		for i, ns := range sp.Stages {
			sums[i] += float64(ns)
		}
	}
	var staged float64
	for i, st := range serverStages {
		v := ratio(sums[i], n) / 1e3
		pl["service.stage."+st+"_us"] = v
		staged += v
	}
	d := m.prom
	fetches := float64(m.w.attempted)
	// The write stage is not in the header; the stage histogram's sum
	// has it.
	write := ratio(d.sum(`apcc_block_stage_seconds_sum{stage="write",`)*1e6, fetches)
	pl["service.stage.write_us"] = write
	pl["service.unattributed_us"] = pl["client.ttfb_us"] - staged - write

	hits := d[`apcc_cache_events_total{event="hit"}`]
	l1 := hits + d[`apcc_cache_events_total{event="miss"}`] + d[`apcc_cache_events_total{event="coalesced"}`]
	l2hits := d[`apcc_store_l2_events_total{event="hit"}`]
	words := d[`apcc_word_reads_total{source="store"}`] + d[`apcc_word_reads_total{source="memory"}`]
	completed := d[`apcc_pool_jobs_total{state="completed"}`]
	pl["service.l1_hit_ratio"] = ratio(hits, l1)
	pl["service.l1_evictions"] = ratio(d[`apcc_cache_events_total{event="eviction"}`], fetches)
	pl["store.l2_hit_ratio"] = ratio(l2hits, l2hits+d[`apcc_store_l2_events_total{event="miss"}`])
	pl["store.block_read_bytes"] = ratio(d["apcc_store_block_read_bytes_total"], fetches)
	pl["service.readahead_admitted"] = ratio(d[`apcc_store_l2_events_total{event="readahead_admit"}`], fetches)
	pl["pool.jobs"] = ratio(completed, fetches)
	pl["pool.batch_mean"] = ratio(completed, d["apcc_pool_batches_total"])
	pl["store.word_reads"] = ratio(d["apcc_store_word_reads_total"], fetches)
	pl["service.word_store_ratio"] = ratio(d[`apcc_word_reads_total{source="store"}`], words)

	// Set-up counters: absolute since launch, read before warm-up.
	sp := m.setupProm
	pl["service.packs_built"] = sp["apcc_packs_built_total"]
	pl["service.verify_unpack_s"] = sp["apcc_verify_unpack_seconds_total"]
	pl["store.persists"] = sp["apcc_store_persists_total"]
	pl["store.warm_restores"] = sp["apcc_store_warm_restores_total"]
}

// layer names one per-layer metric and its unit.
type layer struct{ name, unit string }

// perLayer lists every metric the traced run reports, in the order
// BENCHMARK.json lists them.
func perLayer() []layer {
	l := []layer{
		{"client.fetch_us", "us"},
		{"client.conn_wait_us", "us"},
		{"client.write_us", "us"},
		{"client.ttfb_us", "us"},
		{"client.body_us", "us"},
		{"client.decode_us", "us"},
		{"client.verify_us", "us"},
		{"client.phase_cover_frac", "ratio"},
		{"service.handler_us", "us"},
		{"nethttp.tax_us", "us"},
	}
	for _, st := range serverStages {
		l = append(l, layer{"service.stage." + st + "_us", "us"})
	}
	l = append(l,
		layer{"service.stage.write_us", "us"},
		layer{"service.unattributed_us", "us"},
		layer{"service.l1_hit_ratio", "ratio"},
		layer{"service.l1_evictions", "1/fetch"},
		layer{"store.l2_hit_ratio", "ratio"},
		layer{"store.block_read_bytes", "B/fetch"},
		layer{"service.readahead_admitted", "1/fetch"},
		layer{"pool.jobs", "1/fetch"},
		layer{"pool.batch_mean", "jobs"},
		layer{"store.word_reads", "1/fetch"},
		layer{"service.word_store_ratio", "ratio"},
		layer{"store.read_word_range_us", "us"},
		layer{"pack.pack_us", "us"},
		layer{"pack.unpack_us", "us"},
		layer{"pack.parse_index_us", "us"},
		layer{"service.packs_built", "count"},
		layer{"service.verify_unpack_s", "s"},
		layer{"store.persists", "count"},
		layer{"store.open_ms", "ms"},
		layer{"store.warm_restores", "count"},
		layer{"obs.trace_overhead_frac", "ratio"},
	)
	for _, c := range compress.Names() {
		l = append(l, layer{"compress." + c + ".decode_mbps", "MB/s"})
	}
	for _, c := range groupCodecs() {
		l = append(l, layer{"compress." + c + ".group_decode_ns", "ns"})
	}
	return l
}

// quantile returns the q-quantile of sorted (nearest rank), in the
// samples' unit.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
