// Command perfbench is the repository's end-to-end serving benchmark.
// It starts apcc-serve (or, for block-miss, a launcher around the same
// service package) out of process, drives it from a closed loop of two
// connections, checks every byte returned against the client's own
// unpacked containers, and prints one JSON result line.
//
//	perfbench -bin DIR -work DIR --workload block-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it reports the per-layer split: half the window
// untraced, half with server tracing and client httptrace hooks, plus
// in-process timings of the compress, pack, store and service layers
// on the same inputs. run.sh builds the binaries and calls this.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/workloads"
)

// numConns is the closed loop's connection count: one per core of the
// 2-core host the benchmark was sized on. More connections only queue.
const numConns = 2

// setupReps is how many times a run sets the server up; setup_s is the
// median.
const setupReps = 9

// workload is one benchmark traffic mix.
type workload struct {
	name   string
	codecs []string
	words  bool   // every fetch is a sub-block word read
	store  string // "", "cold" (fresh directory per setup) or "warm"
	// cacheBytes > 0 serves through the launcher with a byte-sized L1.
	cacheBytes, shards int
}

func workloadsByName() map[string]workload {
	return map[string]workload{
		// Every L1 lookup hits after warm-up: HTTP, the handler, the L1
		// lookup and the device's decode (all seven codecs) do the work.
		"block-hot": {name: "block-hot", codecs: compress.Names()},
		// An L1 far below the compressed working set over a warm store:
		// the miss ladder (L2 read, readahead, verify, eviction) works.
		"block-miss": {name: "block-miss", codecs: compress.Names(), store: "warm", cacheBytes: 4 << 10, shards: 4},
		// Sub-block word reads through the v3 group directory of a
		// store filled cold; L1 is bypassed.
		"wordread": {name: "wordread", codecs: groupCodecs(), words: true, store: "cold"},
	}
}

// groupCodecs lists the registered codecs that implement group decode.
func groupCodecs() []string {
	train := make([]byte, 256)
	for i := range train {
		train[i] = byte(i * 7)
	}
	var out []string
	for _, name := range compress.Names() {
		c, err := compress.New(name, train)
		if err != nil {
			continue
		}
		if _, ok := compress.AsGroupCodec(c); ok {
			out = append(out, name)
		}
	}
	return out
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wlName  = flag.String("workload", "", "block-hot | block-miss | wordread")
		seed    = flag.Int64("seed", 1, "workload seed: device traces and word spans derive from it")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding apcc-serve and perfbench-launcher")
		workDir = flag.String("work", ".bench_build/run", "scratch directory for stores, logs and spans")
	)
	flag.Parse()
	// The client allocates per request; collecting less often keeps its
	// GC from competing with the server for the host's cores.
	debug.SetGCPercent(400)
	wl, ok := workloadsByName()[*wlName]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload block-hot|block-miss|wordread, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, wl.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{wl: wl, seed: *seed, binDir: *binDir, dir: dir, spansDir: *workDir}
	defer b.stopAll()
	window := time.Duration(*seconds) * time.Second
	var res *result
	if *traced == 1 {
		res, err = b.tracedRun(window)
	} else {
		res, err = b.endToEndRun(window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.detail["env"] = b.env
	if len(b.problems) > 0 {
		res.Correct = false
		b.detail["problems"] = b.problems
		for _, p := range b.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
	}
	detail, err := json.Marshal(map[string]any{"detail": b.detail})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(detail))
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench holds one run's state.
type bench struct {
	wl       workload
	seed     int64
	binDir   string
	dir      string // per-run scratch, removed at exit
	spansDir string // where the traced run leaves its spans
	servers  []*server

	entries []*entry
	conns   []*conn
	env     map[string]any
	// detail is printed as the line before the result: the run
	// environment, sample counts, raw figures and check failures.
	detail   map[string]any
	problems []string
}

func (b *bench) problemf(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) stopAll() {
	for _, s := range b.servers {
		s.stop()
	}
	b.servers = nil
}

func (b *bench) stop(s *server) {
	s.stop()
	b.servers = slices.DeleteFunc(b.servers, func(x *server) bool { return x == s })
}

// serverArgs is the command line for one server of this workload.
func (b *bench) serverArgs(storeDir string, traced bool) (bin string, args []string) {
	trace := "-1"
	if traced {
		trace = "256"
	}
	if b.wl.cacheBytes > 0 {
		args = []string{"-cache-bytes", fmt.Sprint(b.wl.cacheBytes), "-shards", fmt.Sprint(b.wl.shards), "-trace", trace}
		bin = filepath.Join(b.binDir, "perfbench-launcher")
	} else {
		args = []string{"-trace", trace, "-log-level", "warn"}
		bin = filepath.Join(b.binDir, "apcc-serve")
	}
	if storeDir != "" {
		args = append(args, "-store", storeDir)
	}
	return bin, args
}

// launch starts a server and loads every container the workload uses:
// each is fetched, unpacked and verified by the client, and with a
// store the server has persisted them all. It returns the time from
// launch to that point.
func (b *bench) launch(ctx context.Context, storeDir string, traced bool) (*server, time.Duration, error) {
	bin, args := b.serverArgs(storeDir, traced)
	t0 := time.Now()
	s, err := startServer(bin, args, filepath.Join(b.dir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	b.servers = append(b.servers, s)
	entries, err := b.loadEntries(ctx, s)
	if err != nil {
		return nil, 0, err
	}
	if storeDir != "" {
		if err := waitPersisted(ctx, s, len(entries)); err != nil {
			return nil, 0, err
		}
	}
	d := time.Since(t0)
	if b.entries == nil {
		b.entries = entries
	}
	return s, d, nil
}

// loadEntries fetches the workload's containers over numConns
// concurrent fetchers, in workload-then-codec order.
func (b *bench) loadEntries(ctx context.Context, s *server) ([]*entry, error) {
	type key struct{ workload, codec string }
	var keys []key
	for _, w := range workloads.Names() {
		for _, c := range b.wl.codecs {
			keys = append(keys, key{w, c})
		}
	}
	out := make([]*entry, len(keys))
	errs := make(chan error, numConns)
	for f := 0; f < numConns; f++ {
		go func() {
			for i := f; i < len(keys); i += numConns {
				e, err := fetchEntry(ctx, s.client, s.base, keys[i].workload, keys[i].codec)
				if err != nil {
					errs <- err
					return
				}
				out[i] = e
			}
			errs <- nil
		}()
	}
	var first error
	for f := 0; f < numConns; f++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return out, first
}

// waitPersisted polls until the server's store holds every container.
func waitPersisted(ctx context.Context, s *server, n int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		p, err := s.prom(ctx)
		if err != nil {
			return err
		}
		if int(p["apcc_store_persists_total"]+p["apcc_store_warm_restores_total"]) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store persisted %v of %d containers within 60s", p["apcc_store_persists_total"], n)
		}
		time.Sleep(time.Millisecond)
	}
}

// prepare records the run environment and, for a warm workload, fills
// the stores of arms servers with one untimed server each.
func (b *bench) prepare(ctx context.Context, arms int) error {
	b.env = runEnv(b.seed)
	b.detail = map[string]any{"workload": b.wl.name}
	if b.wl.store != "warm" {
		return nil
	}
	for arm := 0; arm < arms; arm++ {
		s, _, err := b.launch(ctx, b.storeDir(arm, 0), false)
		if err != nil {
			return fmt.Errorf("filling the warm store: %w", err)
		}
		b.stop(s)
	}
	return nil
}

// storeDir names the store of an arm's setup rep. A warm workload's
// setups restart on the store prepare filled for the arm; a cold
// workload's setups each start from an empty directory.
func (b *bench) storeDir(arm, rep int) string {
	switch b.wl.store {
	case "warm":
		return filepath.Join(b.dir, fmt.Sprintf("warm-%d", arm))
	case "cold":
		return filepath.Join(b.dir, fmt.Sprintf("cold-%d-%d", arm, rep))
	}
	return ""
}

// planConns builds the connections once the entries are known.
func (b *bench) planConns() error {
	// Steps per entry: more than a window at the fastest observed rate
	// needs, so plans rarely wrap.
	steps := 2048
	b.conns = nil
	for c := 0; c < numConns; c++ {
		ops, err := planConn(b.entries, b.seed, c, steps, b.wl.words)
		if err != nil {
			return err
		}
		b.conns = append(b.conns, newConn(c, ops))
	}
	b.detail["entries"] = len(b.entries)
	return nil
}

// warm points the connections at s and runs the block sweep (block
// workloads) and a short closed-loop burst, untimed, so the window
// measures steady state.
func (b *bench) warm(s *server) error {
	b.target(s)
	var attempted, failed int64
	var first error
	if !b.wl.words {
		attempted, failed, first = sweep(b.conns, b.entries)
	}
	w := runWindow(b.conns, b.entries, 500*time.Millisecond, false, time.Now())
	attempted += w.attempted
	failed += w.failed
	if first == nil {
		first = w.firstErr
	}
	if failed > 0 {
		return fmt.Errorf("warm-up: %d of %d fetches failed; first: %v", failed, attempted, first)
	}
	return nil
}

func (b *bench) target(s *server) {
	for _, c := range b.conns {
		c.base = s.base
	}
}

// arm is one server a window's traffic goes to. A control arm is the
// bare net/http server: its responses are counted, not checked, and it
// has no apcc counters.
type arm struct {
	s       *server
	traced  bool
	control bool
}

// measured is one arm's share of a window, with the server-side
// readings that bracket it.
type measured struct {
	w           *windowStats
	prom        promSnap // after minus before; nil for a control arm
	cpuTicks    int64
	hwmKiB      int64
	stealFrac   float64
	setupProm   promSnap // absolute, read before warm-up
	fetchesPerS float64
}

// altSlice is how long one arm gets the connections before the next
// arm's turn when a window alternates between arms.
const altSlice = 250 * time.Millisecond

// measure warms each arm's server, then gives each arm window/len(arms)
// of closed-loop traffic. With several arms the traffic alternates
// between them in altSlice slices, so all of them see the same host
// conditions. Each server's counters and CPU time are read just before
// and after the whole window.
func (b *bench) measure(ctx context.Context, arms []arm, window time.Duration) ([]*measured, error) {
	ms := make([]*measured, len(arms))
	befores := make([]promSnap, len(arms))
	cpu0 := make([]int64, len(arms))
	for i, a := range arms {
		ms[i] = &measured{w: &windowStats{}}
		if a.control {
			runNullWindow(b.conns, a.s.base, 500*time.Millisecond)
			continue
		}
		p, err := a.s.prom(ctx)
		if err != nil {
			return nil, err
		}
		ms[i].setupProm = p
		if err := b.warm(a.s); err != nil {
			return nil, err
		}
	}
	for i, a := range arms {
		var err error
		if !a.control {
			if befores[i], err = a.s.prom(ctx); err != nil {
				return nil, err
			}
		}
		if cpu0[i], err = procCPUTicks(a.s.pid()); err != nil {
			return nil, err
		}
	}
	steal0, total0 := hostCPU()
	share := window / time.Duration(len(arms))
	slice := share
	if len(arms) > 1 {
		slice = altSlice
	}
	epoch := time.Now()
	for done := time.Duration(0); done < share; done += slice {
		d := min(slice, share-done)
		for i, a := range arms {
			var w *windowStats
			if a.control {
				w = runNullWindow(b.conns, a.s.base, d)
			} else {
				b.target(a.s)
				w = runWindow(b.conns, b.entries, d, a.traced, epoch)
			}
			ms[i].w.add(w)
		}
	}
	steal1, total1 := hostCPU()
	for i, a := range arms {
		m := ms[i]
		cpu1, err := procCPUTicks(a.s.pid())
		if err != nil {
			return nil, err
		}
		if m.hwmKiB, err = procHWMKiB(a.s.pid()); err != nil {
			return nil, err
		}
		m.cpuTicks = cpu1 - cpu0[i]
		if total1 > total0 {
			m.stealFrac = float64(steal1-steal0) / float64(total1-total0)
		}
		m.fetchesPerS = float64(m.w.ok()) / m.w.elapsed.Seconds()
		if m.w.failed > 0 {
			b.problemf("%d of %d fetches failed; first: %v", m.w.failed, m.w.attempted, m.w.firstErr)
		}
		if a.control {
			continue
		}
		after, err := a.s.prom(ctx)
		if err != nil {
			return nil, err
		}
		m.prom = delta(befores[i], after)
		b.checkProfile(m)
		b.checkIdentities(m)
	}
	return ms, nil
}

// checkProfile fails a run whose traffic took the wrong path, so no
// numbers are reported for a path the workload was not meant to take.
func (b *bench) checkProfile(m *measured) {
	d := m.prom
	l1 := d[`apcc_cache_events_total{event="hit"}`] + d[`apcc_cache_events_total{event="miss"}`] + d[`apcc_cache_events_total{event="coalesced"}`]
	hitRatio := ratio(d[`apcc_cache_events_total{event="hit"}`], l1)
	l2 := d[`apcc_store_l2_events_total{event="hit"}`] + d[`apcc_store_l2_events_total{event="miss"}`]
	l2Ratio := ratio(d[`apcc_store_l2_events_total{event="hit"}`], l2)
	words := d[`apcc_word_reads_total{source="store"}`] + d[`apcc_word_reads_total{source="memory"}`]
	wordStore := ratio(d[`apcc_word_reads_total{source="store"}`], words)
	retries := d.sum("apcc_retries_total")
	switch b.wl.name {
	case "block-hot":
		if hitRatio < 0.99 {
			b.problemf("block-hot: l1 hit ratio %.4f < 0.99", hitRatio)
		}
		if st := d.sum("apcc_store_") + words; st != 0 {
			b.problemf("block-hot: store or word traffic in the window (%v)", st)
		}
	case "block-miss":
		if hitRatio > 0.5 {
			b.problemf("block-miss: l1 hit ratio %.4f > 0.5", hitRatio)
		}
		if l2Ratio <= 0 {
			b.problemf("block-miss: no l2 hits")
		}
		if retries != 0 || d["apcc_shed_total"] != 0 {
			b.problemf("block-miss: %v retries, %v sheds", retries, d["apcc_shed_total"])
		}
		if packs := m.setupProm["apcc_packs_built_total"]; packs != 0 {
			b.problemf("block-miss: warm restart built %v containers", packs)
		}
	case "wordread":
		if wordStore < 0.99 {
			b.problemf("wordread: store served %.4f of word reads < 0.99", wordStore)
		}
	}
}

// checkIdentities cross-checks the server's counters against the
// client's counts over the window.
func (b *bench) checkIdentities(m *measured) {
	d, w := m.prom, m.w
	eq := func(what string, server float64, client int64) {
		if server != float64(client) {
			b.problemf("identity %s: server %v, client %d", what, server, client)
		}
	}
	l1 := d[`apcc_cache_events_total{event="hit"}`] + d[`apcc_cache_events_total{event="miss"}`] + d[`apcc_cache_events_total{event="coalesced"}`]
	eq("l1 hits+misses+coalesced = block fetches", l1, w.blockFetches)
	eq("blocks served = ok block fetches", d["apcc_blocks_served_total"], w.okBlocks)
	eq("store+memory word reads = word fetches",
		d[`apcc_word_reads_total{source="store"}`]+d[`apcc_word_reads_total{source="memory"}`], w.wordFetches)
	// The closing /metrics/prom scrape counts itself.
	eq("http requests = fetches + 1 scrape", d["apcc_http_requests_total"], w.attempted+1)
	if b.wl.store != "" {
		eq("store word reads = store-source word reads", d["apcc_store_word_reads_total"],
			int64(d[`apcc_word_reads_total{source="store"}`]))
		if !b.wl.words {
			eq("l2 hits+misses = l1 misses",
				d[`apcc_store_l2_events_total{event="hit"}`]+d[`apcc_store_l2_events_total{event="miss"}`],
				int64(d[`apcc_cache_events_total{event="miss"}`]))
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runEnv records the host the run measured.
func runEnv(seed int64) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        model,
		"seed":       seed,
		"conns":      numConns,
	}
}
