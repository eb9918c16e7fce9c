// Command apcc-serve runs the concurrent pack-serving subsystem: an
// HTTP service packing workloads into APCC containers on demand and
// serving whole containers or individual compressed blocks, plus a
// load-generator mode that replays workload access patterns against it
// from many concurrent simulated devices.
//
// Usage:
//
//	apcc-serve -addr :8080                        # serve
//	apcc-serve -addr :8080 -store /var/lib/apcc   # + disk tier & warm restarts
//	apcc-serve -loadgen -clients 32 -workload fft # loadgen against an
//	                                              # in-process server
//	apcc-serve -loadgen -target http://host:8080 -clients 64 -steps 1000
//	apcc-serve -coldwarm -store ./s -workload fft # restart scenario
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/obs"
	"apbcc/internal/report"
	"apbcc/internal/service"
)

// chaosDefaultProfile is the fault profile -chaos runs when -faults is
// not given: 10% store reads delayed, 1% failing transiently, 0.1%
// flipping a bit.
const chaosDefaultProfile = "store.read-at:p=0.1,lat=2ms;store.read-at:p=0.01,err;store.read-at:p=0.001,bitflip"

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (serve mode)")
		cacheMB  = flag.Int("cache-mb", 32, "block cache capacity in MiB")
		shards   = flag.Int("shards", 16, "block cache shard count")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "pack/compress worker pool size")
		queue    = flag.Int("queue", 256, "worker pool queue depth")
		batch    = flag.Int("batch", 8, "worker pool max batch per wakeup")
		storeDir = flag.String("store", "", "content-addressed disk store directory (L2 tier + warm restarts)")
		rahead   = flag.Int("readahead", 0, "predicted successor blocks fetched per L2 read and admitted to L1\n(0 = default of 2, negative disables; needs -store)")

		reqTimeout = flag.Duration("request-timeout", 0, "per-request deadline; expired requests get 504 (0 disables)")
		faultSpec  = flag.String("faults", "", "fault-injection spec, e.g.\n'store.read-at:p=0.1,lat=2ms;store.read-at:p=0.01,err'\n(also settable at runtime via POST /debug/faults)")
		faultSeed  = flag.Uint64("fault-seed", 1, "fault-injection PRNG seed (deterministic replay)")
		faultsHTTP = flag.Bool("debug-faults", false, "mount the GET/POST /debug/faults runtime fault-control endpoint on\nthe serving mux (implied by -faults). Off by default: the endpoint\nmutates process-global fault state, so never expose it to untrusted\nclients")
		chaos      = flag.Bool("chaos", false, "run the three-phase chaos scenario (requires -store):\nload under -faults (default "+
			"10% lat / 1% err / 0.1% bitflip on store reads),\nforced breaker open, healed recovery; exits non-zero on wrong bytes")
		retryBusy = flag.Bool("retry-busy", false, "loadgen: retry 429/503/504 responses with capped backoff")

		traceRing = flag.Int("trace", 0, "request-trace ring capacity behind GET /debug/trace\n(0 = default of 256, negative disables tracing)")
		debugAddr = flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty disables)")
		logLevel  = flag.String("log-level", "info", "structured log level: debug | info | warn | error")
		logFormat = flag.String("log-format", "text", "structured log format: text | json")

		loadgen  = flag.Bool("loadgen", false, "run the load generator instead of serving")
		coldwarm = flag.Bool("coldwarm", false, "loadgen: run the cold-start/warm-restart scenario (requires -store)")
		codecmix = flag.Bool("codecmix", false, "loadgen: replay the scenario once per registered codec\n(ignores -codec) and report a per-codec comparison")
		target   = flag.String("target", "", "loadgen target base URL (default: in-process server)")
		clients  = flag.Int("clients", 32, "loadgen concurrent clients")
		steps    = flag.Int("steps", 500, "loadgen trace steps per client")
		workload = flag.String("workload", "fft", "loadgen scenario list: comma-separated workload names\nassigned to clients round-robin (e.g. fft,zipf,loopphase)")
		codec    = flag.String("codec", "dict", "loadgen block codec: "+strings.Join(compress.Names(), " | "))
		seed     = flag.Int64("seed", 1, "loadgen base trace seed")
		wordread = flag.Float64("wordread", 0, "loadgen: fraction of fetches issued as sub-block word reads\n(?word=W&words=N, zipf start words; 0 disables, 1 = all)")
		traceOut = flag.String("trace-out", "", "loadgen: write one JSON line per block fetch (client latency +\nserver per-stage attribution) to this file ('-' for stdout)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	cfg := service.Config{
		CacheShards:    *shards,
		CacheBytes:     *cacheMB << 20,
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxBatch:       *batch,
		StoreDir:       *storeDir,
		ReadaheadK:     *rahead,
		TraceRing:      *traceRing,
		RequestTimeout: *reqTimeout,
		DebugFaults:    *faultsHTTP || *faultSpec != "",
		Log:            logger,
	}

	// Arm the fault layer before any server boots. The chaos scenario
	// manages the fault lifecycle itself (seed, profile, reset), so it
	// only takes the spec as its profile.
	if *faultSpec != "" && !*chaos {
		faults.SetSeed(*faultSeed)
		if err := faults.Set(*faultSpec); err != nil {
			fatal(err)
		}
		logger.Warn("fault injection armed", "spec", *faultSpec, "seed", *faultSeed)
	}

	if *debugAddr != "" {
		go servePprof(*debugAddr, logger)
	}

	if *chaos {
		if err := runChaos(cfg, *faultSpec, *faultSeed, *workload, *codec, *clients, *steps, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *coldwarm {
		if err := runColdWarm(cfg, *workload, *codec, *clients, *steps, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *codecmix {
		if err := runCodecMix(cfg, *target, *workload, *clients, *steps, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *loadgen {
		if err := runLoadgen(cfg, *target, *workload, *codec, *clients, *steps, *seed, *wordread, *traceOut, *retryBusy); err != nil {
			fatal(err)
		}
		return
	}

	srv, err := service.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Bound slow clients so stalled connections cannot pin
		// goroutines and descriptors indefinitely.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		// Flip readiness first so load balancers stop routing here
		// while in-flight requests drain.
		srv.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("graceful shutdown incomplete; connections were dropped", "err", err)
		}
	}()
	fmt.Printf("apcc-serve: listening on %s (%d shards, %d MiB LRU cache, %d workers)\n",
		*addr, *shards, *cacheMB, *workers)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	// ListenAndServe returns the moment Shutdown begins; wait for the
	// drain to finish before tearing down the worker pool.
	stop()
	<-shutdownDone
}

// runLoadgen replays the workload against target, or against a
// self-hosted in-process server on a loopback port when no target is
// given — a single-binary demo of the whole serving path.
func runLoadgen(cfg service.Config, target, workload, codec string, clients, steps int, seed int64, wordFrac float64, traceOut string, retryBusy bool) error {
	var traceW io.Writer
	switch traceOut {
	case "":
	case "-":
		traceW = os.Stdout
	default:
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		traceW = f
	}
	var inproc *service.Server
	if target == "" {
		var err error
		inproc, err = service.New(cfg)
		if err != nil {
			return err
		}
		defer inproc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{
			Handler:           inproc.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		target = "http://" + ln.Addr().String()
		fmt.Printf("apcc-serve: in-process server on %s\n", target)
	}

	stats, err := service.RunLoad(context.Background(), service.LoadConfig{
		BaseURL:   target,
		Workload:  workload,
		Codec:     codec,
		Clients:   clients,
		Steps:     steps,
		Seed:      seed,
		WordFrac:  wordFrac,
		TraceOut:  traceW,
		RetryBusy: retryBusy,
	})
	if err != nil {
		return err
	}

	t := report.NewTable(fmt.Sprintf("loadgen %s/%s", workload, codec), "metric", "value")
	t.AddRow("clients", stats.Clients)
	t.AddRow("block_fetches", stats.Requests)
	t.AddRow("word_reads", stats.WordReads)
	t.AddRow("errors", stats.Errors)
	t.AddRow("payload_bytes", stats.Bytes)
	t.AddRow("cache_hits_seen", stats.CacheHits)
	t.AddRow("duration", stats.Duration.Round(time.Millisecond).String())
	t.AddRow("fetches_per_sec", fmt.Sprintf("%.0f", stats.Throughput()))
	t.AddRow("latency_p50", stats.Latency.Quantile(0.50).String())
	t.AddRow("latency_p99", stats.Latency.Quantile(0.99).String())
	fmt.Print(t)
	if inproc != nil {
		cs := inproc.CacheStats()
		fmt.Printf("\nserver cache: hits=%d misses=%d coalesced=%d hit_rate=%.4f\n",
			cs.Hits, cs.Misses, cs.Coalesced, cs.HitRate())
	}
	if stats.FirstError != nil {
		return fmt.Errorf("loadgen saw %d errors; first: %w", stats.Errors, stats.FirstError)
	}
	return nil
}

// runCodecMix replays the scenario once per registered codec against
// one server (in-process unless a target is given), so a single run
// exercises and compares the whole codec family end to end — and, on
// the server side, populates the per-codec Prometheus stage metrics.
func runCodecMix(cfg service.Config, target, workload string, clients, steps int, seed int64) error {
	var inproc *service.Server
	if target == "" {
		var err error
		inproc, err = service.New(cfg)
		if err != nil {
			return err
		}
		defer inproc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{
			Handler:           inproc.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		target = "http://" + ln.Addr().String()
		fmt.Printf("apcc-serve: in-process server on %s\n", target)
	}
	mix, err := service.RunCodecMix(context.Background(), service.LoadConfig{
		BaseURL:  target,
		Workload: workload,
		Clients:  clients,
		Steps:    steps,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("codec mix %s (%d clients x %d steps per codec)", workload, clients, steps),
		"codec", "fetches", "errors", "payload_bytes", "cache_hits", "fetches_per_sec", "p50", "p99")
	var firstErr error
	var errs int64
	for _, leg := range mix {
		s := leg.Stats
		t.AddRow(leg.Codec, s.Requests, s.Errors, s.Bytes, s.CacheHits,
			fmt.Sprintf("%.0f", s.Throughput()),
			s.Latency.Quantile(0.50).String(), s.Latency.Quantile(0.99).String())
		errs += s.Errors
		if firstErr == nil && s.FirstError != nil {
			firstErr = fmt.Errorf("%s: %w", leg.Codec, s.FirstError)
		}
	}
	fmt.Print(t)
	if inproc != nil {
		cs := inproc.CacheStats()
		fmt.Printf("\nserver cache: hits=%d misses=%d coalesced=%d hit_rate=%.4f\n",
			cs.Hits, cs.Misses, cs.Coalesced, cs.HitRate())
	}
	if firstErr != nil {
		return fmt.Errorf("codec mix saw %d errors; first: %w", errs, firstErr)
	}
	return nil
}

// runChaos runs the fault-injection end-to-end scenario and renders
// its verdict: load under the profile, a forced breaker-open episode,
// and a healed recovery. Any wrong bytes (or a breaker that never
// moved) exits non-zero.
func runChaos(cfg service.Config, profile string, faultSeed uint64, workload, codec string, clients, steps int, seed int64) error {
	if cfg.StoreDir == "" {
		return fmt.Errorf("-chaos requires -store")
	}
	if profile == "" {
		profile = chaosDefaultProfile
	}
	st, err := service.RunChaos(context.Background(), cfg, service.LoadConfig{
		Workload: workload,
		Codec:    codec,
		Clients:  clients,
		Steps:    steps,
		Seed:     seed,
	}, profile, faultSeed)
	if err != nil {
		return err
	}
	if err := st.WriteReport(os.Stdout); err != nil {
		return err
	}
	return st.Err()
}

// runColdWarm runs the restart scenario: a cold server against the
// store dir, then a fresh server on the same dir, reporting what the
// warm store saved.
func runColdWarm(cfg service.Config, workload, codec string, clients, steps int, seed int64) error {
	if cfg.StoreDir == "" {
		return fmt.Errorf("-coldwarm requires -store")
	}
	stats, err := service.RunColdWarm(context.Background(), cfg, service.LoadConfig{
		Workload: workload,
		Codec:    codec,
		Clients:  clients,
		Steps:    steps,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("cold vs warm %s/%s", workload, codec),
		"metric", "cold", "warm")
	t.AddRow("packs_built", stats.ColdPacks, stats.WarmPacks)
	t.AddRow("store_restores", 0, stats.WarmRestores)
	t.AddRow("first_container", stats.ColdFirst.Round(time.Microsecond).String(),
		stats.WarmFirst.Round(time.Microsecond).String())
	t.AddRow("block_fetches", stats.Cold.Requests, stats.Warm.Requests)
	t.AddRow("errors", stats.Cold.Errors, stats.Warm.Errors)
	t.AddRow("fetches_per_sec", fmt.Sprintf("%.0f", stats.Cold.Throughput()),
		fmt.Sprintf("%.0f", stats.Warm.Throughput()))
	t.AddRow("latency_p99", stats.Cold.Latency.Quantile(0.99).String(),
		stats.Warm.Latency.Quantile(0.99).String())
	fmt.Print(t)
	if stats.WarmPacks > 0 {
		return fmt.Errorf("warm phase invoked the packer %d times; store did not serve", stats.WarmPacks)
	}
	if stats.Cold.FirstError != nil || stats.Warm.FirstError != nil {
		return fmt.Errorf("scenario errors: cold=%v warm=%v", stats.Cold.FirstError, stats.Warm.FirstError)
	}
	return nil
}

// servePprof runs the net/http/pprof handlers on their own listener —
// a separate address so profiling endpoints are never exposed on the
// serving port.
func servePprof(addr string, log *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Info("pprof listening", "addr", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Error("pprof server failed", "err", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apcc-serve:", err)
	os.Exit(1)
}
