// Command perfbench-launcher runs, out of process, the servers the
// benchmark drives besides apcc-serve itself:
//
//	perfbench-launcher -addr 127.0.0.1:8199 -cache-bytes 4096 -shards 4 -store ./s
//	perfbench-launcher -addr 127.0.0.1:8198 -null-bytes 48
//
// The first form is the stock apcc service with a block cache sized in
// bytes: apcc-serve's -cache-mb counts whole MiB, while the whole
// suite's containers total about 126 KiB, so a cache budget below the
// compressed working set needs this launcher. Everything else is the
// service's own Config defaults, handler and store.
//
// The second form is a bare net/http server answering every path with
// that many fixed bytes: the control the benchmark alternates with, so
// host-speed drift can be told apart from apcc's own cost.
//
// SIGINT or SIGTERM drains the server and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"apbcc/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:0", "listen address")
		cacheBytes = flag.Int("cache-bytes", 0, "block cache capacity in bytes (0 = service default)")
		shards     = flag.Int("shards", 0, "block cache shard count (0 = service default)")
		storeDir   = flag.String("store", "", "content-addressed store directory")
		traceRing  = flag.Int("trace", 0, "request-trace ring capacity (negative disables tracing)")
		nullBytes  = flag.Int("null-bytes", 0, "serve this many fixed bytes on every path instead of apcc")
	)
	flag.Parse()
	var err error
	if *nullBytes > 0 {
		payload := make([]byte, *nullBytes)
		err = serve(*addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(payload)
		}), func() {})
	} else {
		var srv *service.Server
		srv, err = service.New(service.Config{
			CacheBytes:  *cacheBytes,
			CacheShards: *shards,
			StoreDir:    *storeDir,
			TraceRing:   *traceRing,
		})
		if err == nil {
			err = serve(*addr, srv.Handler(), srv.BeginDrain)
			srv.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench-launcher:", err)
		os.Exit(1)
	}
}

// serve runs h on addr until SIGINT or SIGTERM, then calls drain and
// shuts down gracefully.
func serve(addr string, h http.Handler, drain func()) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		drain()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(sctx)
	}()
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		return err
	}
	return <-shutdownDone
}
