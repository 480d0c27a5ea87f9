// Command sweepd is the sweep-serving daemon: it answers batched sweep
// requests — (topology, cost model, params) triples addressed as catalog
// point IDs, optionally under a perturbed cost model — with the
// deterministic virtual-time metrics of the simulated GH200 testbed,
// through a persistent content-addressed result cache.
//
// The stack per request: a default-catalog point the daemon has already
// resolved is answered from memory; identical in-flight requests coalesce
// into one computation (batcher); results are served from an on-disk
// content-addressed store when warm and written back when cold; and a
// bounded pool runs the simulations that remain. The memory tier holds
// only the closed default catalog (about 210 results), never model
// overrides, so it cannot grow with history. Every byte served is
// verifiable: the same points gate byte-identically against
// BENCH_GOLDEN.json whether computed in-process, read from a warm store,
// or fetched from this daemon (cmd/benchgate -server).
//
// Usage:
//
//	sweepd                                  # 127.0.0.1:7077, store in ./sweepd-store
//	sweepd -addr :8080 -store /var/sweep    # custom bind + store root
//	sweepd -store ''                        # no persistence (memory + coalescing only)
//	sweepd -workers 8                       # concurrent-simulation bound
//	sweepd -recent 2048                     # /metrics per-request history
//
// Endpoints: POST /sweep, GET /metrics (?format=csv), GET /catalog,
// GET /healthz. See internal/serve for the request/response shapes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpipart/internal/runner"
	"mpipart/internal/runner/store"
	"mpipart/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7077", "listen address")
		storeDir = flag.String("store", "sweepd-store", "content-addressed result store root; '' disables persistence")
		workers  = flag.Int("workers", 0, "max concurrent simulations; 0 = GOMAXPROCS")
		recent   = flag.Int("recent", 512, "per-request metrics records kept for /metrics")
	)
	flag.Parse()

	var st runner.Store
	if *storeDir != "" {
		ds, err := store.Open(*storeDir)
		if err != nil {
			log.Fatalf("sweepd: %v", err)
		}
		st = ds
		log.Printf("sweepd: store at %s (key schema v%d)", ds.Root(), runner.KeySchema)
	} else {
		log.Printf("sweepd: no persistent store (memory and coalescing only)")
	}

	srv := serve.NewServer(serve.Config{Store: st, Workers: *workers, Recent: *recent})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight batches.
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	log.Printf("sweepd: listening on %s (%d catalog points)", *addr, len(serve.CatalogIDs()))

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("sweepd: %v", err)
		}
	case sig := <-sigc:
		log.Printf("sweepd: %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("sweepd: shutdown: %v", err)
		}
	}
	snap := srv.Metrics()
	fmt.Printf("sweepd: served %d requests in %d batches (%d memory hits, %d computed, %d store hits, %d coalesced, %d errors)\n",
		snap.Totals.Requests, snap.Totals.Batches, snap.Totals.MemHits, snap.Totals.Computed,
		snap.Totals.StoreHits, snap.Totals.Coalesced, snap.Totals.Errors)
}
