// Command fsserve runs the campaign service daemon: an HTTP/JSON front end
// to the injection-campaign engine. Clients POST campaign submissions
// (kernel, scale, seed, fault-model shape, shard); the daemon validates
// them with the same rules as fsprune, deduplicates identical submissions
// into one run, executes campaigns on a bounded worker pool, and journals
// every outcome under -data — so a killed or restarted daemon resumes its
// incomplete campaigns bit-identically.
//
// Usage:
//
//	fsserve -data /var/lib/fsserve
//	fsserve -addr 127.0.0.1:8080 -data ./campaigns -workers 4 -par 8
//
// The bound address is printed to stdout once listening (useful with
// -addr 127.0.0.1:0 in scripts). SIGINT/SIGTERM shut the daemon down
// gracefully: running campaigns stop at the next site boundary with all
// completed outcomes journaled, and the process exits 0. A second signal
// forces exit 130.
//
// Endpoints: POST /campaigns, GET /campaigns/{id}, GET
// /campaigns/{id}/report, GET /healthz, GET /stats.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/interrupts"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; the bound address is printed)")
	data := flag.String("data", "", "data directory for campaign journals (required; created if missing)")
	workers := flag.Int("workers", 2, "campaigns executing concurrently")
	queue := flag.Int("queue", 16, "admission queue depth; submissions beyond it get HTTP 429")
	par := flag.Int("par", 0, "engine workers per campaign (0 = GOMAXPROCS)")
	syncEvery := flag.Int("sync-every", 64, "fsync the journal every N outcomes (negative disables periodic fsync)")
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "usage: fsserve -data DIR [-addr HOST:PORT] [-workers N] [-queue N] [-par N] [-sync-every N]")
		os.Exit(2)
	}

	srv, err := service.New(service.Config{
		DataDir:     *data,
		Workers:     *workers,
		QueueDepth:  *queue,
		Parallelism: *par,
		SyncEvery:   *syncEvery,
	})
	fatal(err)

	ln, err := net.Listen("tcp", *addr)
	fatal(err)
	// Printed after the listener is live so scripts can scrape the bound
	// port and immediately connect.
	fmt.Printf("fsserve listening on %s (data %s)\n", ln.Addr(), *data)

	srv.Start()
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: service.ReadHeaderTimeout,
		ReadTimeout:       service.ReadTimeout,
		WriteTimeout:      service.WriteTimeout,
		IdleTimeout:       service.IdleTimeout,
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	// First signal: stop accepting, interrupt campaigns at the next site
	// boundary, flush journals, exit 0. Second signal: forced exit 130
	// (see internal/interrupts).
	stop := interrupts.Notify()
	select {
	case <-stop:
	case err := <-done:
		fatal(err)
	}

	fmt.Println("fsserve shutting down")
	_ = hs.Close()
	srv.Stop()
}

func fatal(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
