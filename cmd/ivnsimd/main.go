// Command ivnsimd serves IVN's evaluation experiments as a long-running
// HTTP service: submit a run, poll its status, fetch the result — byte
// for byte what `ivnsim -json` prints for the same spec — cancel it, or
// hit the cache a previous identical request warmed.
//
// Usage:
//
//	ivnsimd [-config ivnsimd.json] [-addr 127.0.0.1:8347]
//
// Endpoints: POST /v1/runs, GET /v1/runs/{id}[,/result,/trace],
// DELETE /v1/runs/{id}, GET /metrics, GET /healthz.
//
// Signals: SIGHUP re-reads the config file and hot-applies max_parallel
// and cache_entries (addr/workers/queue_depth changes are logged as
// restart-required); SIGINT/SIGTERM drain gracefully — no new
// submissions, queued jobs finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ivn/internal/service"
)

// drainTimeout bounds graceful shutdown; after it, running jobs are
// cancelled through their contexts and the daemon exits anyway.
const drainTimeout = 30 * time.Second

// Connection timeouts, so a client that stalls cannot hold a connection
// (a goroutine and a descriptor) forever: readHeaderTimeout bounds the
// time from accept, or from the end of the previous request on a
// keep-alive connection, until the request header is complete;
// readTimeout bounds the same span until the body is complete (the
// handler caps a spec body at 64 KiB, so 10 s is generous, and net/http
// lifts the deadline once the body is read, so it never cuts a running
// handler); and idleTimeout closes a keep-alive connection no request
// arrives on. No timeout bounds the time to read a response, since a
// large result may stream to a slow reader for as long as it keeps
// reading.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		configPath = flag.String("config", "", "JSON config file (addr, workers, queue_depth, max_parallel, cache_entries)")
		addrFlag   = flag.String("addr", "", "listen address, overrides the config file (\":0\" = ephemeral port)")
	)
	flag.Parse()

	cfg, err := loadConfig(*configPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivnsimd: %v\n", err)
		return 2
	}
	if *addrFlag != "" {
		cfg.Addr = *addrFlag
	}

	mgr, err := service.New(cfg.Config)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivnsimd: %v\n", err)
		return 2
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivnsimd: listen: %v\n", err)
		return 1
	}
	srv := newServer(service.NewHandler(mgr))

	// The bound address on stdout is the machine-readable "ready" line
	// scripts wait for (":0" configs only learn the port here).
	fmt.Printf("ivnsimd: listening on %s\n", ln.Addr())
	log.Printf("ivnsimd: config %+v", cfg)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	errc := make(chan error, 1)
	//ivn:allow goroutinehygiene the accept loop must run beside the signal loop; Serve's return is joined through errc below
	go func() { errc <- srv.Serve(ln) }()

	for {
		select {
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				reload(*configPath, &cfg, mgr)
				continue
			}
			log.Printf("ivnsimd: %v: draining (timeout %v)", sig, drainTimeout)
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			shutErr := srv.Shutdown(ctx)
			closeErr := mgr.Close(ctx)
			cancel()
			if shutErr != nil || closeErr != nil {
				log.Printf("ivnsimd: forced exit: server %v, manager %v", shutErr, closeErr)
				return 1
			}
			log.Printf("ivnsimd: drained cleanly")
			return 0
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				// Shutdown path already handled above.
				continue
			}
			fmt.Fprintf(os.Stderr, "ivnsimd: serve: %v\n", err)
			return 1
		}
	}
}

// newServer wraps h in the daemon's HTTP server settings.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// reload re-reads the config file and hot-applies what a live daemon
// can change. cfg tracks the currently-applied document so repeated
// SIGHUPs only log real diffs.
func reload(path string, cfg *daemonConfig, mgr *service.Manager) {
	if path == "" {
		log.Printf("ivnsimd: SIGHUP ignored: no -config file to reload")
		return
	}
	next, err := loadConfig(path)
	if err != nil {
		log.Printf("ivnsimd: SIGHUP: keeping previous config: %v", err)
		return
	}
	if fields := restartRequired(*cfg, next); len(fields) > 0 {
		log.Printf("ivnsimd: SIGHUP: %v changed but need a restart to apply", fields)
	}
	mgr.Reconfigure(next.MaxParallel, next.CacheEntries)
	log.Printf("ivnsimd: SIGHUP: applied max_parallel=%d cache_entries=%d",
		next.MaxParallel, next.CacheEntries)
	// Track what is actually in effect: hot fields from next, restart
	// fields keep their running values.
	next.Addr, next.Workers, next.QueueDepth = cfg.Addr, cfg.Workers, cfg.QueueDepth
	*cfg = next
}
