// Command ppm-server is the PPM job server: a long-lived HTTP/JSON
// control plane that accepts concurrent job submissions, runs each on
// the simulator or on a pooled warm fleet of serve-mode ppm-node
// processes, and caches results by canonical spec hash so identical
// resubmissions return bit-identical output without running anything.
//
// Usage:
//
//	ppm-server [-addr 127.0.0.1:8765] [-node-bin path/to/ppm-node]
//	           [-max-queue 64] [-tenant-quota 8] [-workers 2]
//	           [-idle-timeout 2m] [-drain-timeout 30s]
//	           [-job-retries 2]
//
// Endpoints:
//
//	POST /v1/jobs              submit {tenant, priority, no_cache, spec}
//	GET  /v1/jobs/{id}         status, queue position, result when done
//	GET  /v1/jobs/{id}/stream  phase-progress server-sent events
//	GET  /v1/results/{hash}    cached result by canonical spec hash
//	GET  /metrics              queue/cache/fleet counters as JSON
//
// SIGINT/SIGTERM drain: the listener closes, admitted jobs finish, warm
// fleets retire. A clean drain exits 0; a drain that exceeds
// -drain-timeout exits 1 — distinct codes, so a supervisor can tell an
// operator stop from a crash.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ppm/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8765", "HTTP listen address")
	nodeBin := flag.String("node-bin", "", "serve-mode ppm-node binary for dist jobs (default: next to this binary)")
	maxQueue := flag.Int("max-queue", 64, "maximum queued jobs across all tenants")
	tenantQuota := flag.Int("tenant-quota", 8, "maximum queued+running jobs per tenant (-1 unlimited)")
	workers := flag.Int("workers", 2, "jobs run concurrently")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "retire warm fleets idle this long")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown drain bound")
	jobRetries := flag.Int("job-retries", 2, "resubmit a dist job whose fleet died up to this many times (-1 never)")
	flag.Parse()

	bin := *nodeBin
	if bin == "" {
		if self, err := os.Executable(); err == nil {
			sibling := filepath.Join(filepath.Dir(self), "ppm-node")
			if _, err := os.Stat(sibling); err == nil {
				bin = sibling
			}
		}
	}
	s := server.New(server.Config{
		Addr:          *addr,
		NodeBin:       bin,
		MaxQueue:      *maxQueue,
		TenantQuota:   *tenantQuota,
		Workers:       *workers,
		IdleTimeout:   *idleTimeout,
		MaxJobRetries: *jobRetries,
	})
	if err := s.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "ppm-server: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ppm-server: listening on %s\n", s.Addr())
	if bin == "" {
		fmt.Fprintln(os.Stderr, "ppm-server: no ppm-node binary found; dist jobs will be rejected (-node-bin)")
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	fmt.Fprintf(os.Stderr, "ppm-server: %v: draining\n", sig)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ppm-server: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "ppm-server: drained")
}
