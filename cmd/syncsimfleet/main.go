// Command syncsimfleet is the sweep-fabric coordinator: a thin front end
// that shards sweep cells across a fleet of syncsimd backends on a
// consistent-hash ring keyed by trace identity, fails cells over along
// the ring when a backend dies mid-sweep, and merges the per-cell
// results into one response bit-identical (canonically) to a
// single-node sweep.
//
// Membership is live: backends join and leave the ring at runtime
// through the admin plane (POST /v1/fleet/join, POST /v1/fleet/leave),
// each change advancing an epoch; a leave drains the member's in-flight
// cells before tearing its client down. Slow cells are hedged — after a
// latency budget (the backend's observed p95, or -hedge-after until
// enough samples exist) the cell is speculatively re-issued to the next
// ring-order backend and the first answer wins. Repeatable -quota flags
// enforce per-tenant token-bucket admission, mirroring syncsimd's.
//
// Usage:
//
//	syncsimfleet -backends http://n1:8080,http://n2:8080,http://n3:8080
//	             [-addr :8090] [-replicas 128] [-store DIR]
//	             [-health-interval 5s] [-cell-timeout 2m]
//	             [-cell-concurrency 0]
//	             [-attempts 5] [-circuit-threshold 3] [-circuit-cooldown 5s]
//	             [-hedge-after 500ms] [-hedge-min 25ms]
//	             [-drain-timeout 30s] [-quota tenant=rps:burst]...
//
//	syncsimfleet -normalize < sweep.json > canonical.json
//
// Endpoints:
//
//	POST /v1/sweep         the full benchmark × model matrix, sharded
//	POST /v1/sim           one cell, routed to its ring owner
//	GET  /v1/capabilities  proxied from the first live backend
//	GET  /v1/fleet/status  epoch, fleet counters (hedged, hedge_wins,
//	                       coalesced, throttled) and per-backend
//	                       routed/retried/failed-over/hedged counters,
//	                       circuit state, and observed p95
//	POST /v1/fleet/join    add a backend to the live ring ({"backend":URL})
//	POST /v1/fleet/leave   drain and remove a backend from the live ring
//	GET  /healthz          200 while at least one backend is healthy
//
// The -normalize mode reads one api.SweepResponse JSON document from
// stdin, strips the volatile fields (timings, cache counters, served
// disposition) with fleet.CanonicalizeSweep, and writes the canonical
// document to stdout — apply it to both a fleet response and a
// single-node response and the bytes must compare equal. CI pins the
// bit-identity guarantee with exactly that comparison.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/client"
	"syncsim/internal/fleet"
	"syncsim/internal/fleet/store"
	"syncsim/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "syncsimfleet: %v\n", err)
		os.Exit(1)
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("syncsimfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8090", "listen address")
	backends := fs.String("backends", "", "comma-separated syncsimd base URLs (required unless -normalize)")
	replicas := fs.Int("replicas", 0, "virtual nodes per backend on the hash ring (0 = default)")
	storeDir := fs.String("store", "", "shared L2 result-store directory (mount the same one on the backends via syncsimd -store)")
	healthInterval := fs.Duration("health-interval", 5*time.Second, "backend /healthz probe period")
	cellTimeout := fs.Duration("cell-timeout", 2*time.Minute, "per-cell timeout on one backend, retries included")
	cellConcurrency := fs.Int("cell-concurrency", 0, "cells in flight per sweep (0 = 2 × backends)")
	attempts := fs.Int("attempts", 0, "HTTP attempts per backend call before failing over (0 = client default)")
	circuitThreshold := fs.Int("circuit-threshold", 0, "consecutive failures that open a backend's circuit (0 = default)")
	circuitCooldown := fs.Duration("circuit-cooldown", 0, "how long an open circuit rejects before probing (0 = default)")
	hedgeAfter := fs.Duration("hedge-after", 0, "static latency budget before a cell is hedged to the next backend, used until the backend's p95 is known (0 = default 500ms; negative disables hedging)")
	hedgeMin := fs.Duration("hedge-min", 0, "floor under the observed-p95 hedge budget (0 = default 25ms)")
	drainTimeout := fs.Duration("drain-timeout", 0, "how long a /v1/fleet/leave waits for the member's in-flight cells (0 = default 30s)")
	var quotaSpecs multiFlag
	fs.Var(&quotaSpecs, "quota", "per-tenant admission quota `tenant=rps:burst` (repeatable; burst defaults to ceil(rps); over-quota tenants get 429 + Retry-After)")
	normalize := fs.Bool("normalize", false, "read one sweep-response JSON from stdin, strip volatile fields, write canonical JSON to stdout, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	quotas, err := server.ParseQuotas(quotaSpecs)
	if err != nil {
		return err
	}

	if *normalize {
		return normalizeSweep(stdin, stdout)
	}

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		return errors.New("-backends is required (comma-separated syncsimd base URLs)")
	}

	cfg := fleet.Config{
		Backends:        urls,
		Replicas:        *replicas,
		CellTimeout:     *cellTimeout,
		HealthInterval:  *healthInterval,
		HedgeAfter:      *hedgeAfter,
		HedgeMin:        *hedgeMin,
		DrainTimeout:    *drainTimeout,
		Quotas:          quotas,
		CellConcurrency: *cellConcurrency,
		Pool: client.PoolConfig{
			Client:           client.Config{MaxAttempts: *attempts},
			FailureThreshold: *circuitThreshold,
			Cooldown:         *circuitCooldown,
		},
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		},
	}
	if *storeDir != "" {
		st, err := store.OpenDisk(*storeDir)
		if err != nil {
			return err
		}
		cfg.Store = st
		fmt.Fprintf(stderr, "syncsimfleet: shared result store at %s\n", *storeDir)
	}

	coord, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	defer coord.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(stderr, "syncsimfleet: listening on %s, %d backends, %d ring replicas\n",
			*addr, len(urls), coord.Ring().Replicas())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err // listener died before any signal
	case sig := <-sigc:
		fmt.Fprintf(stderr, "syncsimfleet: %v received, shutting down\n", sig)
	}
	signal.Stop(sigc)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil {
		return err
	}
	fmt.Fprintln(stderr, "syncsimfleet: bye")
	return nil
}

// normalizeSweep strips the volatile fields from one sweep response so
// two responses for the same request — fleet or single node, computed or
// cached — compare byte-for-byte equal.
func normalizeSweep(stdin io.Reader, stdout io.Writer) error {
	blob, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	var resp api.SweepResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		return fmt.Errorf("stdin is not a sweep response: %w", err)
	}
	fleet.CanonicalizeSweep(&resp)
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(&resp)
}
