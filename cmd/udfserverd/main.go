// Command udfserverd is the concurrent query daemon: it serves the engine's
// HTTP/JSON API (sessions, /query, /stream, /exec, /explain, /checkpoint,
// /stats) over a shared catalog+storage with the cross-session plan/rewrite
// cache. On SIGINT/SIGTERM it shuts down gracefully: the listener closes,
// in-flight sessions drain up to the -drain deadline, then remaining
// connections are force-closed (cancelling their queries through the
// request contexts); durable servers take a final checkpoint before exit.
//
// Server mode:
//
//	udfserverd -addr :8080 -dataset small -cache 256 -workers 32 -parallelism 4 -drain 10s
//
// Durable server mode — state survives restarts (and kill -9, with
// -fsync always): DDL and inserts are written ahead to a segmented WAL
// under -data-dir, checkpoints snapshot the store and truncate the log, and
// startup replays snapshot + log tail. On a data dir that already holds
// state, -dataset is ignored (the recovered state wins); on a fresh dir the
// dataset is loaded once and immediately checkpointed:
//
//	udfserverd -addr :8080 -data-dir ./data -fsync always -checkpoint-every 1m
//
// Follower mode (see follow.go) runs a read-only replica of a durable
// leader:
//
//	udfserverd -addr :8081 -follow http://localhost:8080 -catchup-dir ./data
//
// The load, differential and acked-write clients that drive a running daemon
// are subcommands of cmd/udfctl.
//
// Observability: logs are structured (log/slog text to stderr; -log-level
// debug|info|warn|error), -slow-query DURATION emits a "slow query" line with
// the trace ID, SQL, wait/run breakdown and row count for every query at or
// above the threshold, /metrics serves Prometheus text, and -pprof ADDR
// serves the net/http/pprof profiling handlers on a separate listener
// (e.g. -pprof localhost:6060, then `go tool pprof
// http://localhost:6060/debug/pprof/profile`). Off by default.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/server"
	"udfdecorr/internal/wal"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dataset = flag.String("dataset", "small", "preloaded dataset: none|small|bench")
		cache   = flag.Int("cache", 256, "plan cache capacity (0 disables)")
		workers = flag.Int("workers", 32, "worker pool: max concurrently executing query-local workers")
		drain   = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight sessions")
		par     = flag.Int("parallelism", 0, "default intra-query degree for sessions (0 = serial)")

		dataDir   = flag.String("data-dir", "", "durable mode: data directory for WAL + checkpoints (empty = in-memory)")
		fsync     = flag.String("fsync", "always", "durable mode: WAL fsync policy: always (group commit) | none")
		ckptEvery = flag.Duration("checkpoint-every", 0, "durable mode: periodic checkpoint interval (0 = only on graceful shutdown)")
		walRetain = flag.Int("wal-retain", 4, "durable mode: sealed WAL segments kept below each checkpoint (the replica catch-up window; 0 deletes immediately)")

		follow     = flag.String("follow", "", "follower mode: leader base URL to replicate from (runs as a read-only replica)")
		catchupDir = flag.String("catchup-dir", "", "follower mode: dead leader's data dir to drain at promotion (used by SIGUSR1 and /repl/promote requests without an explicit dir)")

		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		slowQuery = flag.Duration("slow-query", 0, "server: log queries at or above this duration (0 = off)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	if *follow != "" {
		err = runFollower(followerConfig{
			addr: *addr, leader: *follow, catchupDir: *catchupDir,
			cacheSize: *cache, workers: *workers, parallelism: *par,
			drain: *drain, slowQuery: *slowQuery,
		})
	} else {
		err = runServer(serverConfig{
			addr: *addr, dataset: *dataset, cacheSize: *cache, workers: *workers,
			parallelism: *par, drain: *drain,
			dataDir: *dataDir, fsync: *fsync, checkpointEvery: *ckptEvery,
			walRetain: *walRetain, slowQuery: *slowQuery,
		})
	}
	if err != nil {
		slog.Error("udfserverd failed", "err", err)
		os.Exit(1)
	}
}

// buildLogger constructs the process-wide structured logger (slog text to
// stderr) at the requested level.
func buildLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// servePprof exposes the net/http/pprof handlers on their own listener so
// profiling traffic never mixes with the query API (and the API mux never
// accidentally exposes profiling data).
func servePprof(addr string) {
	slog.Info("pprof listening", "addr", addr)
	if err := http.ListenAndServe(addr, nil); err != nil {
		slog.Error("pprof server exited", "err", err)
	}
}

type serverConfig struct {
	addr, dataset   string
	cacheSize       int
	workers         int
	parallelism     int
	drain           time.Duration
	dataDir         string
	fsync           string
	checkpointEvery time.Duration
	walRetain       int
	slowQuery       time.Duration
}

func runServer(cfg serverConfig) error {
	boot, err := bootEngine(cfg.dataset, cfg.dataDir, cfg.fsync, cfg.walRetain)
	if err != nil {
		return err
	}
	svc := server.NewServiceFromEngine(boot, server.Options{
		CacheSize: cfg.cacheSize, MaxConcurrent: cfg.workers, DefaultParallelism: cfg.parallelism,
		SlowQueryThreshold: cfg.slowQuery, Logger: slog.Default()})
	slog.Info("udfserverd listening", "addr", cfg.addr, "dataset", cfg.dataset,
		"cache", cfg.cacheSize, "workers", cfg.workers, "parallelism", cfg.parallelism,
		"durable", svc.Durable(), "slow_query", cfg.slowQuery)

	srv := &http.Server{Addr: cfg.addr, Handler: server.NewHandler(svc)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic checkpoints bound both recovery time and on-disk log growth.
	ckptDone := make(chan struct{})
	if svc.Durable() && cfg.checkpointEvery > 0 {
		ticker := time.NewTicker(cfg.checkpointEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := svc.Checkpoint(); err != nil {
						slog.Error("periodic checkpoint failed", "err", err)
					} else if st := svc.Stats().Durability; st != nil {
						slog.Info("checkpoint written", "n", st.Checkpoints, "wal_bytes", st.WALBytes)
					}
				case <-ckptDone:
					return
				}
			}
		}()
	}
	defer close(ckptDone)

	finalCheckpoint := func() {
		if !svc.Durable() {
			return
		}
		if err := svc.Checkpoint(); err != nil {
			slog.Error("shutdown checkpoint failed", "err", err)
		} else {
			slog.Info("shutdown checkpoint written")
		}
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		slog.Info("shutdown signal; draining", "sessions", svc.SessionCount(), "deadline", cfg.drain)
		shctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			// Deadline hit: force-close remaining connections, which cancels
			// their queries through the request contexts.
			slog.Warn("drain deadline exceeded, force-closing", "err", err)
			err = srv.Close()
			finalCheckpoint()
			return err
		}
		slog.Info("drained cleanly")
		finalCheckpoint()
		return nil
	}
}

// bootEngine builds the serving engine: volatile with the requested dataset,
// or durable over dataDir (recovering existing state; a fresh dir is seeded
// with the dataset and checkpointed so startup replay stays cheap).
func bootEngine(dataset, dataDir, fsync string, walRetain int) (*engine.Engine, error) {
	var cfg *bench.Config
	switch dataset {
	case "none":
	case "small", "bench":
		c := bench.SmallConfig()
		if dataset == "bench" {
			c = bench.Config{Customers: 10_000, OrdersPerCustomer: 5, Parts: 20_000,
				LineitemsPerPart: 3, Categories: 200, Seed: 20140331}
		}
		cfg = &c
	default:
		return nil, fmt.Errorf("unknown dataset %q (want none|small|bench)", dataset)
	}

	if dataDir == "" {
		e := engine.New(engine.SYS1, engine.ModeRewrite)
		if cfg != nil {
			if err := bench.Populate(e, *cfg); err != nil {
				return nil, err
			}
			if err := e.ExecScript(bench.ExtraUDFs); err != nil {
				return nil, err
			}
		}
		return e, nil
	}

	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	e, err := engine.OpenDurable(dataDir, engine.SYS1, engine.ModeRewrite,
		engine.DurabilityOptions{Sync: policy, RetainSegments: walRetain})
	if err != nil {
		return nil, err
	}
	st := e.Durable.Stats()
	// ANY recovered record means the dir holds prior state (possibly
	// functions-only): never re-seed over it, and never let the seed-failure
	// cleanup below touch it.
	if st.RecoveredRecords > 0 || len(e.Cat.Tables()) > 0 || len(e.Cat.Functions()) > 0 {
		slog.Info("recovered data dir", "dir", dataDir, "records_replayed", st.RecoveredRecords,
			"torn_bytes", st.TornBytes, "wal_bytes", st.WALBytes)
		return e, nil
	}
	if cfg == nil {
		slog.Info("opened empty data dir", "dir", dataDir)
		return e, nil
	}
	slog.Info("seeding empty data dir", "dir", dataDir, "dataset", dataset)
	seed := func() error {
		if err := bench.Populate(e, *cfg); err != nil {
			return err
		}
		if err := e.ExecScript(bench.ExtraUDFs); err != nil {
			return err
		}
		// Fold the seed load into a snapshot so the next start replays a
		// checkpoint, not the whole insert history.
		return e.Checkpoint()
	}
	if err := seed(); err != nil {
		// A half-seeded data dir must not masquerade as recovered state on
		// the next start: wipe the log files this failed seed created (the
		// dir held none before — the catalog was empty) and fail loudly.
		if cerr := e.Durable.Close(); cerr != nil {
			slog.Error("closing failed seed", "err", cerr)
		}
		if rerr := removeWALFiles(dataDir); rerr != nil {
			return nil, fmt.Errorf("seeding dataset: %w (and cleaning up the partial seed failed: %v — delete %s manually)", err, rerr, dataDir)
		}
		return nil, fmt.Errorf("seeding dataset: %w (partial seed removed; %s is empty again)", err, dataDir)
	}
	return e, nil
}

// removeWALFiles deletes the log segments and snapshot files in dir —
// only the names the WAL owns, nothing else.
func removeWALFiles(dir string) error {
	for _, pattern := range []string{"wal-*.seg", "checkpoint.snap", "checkpoint.snap.tmp"} {
		matches, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return err
		}
		for _, m := range matches {
			if err := os.Remove(m); err != nil {
				return err
			}
		}
	}
	return nil
}
