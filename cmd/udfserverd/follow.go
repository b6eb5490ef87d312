// Follower mode: udfserverd -follow <leader-url> runs as a read-only
// replica. It bootstraps from the leader's latest checkpoint, tails the
// leader's WAL stream applying records into its own in-memory engine, and
// serves the normal query API with writes rejected. Promotion — POST
// /repl/promote or SIGUSR1 — stops the tail, optionally drains the dead
// leader's remaining fsynced WAL straight from its data directory (the
// zero-acked-row-loss path), and flips the node to leader.
//
// A promoted node is volatile: it has no WAL of its own, so it serves reads
// and accepts writes but does not survive a restart. Re-seed a durable
// leader from it (or re-point followers) as the follow-up operation.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"udfdecorr/internal/repl"
	"udfdecorr/internal/server"
	"udfdecorr/internal/wire"
)

type followerConfig struct {
	addr        string
	leader      string
	catchupDir  string
	cacheSize   int
	workers     int
	parallelism int
	drain       time.Duration
	slowQuery   time.Duration
}

func runFollower(cfg followerConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The DDL gate closure is handed to the follower before the service
	// exists: during bootstrap (nothing serves yet) it applies directly, and
	// once the service is up it takes the exclusive DDL gate + cache purge.
	var svcPtr atomic.Pointer[server.Service]
	gate := func(fn func() error) error {
		if s := svcPtr.Load(); s != nil {
			return s.ApplyExclusive(fn)
		}
		return fn()
	}

	f := repl.NewFollower(cfg.leader, gate)
	if err := bootstrapWithRetry(ctx, f, cfg.leader); err != nil {
		return err
	}
	st := f.Status()
	slog.Info("follower bootstrapped", "leader", cfg.leader,
		"records", st.AppliedRecords, "segment", st.Segment)

	svc := server.NewService(f.Catalog(), f.Store(), server.Options{
		CacheSize: cfg.cacheSize, MaxConcurrent: cfg.workers,
		DefaultParallelism: cfg.parallelism,
		SlowQueryThreshold: cfg.slowQuery, Logger: slog.Default()})
	svc.SetFollower(cfg.leader, f.Status)
	svcPtr.Store(svc)

	tailCtx, stopTail := context.WithCancel(ctx)
	defer stopTail()
	tailDone := make(chan error, 1)
	go func() { tailDone <- f.Run(tailCtx) }()

	// promote runs at most once: stop the tail, wait for it (no applies may
	// race the role flip), drain the dead leader's directory when given one,
	// then accept writes. A failed catch-up leaves the node a follower with
	// its tail stopped — promoting anyway could silently drop acked rows.
	var promoteOnce sync.Once
	promote := func(dir string) (recovered int64, err error) {
		promoteOnce.Do(func() {
			stopTail()
			<-tailDone
			if dir != "" {
				recovered, err = f.CatchupFromDir(dir)
				if err != nil {
					slog.Error("promotion aborted: catch-up failed", "dir", dir, "err", err)
					return
				}
				slog.Info("drained dead leader's WAL tail", "dir", dir, "records", recovered)
			}
			svc.Promote()
			slog.Info("promoted to leader", "catchup_records", recovered,
				"applied_records", f.Status().AppliedRecords)
		})
		if err == nil && svc.Role() != server.RoleLeader {
			err = fmt.Errorf("promotion already attempted and failed; restart the follower")
		}
		return recovered, err
	}

	mux := http.NewServeMux()
	mux.Handle("/", server.NewHandler(svc))
	mux.HandleFunc("/repl/promote", promoteHandler(svc, f.Status, cfg.catchupDir, promote))

	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer signal.Stop(usr1)
	go func() {
		for range usr1 {
			if _, err := promote(cfg.catchupDir); err != nil {
				slog.Error("SIGUSR1 promotion failed", "err", err)
			}
		}
	}()

	slog.Info("udfserverd follower listening", "addr", cfg.addr, "leader", cfg.leader,
		"cache", cfg.cacheSize, "workers", cfg.workers)
	srv := &http.Server{Addr: cfg.addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		slog.Info("shutdown signal; draining", "sessions", svc.SessionCount(), "deadline", cfg.drain)
		shctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			slog.Warn("drain deadline exceeded, force-closing", "err", err)
			return srv.Close()
		}
		slog.Info("drained cleanly")
		return nil
	}
}

// bootstrapWithRetry fetches the leader's snapshot, retrying while the
// leader is still coming up (a follower is typically started right after
// its leader; racing the leader's bind should not be fatal).
func bootstrapWithRetry(ctx context.Context, f *repl.Follower, leader string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := f.Bootstrap(ctx)
		if err == nil {
			return nil
		}
		if f.Status().AppliedRecords > 0 {
			// The snapshot partially applied: retrying would duplicate rows.
			return fmt.Errorf("bootstrapping from %s: %w (partial apply; not retryable)", leader, err)
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("bootstrapping from %s: %w", leader, err)
		}
		slog.Warn("bootstrap failed; retrying", "leader", leader, "err", err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Millisecond):
		}
	}
}

// promoteHandler serves POST /repl/promote: an optional {"catchup_dir"} body
// overrides defaultDir, and the reply is the wire envelope like every other
// JSON endpoint of the node.
func promoteHandler(svc *server.Service, status func() repl.Status, defaultDir string,
	promote func(dir string) (int64, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !wire.ReadRequest(w, r, string(svc.Role()), http.MethodPost, nil) {
			return
		}
		var req struct {
			CatchupDir string `json:"catchup_dir"`
		}
		if r.Body != nil {
			_ = json.NewDecoder(r.Body).Decode(&req) // empty body = no catch-up override
		}
		dir := req.CatchupDir
		if dir == "" {
			dir = defaultDir
		}
		recovered, err := promote(dir)
		if err != nil {
			wire.WriteError(w, string(svc.Role()), wire.AsRemote(err, wire.CodeInternal))
			return
		}
		st := status()
		wire.WriteOK(w, string(svc.Role()), http.StatusOK, map[string]any{
			"role":            string(svc.Role()),
			"catchup_records": recovered,
			"applied_records": st.AppliedRecords,
			"pending_txns":    st.PendingTxns,
		})
	}
}
