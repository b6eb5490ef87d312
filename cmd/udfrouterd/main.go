// Command udfrouterd is the sharded query tier's router daemon: a stateless
// process that fronts N udfserverd shards and serves the same wire API
// (session, /query, /exec, /stream, /explain, /stats) over the
// hash-partitioned cluster. Tables declared with SHARD KEY (col) are
// partitioned by that column; tables without one are replicated to every
// shard. Queries route by the planner's shard-feasibility pass: single-shard
// relay, scatter/concat, scatter/merge of partial aggregates, or a typed
// UNSHARDABLE rejection naming the unsupported shape.
//
//	udfrouterd -addr :8090 -shards http://localhost:8081,http://localhost:8082,http://localhost:8083
//
// The clients that load, diff and write through a running router are
// subcommands of cmd/udfctl (loadcorpus, diff, write, check).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"udfdecorr/internal/shard"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		shards   = flag.String("shards", "", "comma-separated shard base URLs (required)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		logLevel = flag.String("log-level", "info", "log level: debug|info|warn|error")
	)
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "bad -log-level %q (want debug|info|warn|error)\n", *logLevel)
		os.Exit(1)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))

	if err := runServer(*addr, *shards, *drain); err != nil {
		slog.Error("udfrouterd failed", "err", err)
		os.Exit(1)
	}
}

func runServer(addr, shards string, drain time.Duration) error {
	if shards == "" {
		return fmt.Errorf("udfrouterd needs -shards URL,URL,...")
	}
	var urls []string
	for _, s := range strings.Split(shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			urls = append(urls, s)
		}
	}
	r, err := shard.New(urls)
	if err != nil {
		return err
	}
	slog.Info("udfrouterd listening", "addr", addr, "shards", len(urls))

	srv := &http.Server{Addr: addr, Handler: shard.NewHandler(r)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		slog.Info("shutdown signal; draining", "deadline", drain)
		shctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			slog.Warn("drain deadline exceeded, force-closing", "err", err)
			return srv.Close()
		}
		return nil
	}
}
