package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/obs"
	"udfdecorr/internal/server"
	"udfdecorr/internal/wire"
)

func setupLoad(fs *flag.FlagSet) func(context.Context) error {
	addr := addrFlag(fs)
	clients := fs.Int("clients", 8, "concurrent client goroutines")
	rounds := fs.Int("rounds", 3, "corpus replays per client")
	cancelFrac := fs.Float64("cancel-frac", 0, "fraction of streams cancelled after the first row")
	par := fs.Int("parallelism", 0, "intra-query degree requested by vectorized client sessions (0 = server default)")
	return func(ctx context.Context) error {
		return runLoad(ctx, wire.NewClient(*addr), *clients, *rounds, *par, *cancelFrac)
	}
}

// streamOutcome is one /stream replay: the collected rows (when the stream
// ran to completion), time to first row, full-stream latency, and whether
// the client cancelled mid-stream.
type streamOutcome struct {
	rows      [][]string
	ttfr      time.Duration
	total     time.Duration
	gotFirst  bool
	cancelled bool
}

// replayStream runs one query over the streaming endpoint. With
// cancelAfterFirstRow the cursor is closed as soon as a row arrives, which
// hangs up mid-stream and exercises the server's drain path.
func replayStream(ctx context.Context, c *wire.Client, session, sql string, cancelAfterFirstRow bool) (*streamOutcome, error) {
	t0 := time.Now()
	cur, err := c.Stream(ctx, wire.Statement{Session: session, SQL: sql})
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := &streamOutcome{}
	for {
		row, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			out.total = time.Since(t0)
			return out, nil
		}
		if !out.gotFirst {
			out.gotFirst = true
			out.ttfr = time.Since(t0)
		}
		out.rows = append(out.rows, row)
		if cancelAfterFirstRow {
			out.cancelled = true
			out.total = time.Since(t0)
			return out, nil
		}
	}
}

// sessionCombo is one client's session settings.
type sessionCombo struct {
	mode       string
	profile    string
	vectorized bool
}

var combos = []sessionCombo{
	{"rewrite", "sys1", false},
	{"rewrite", "sys1", true},
	{"costbased", "sys1", false},
	{"rewrite", "sys2", true},
	{"iterative", "sys1", false},
	{"costbased", "sys2", true},
}

func runLoad(ctx context.Context, c *wire.Client, clients, rounds, parallelism int, cancelFrac float64) error {
	// Serial baseline on a dedicated iterative session (ground truth).
	sess, err := iterativeSession(ctx, c)
	if err != nil {
		return err
	}
	baseline, err := replayCorpus(ctx, c, sess, corpusQueries())
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	slog.Info("baseline recorded", "corpus_queries", len(baseline))

	// Latency distributions go into obs histograms (the same type behind the
	// server's /metrics): fixed memory however long the run, percentile reads
	// within 2× bucket resolution. The true max is tracked exactly alongside.
	type stats struct {
		queries      int64
		cancelled    int64
		rowsStreamed int64
		lat          *obs.Histogram
		ttfr         *obs.Histogram
		latMax       time.Duration
		ttfrMax      time.Duration
	}
	results := make([]stats, clients)
	for i := range results {
		results[i].lat = obs.NewHistogram()
		results[i].ttfr = obs.NewHistogram()
	}
	start := time.Now()
	var wg sync.WaitGroup
	// Sized for the worst case (every query of every client mismatching):
	// a send must never block, or a result-corrupting server bug would
	// deadlock the load client instead of failing it.
	errs := make(chan error, clients*(1+rounds*len(bench.Corpus)))
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			combo := combos[i%len(combos)]
			// Deterministic per-client stream-cancellation choices.
			rng := rand.New(rand.NewSource(int64(i) + 1))
			sessionReq := map[string]any{
				"mode": combo.mode, "profile": combo.profile, "vectorized": combo.vectorized,
			}
			if combo.vectorized && parallelism > 0 {
				sessionReq["parallelism"] = parallelism
			}
			mine, err := c.NewSession(ctx, sessionReq)
			if err != nil {
				errs <- err
				return
			}
			res := &results[i]
			for r := 0; r < rounds; r++ {
				for _, q := range bench.Corpus {
					out, err := replayStream(ctx, c, mine, q.SQL, rng.Float64() < cancelFrac)
					if err != nil {
						errs <- fmt.Errorf("client %d (%+v) %s: %w", i, combo, q.Name, err)
						return
					}
					res.queries++
					res.rowsStreamed += int64(len(out.rows))
					if out.gotFirst {
						res.ttfr.Observe(out.ttfr)
						res.ttfrMax = max(res.ttfrMax, out.ttfr)
					}
					if out.cancelled {
						res.cancelled++
						continue // a partial result can't be verified
					}
					res.lat.Observe(out.total)
					res.latMax = max(res.latMax, out.total)
					if bench.CanonicalRows(out.rows) != baseline[q.Name] {
						errs <- fmt.Errorf("client %d (%+v) %s: rows differ from serial baseline", i, combo, q.Name)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	failures := 0
	for err := range errs {
		failures++
		slog.Error("load client", "err", err)
	}

	lat, ttfr := obs.NewHistogram(), obs.NewHistogram()
	var latMax, ttfrMax time.Duration
	var total, cancelled, rowsStreamed int64
	for _, r := range results {
		total += r.queries
		cancelled += r.cancelled
		rowsStreamed += r.rowsStreamed
		lat.Merge(r.lat)
		ttfr.Merge(r.ttfr)
		latMax = max(latMax, r.latMax)
		ttfrMax = max(ttfrMax, r.ttfrMax)
	}
	fmt.Printf("clients=%d rounds=%d queries=%d cancelled=%d rows-streamed=%d elapsed=%s\n",
		clients, rounds, total, cancelled, rowsStreamed, elapsed.Round(time.Millisecond))
	if elapsed > 0 {
		fmt.Printf("throughput: %.1f queries/sec\n", float64(total)/elapsed.Seconds())
	}
	fmt.Printf("latency (full stream): p50=%s p95=%s p99=%s max=%s\n",
		lat.Quantile(0.50).Round(time.Microsecond), lat.Quantile(0.95).Round(time.Microsecond),
		lat.Quantile(0.99).Round(time.Microsecond), latMax.Round(time.Microsecond))
	fmt.Printf("time-to-first-row: p50=%s p95=%s max=%s\n",
		ttfr.Quantile(0.50).Round(time.Microsecond), ttfr.Quantile(0.95).Round(time.Microsecond),
		ttfrMax.Round(time.Microsecond))

	// Server-side cache effectiveness.
	var st server.Stats
	if err := c.Get(ctx, "/stats", &st); err != nil {
		slog.Warn("reading /stats", "err", err)
	} else {
		fmt.Printf("server plan cache: %d hits / %d misses (%.1f%% hit rate), %d entries, %d evictions, %d deduped prepares\n",
			st.Cache.Hits, st.Cache.Misses, 100*st.Cache.HitRate(), st.Cache.Size, st.Cache.Evictions,
			st.PrepareDeduped)
		fmt.Printf("server cancelled queries: %d (errors: %d)\n", st.QueriesCancelled, st.QueryErrors)
		fmt.Printf("server queries by mode: %v\n", st.QueriesByMode)
		fmt.Printf("server parallel: pool=%d workers, %d parallel queries, %d morsels, %d worker launches, %d admission waits\n",
			st.Parallel.WorkersConfigured, st.Parallel.ParallelQueries,
			st.Parallel.MorselsExecuted, st.Parallel.WorkerLaunches, st.Parallel.AdmissionWaits)
		fmt.Printf("server query latency: p50=%dµs p95=%dµs p99=%dµs over %d queries (slow: %d)\n",
			st.QueryLatency.P50Micro, st.QueryLatency.P95Micro, st.QueryLatency.P99Micro,
			st.QueryLatency.Count, st.SlowQueries)
	}
	if failures > 0 {
		return fmt.Errorf("%d load-client failures", failures)
	}
	if cancelled > 0 {
		fmt.Printf("all completed streams matched the serial baseline (%d cancelled mid-stream)\n", cancelled)
	} else {
		fmt.Println("all responses matched the serial baseline")
	}
	return nil
}
