// mixed: N writer goroutines drive acknowledged INSERT batches while M
// reader goroutines replay corpus queries, all against one live daemon. The
// point is to measure write throughput under concurrency: with MVCC snapshot
// reads and group-commit fsync batching, write QPS should scale with the
// writer count instead of serializing behind a global lock (the CI smoke
// asserts exactly that by comparing a 1-writer and a 4-writer run).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/obs"
	"udfdecorr/internal/wire"
)

func setupMixed(fs *flag.FlagSet) func(context.Context) error {
	addr, table, batchRows := addrFlag(fs), writeTableFlag(fs), batchRowsFlag(fs)
	writers := fs.Int("mixed-writers", 4, "concurrent writer goroutines")
	readers := fs.Int("mixed-readers", 2, "concurrent reader goroutines")
	dur := fs.Duration("mixed-duration", 5*time.Second, "load duration")
	return func(ctx context.Context) error {
		return runMixed(ctx, wire.NewClient(*addr), *writers, *readers, *batchRows, *table, *dur)
	}
}

// leaderHint extracts the structured leader address from a follower's typed
// write rejection ("" when the error is anything else).
func leaderHint(err error) string {
	var rerr *wire.RemoteError
	if errors.As(err, &rerr) && rerr.Code == wire.CodeReadOnly {
		return rerr.LeaderHint
	}
	return ""
}

// runMixed drives the mixed load for dur and prints one machine-parseable
// summary line (the CI gate greps write_qps out of it).
func runMixed(ctx context.Context, rc *wire.Client, writers, readers, batchRows int, table string, dur time.Duration) error {
	if writers < 1 {
		return fmt.Errorf("mixed needs at least one writer (got %d)", writers)
	}
	// Writers follow a read-only replica's structured leader hint: pointing
	// mixed at a follower sends the writes to its leader automatically while
	// the readers keep hitting the replica they were aimed at.
	wc := rc
	setup, err := iterativeSession(ctx, wc)
	if err != nil {
		return err
	}
	ddl := fmt.Sprintf("create table %s (k int primary key, v varchar);", table)
	err = wc.Exec(ctx, setup, ddl)
	if hint := leaderHint(err); hint != "" {
		slog.Info("follower hinted at its leader; writers re-pointed", "leader", hint)
		wc = wire.NewClient(hint)
		if setup, err = iterativeSession(ctx, wc); err != nil {
			return err
		}
		err = wc.Exec(ctx, setup, ddl)
	}
	if err != nil && !strings.Contains(err.Error(), "already exists") {
		return err
	}
	// Partition the key space per writer so batches never collide, and start
	// past anything already in the table (reruns against a durable server).
	maxReply, err := wc.Query(ctx, setup, "select max(k) from "+table)
	if err != nil {
		return err
	}
	const stride = int64(1) << 40
	baseKey := int64(0)
	if len(maxReply.Rows) == 1 && len(maxReply.Rows[0]) == 1 && maxReply.Rows[0][0] != "NULL" {
		baseKey = stride // resumed runs jump a whole stride past every old key
	}

	var (
		ackedBatches atomic.Int64
		ackedRows    atomic.Int64
		readQueries  atomic.Int64
		readRows     atomic.Int64
	)
	// Per-statement latency distributions (histograms are safe for all
	// writers/readers to observe concurrently).
	writeLat, readLat := obs.NewHistogram(), obs.NewHistogram()
	errs := make(chan error, writers+readers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := wc
			session, err := iterativeSession(ctx, cl)
			if err != nil {
				errs <- fmt.Errorf("writer %d: %w", w, err)
				return
			}
			followed := false
			next := baseKey + int64(w+1)*stride
			for b := 0; time.Now().Before(deadline); b++ {
				var script strings.Builder
				for i := 0; i < batchRows; i++ {
					fmt.Fprintf(&script, "insert into %s values (%d, 'w%d-b%d-r%d');\n",
						table, next+int64(i), w, b, i)
				}
				t0 := time.Now()
				err := cl.Exec(ctx, session, script.String())
				// Follow the leader hint once (e.g. the node was demoted to
				// a replica mid-run); a second rejection is a real failure.
				if hint := leaderHint(err); hint != "" && !followed {
					followed = true
					cl = wire.NewClient(hint)
					if session, err = iterativeSession(ctx, cl); err == nil {
						err = cl.Exec(ctx, session, script.String())
					}
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d batch %d: %w", w, b, err)
					return
				}
				writeLat.Observe(time.Since(t0))
				next += int64(batchRows)
				ackedBatches.Add(1)
				ackedRows.Add(int64(batchRows))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			session, err := iterativeSession(ctx, rc)
			if err != nil {
				errs <- fmt.Errorf("reader %d: %w", r, err)
				return
			}
			for q := 0; time.Now().Before(deadline); q++ {
				// Alternate a corpus query with a scan of the write table, so
				// readers overlap the rows being appended (snapshot reads must
				// keep these consistent and stall-free).
				sql := bench.Corpus[q%len(bench.Corpus)].SQL
				if q%2 == 1 {
					sql = "select count(*) from " + table
				}
				t0 := time.Now()
				reply, err := rc.Query(ctx, session, sql)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				readLat.Observe(time.Since(t0))
				readQueries.Add(1)
				readRows.Add(int64(reply.RowCount))
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start) // dur plus the overshoot of the last in-flight statements
	close(errs)
	failed := false
	for err := range errs {
		failed = true
		slog.Error("mixed load", "err", err)
	}
	if failed {
		return fmt.Errorf("mixed load failed")
	}
	secs := elapsed.Seconds()
	fmt.Printf("mixed: writers=%d readers=%d duration=%s batch_rows=%d\n",
		writers, readers, elapsed.Round(time.Millisecond), batchRows)
	fmt.Printf("mixed: write_batches=%d write_rows=%d write_qps=%.2f rows_per_sec=%.1f\n",
		ackedBatches.Load(), ackedRows.Load(),
		float64(ackedBatches.Load())/secs, float64(ackedRows.Load())/secs)
	fmt.Printf("mixed: write_latency p50=%s p95=%s p99=%s\n",
		writeLat.Quantile(0.50).Round(time.Microsecond), writeLat.Quantile(0.95).Round(time.Microsecond),
		writeLat.Quantile(0.99).Round(time.Microsecond))
	fmt.Printf("mixed: read_queries=%d read_rows=%d read_qps=%.2f\n",
		readQueries.Load(), readRows.Load(), float64(readQueries.Load())/secs)
	if readQueries.Load() > 0 {
		fmt.Printf("mixed: read_latency p50=%s p95=%s p99=%s\n",
			readLat.Quantile(0.50).Round(time.Microsecond), readLat.Quantile(0.95).Round(time.Microsecond),
			readLat.Quantile(0.99).Round(time.Microsecond))
	}
	return nil
}
