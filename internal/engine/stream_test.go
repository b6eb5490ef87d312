package engine_test

// Streaming API tests: Rows cursor semantics (Next/Scan/Columns/Err/Close),
// cancellation on the row path (mid-scan and inside a runaway UDF) and on
// the parallel vectorized path (mid-morsel at parallelism 4), asserting
// cancellation surfaces as context.Canceled within a row/batch boundary and
// that parallel workers do not leak goroutines.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/exec"
)

// streamFixture builds an engine with one table t(k, v) of n rows
// (k = i, v = i % 97).
func streamFixture(t *testing.T, profile engine.Profile, mode engine.Mode, n int) *engine.Engine {
	t.Helper()
	e := engine.New(profile, mode)
	if err := e.ExecScript(`create table t (k int, v int);`); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 97)}
	}
	e.MustLoadInts("t", rows)
	return e
}

// startQuery prepares sql and starts it under ctx.
func startQuery(ctx context.Context, e *engine.Engine, sql string) (*engine.Rows, error) {
	p, err := e.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, p, engine.RunOpts{})
}

func TestRowsCursorBasics(t *testing.T) {
	for _, vectorized := range []bool{false, true} {
		profile := engine.SYS1
		profile.Vectorized = vectorized
		e := streamFixture(t, profile, engine.ModeRewrite, 10)
		rows, err := startQuery(context.Background(), e, "select k, v from t where k < 4")
		if err != nil {
			t.Fatal(err)
		}
		if got := rows.Columns(); len(got) != 2 || got[0] != "k" || got[1] != "v" {
			t.Fatalf("vectorized=%v: Columns() = %v", vectorized, got)
		}
		var ks []int64
		for rows.Next() {
			var k, v int64
			if err := rows.Scan(&k, &v); err != nil {
				t.Fatal(err)
			}
			if v != k%97 {
				t.Fatalf("vectorized=%v: bad row (%d, %d)", vectorized, k, v)
			}
			ks = append(ks, k)
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("vectorized=%v: Err() = %v", vectorized, err)
		}
		if len(ks) != 4 {
			t.Fatalf("vectorized=%v: streamed %d rows, want 4", vectorized, len(ks))
		}
		// Close is idempotent, including after auto-close at end of stream.
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if rows.Next() {
			t.Fatalf("vectorized=%v: Next() after close returned true", vectorized)
		}
	}
}

func TestRowsEarlyCloseFiresOnCloseOnce(t *testing.T) {
	e := streamFixture(t, engine.SYS1, engine.ModeRewrite, 100)
	rows, err := startQuery(context.Background(), e, "select k from t")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	var closeErr error
	rows.OnClose(func(err error) { calls++; closeErr = err })
	if !rows.Next() {
		t.Fatal("no first row")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	_ = rows.Close()
	if calls != 1 {
		t.Fatalf("OnClose fired %d times, want 1", calls)
	}
	if closeErr != nil {
		t.Fatalf("OnClose got %v for a clean early close", closeErr)
	}
}

func TestQueryContextCancelledBeforeRun(t *testing.T) {
	e := streamFixture(t, engine.SYS1, engine.ModeRewrite, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := startQuery(ctx, e, "select k from t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestCancelMidScanRowPath(t *testing.T) {
	const n = 50_000
	e := streamFixture(t, engine.SYS1, engine.ModeRewrite, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := startQuery(ctx, e, "select k from t where v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	got := 1
	for rows.Next() {
		got++
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", rows.Err())
	}
	// The row path checks per pull: at most one extra row after cancel.
	if got >= n {
		t.Fatalf("streamed all %d rows despite cancellation", got)
	}
}

func TestTimeoutCancelsRunawayUDF(t *testing.T) {
	e := streamFixture(t, engine.SYS1, engine.ModeIterative, 1)
	if err := e.ExecScript(`
create function spin(int n) returns int as
begin
  int i = 0;
  while i < n
  begin
    i = i + 1;
  end
  return i;
end
`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	p, err := e.Prepare("select spin(100000000) from t")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.RunContext(ctx, p)
	if err == nil {
		_, err = rows.Materialize()
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("runaway UDF returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s to take effect", elapsed)
	}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (parallel workers unwind asynchronously after cancellation).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCancelMidMorselParallelNoLeak(t *testing.T) {
	defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
	exec.MorselRows = 64

	profile := engine.SYS1
	profile.Vectorized = true
	profile.Parallelism = 4
	const n = 20_000
	e := streamFixture(t, profile, engine.ModeRewrite, n)

	p, err := e.Prepare("select k from t where v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if p.Parallelism <= 1 {
		t.Fatalf("plan did not parallelize (degree %d); the test needs an Exchange", p.Parallelism)
	}

	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := e.RunContext(ctx, p)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("round %d: no first row: %v", round, rows.Err())
		}
		cancel()
		got := 1
		for rows.Next() {
			got++
		}
		if !errors.Is(rows.Err(), context.Canceled) {
			t.Fatalf("round %d: Err() = %v, want context.Canceled", round, rows.Err())
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		if got >= n {
			t.Fatalf("round %d: streamed all %d rows despite cancellation", round, got)
		}
	}
	waitGoroutines(t, baseline)
}

func TestParallelStreamCompletesAfterCancelledSiblings(t *testing.T) {
	// A cancelled parallel stream must not poison subsequent executions of
	// the same shared Prepared.
	defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
	exec.MorselRows = 64

	profile := engine.SYS1
	profile.Vectorized = true
	profile.Parallelism = 4
	const n = 10_000
	e := streamFixture(t, profile, engine.ModeRewrite, n)
	p, err := e.Prepare("select k from t where v >= 0")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := e.RunContext(ctx, p)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	rows.Next()
	cancel()
	for rows.Next() {
	}
	rows.Close()

	rows, err = e.Run(context.Background(), p, engine.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("post-cancel run returned %d rows, want %d", len(res.Rows), n)
	}
}
