package server

// Streaming/cancellation tests that need service internals: worker-budget
// slots must return to the admission pool when a stream is cancelled
// mid-flight, a waiter that gives up must abandon its FIFO ticket without
// wedging the line, and session statement timeouts must count as
// cancellations (not errors) in the stats.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/exec"
)

// newStreamService builds a service over a single table t(k, v) with n rows.
func newStreamService(t *testing.T, n int, opts Options) *Service {
	t.Helper()
	boot := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := boot.ExecScript(`create table t (k int, v int);`); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 53)}
	}
	boot.MustLoadInts("t", rows)
	return NewServiceFromEngine(boot, opts)
}

func TestStreamCancelRestoresWorkerSlots(t *testing.T) {
	defer func(old int) { exec.MorselRows = old }(exec.MorselRows)
	exec.MorselRows = 64

	const pool = 4
	svc := newStreamService(t, 20_000, Options{CacheSize: 16, MaxConcurrent: pool})
	profile := engine.SYS1
	profile.Vectorized = true
	profile.Parallelism = 4
	sess := svc.CreateSession(profile, engine.ModeRewrite)

	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		st, err := svc.QueryStream(ctx, sess, "select k from t where v >= 0", StreamOpts{})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if free := svc.admission.freeSlots(); free != 0 {
			t.Fatalf("round %d: parallel stream admitted but %d/%d slots still free", round, free, pool)
		}
		if !st.Rows.Next() {
			t.Fatalf("round %d: no first row: %v", round, st.Rows.Err())
		}
		cancel()
		for st.Rows.Next() {
		}
		if !errors.Is(st.Rows.Err(), context.Canceled) {
			t.Fatalf("round %d: Err() = %v, want context.Canceled", round, st.Rows.Err())
		}
		if err := st.Rows.Close(); err != nil {
			t.Fatal(err)
		}
		if free := svc.admission.freeSlots(); free != pool {
			t.Fatalf("round %d: cancelled stream left %d/%d slots free", round, free, pool)
		}
	}
	// Workers unwind asynchronously after the cursor closed.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats := svc.Stats()
	if stats.QueriesCancelled != 3 {
		t.Fatalf("queries_cancelled = %d, want 3", stats.QueriesCancelled)
	}
	if stats.QueryErrors != 0 {
		t.Fatalf("cancellations were counted as errors: %d", stats.QueryErrors)
	}
}

func TestStreamAbandonedWithoutCloseDoesNotBlockDDLForever(t *testing.T) {
	// Not a leak test: this pins the documented contract that an exhausted
	// stream auto-releases (so only an *abandoned* cursor requires Close).
	svc := newStreamService(t, 100, Options{CacheSize: 16, MaxConcurrent: 2})
	sess := svc.CreateSession(engine.SYS1, engine.ModeRewrite)
	st, err := svc.QueryStream(context.Background(), sess, "select k from t", StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for st.Rows.Next() {
	}
	// No explicit Close: end of stream released the DDL hold already.
	done := make(chan error, 1)
	go func() { done <- svc.Exec(sess, `create table u (x int);`) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DDL blocked behind an exhausted (auto-released) stream")
	}
}

func TestSessionStatementTimeout(t *testing.T) {
	svc := newStreamService(t, 1, Options{CacheSize: 16, MaxConcurrent: 2})
	sess := svc.CreateSession(engine.SYS1, engine.ModeIterative)
	if err := svc.Exec(sess, `
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
	sess.SetTimeout(30 * time.Millisecond)
	_, err := svc.QueryContext(context.Background(), sess, "select spin(100000000) from t")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out query returned %v, want context.DeadlineExceeded", err)
	}
	if free := svc.admission.freeSlots(); free != 2 {
		t.Fatalf("timed-out query left %d/2 slots free", free)
	}
	stats := svc.Stats()
	if stats.QueriesCancelled != 1 || stats.QueryErrors != 0 {
		t.Fatalf("cancelled=%d errors=%d, want 1/0", stats.QueriesCancelled, stats.QueryErrors)
	}

	// The timeout is per statement, not cumulative per session: a fast
	// query right after still succeeds.
	if _, err := svc.QueryContext(context.Background(), sess, "select k from t"); err != nil {
		t.Fatalf("fast query after timeout: %v", err)
	}

	// DDL/DML scripts honor the timeout too: an INSERT whose value
	// expression invokes the runaway UDF cancels between/inside statements.
	err = svc.ExecContext(context.Background(), sess, "insert into t values (spin(100000000), 0);")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out exec returned %v, want context.DeadlineExceeded", err)
	}
	if free := svc.admission.freeSlots(); free != 2 {
		t.Fatalf("timed-out exec left %d/2 slots free", free)
	}
}

func TestAcquireCtxAbandonsTicket(t *testing.T) {
	a := newAdmission(1)
	a.acquire(1) // pool exhausted

	// A waiter whose context dies must leave the line...
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.acquireCtx(ctx, 1)
		errc <- err
	}()
	// Let the waiter enqueue, then abandon it.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned waiter got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}

	// ...and the line must advance past its ticket: a later waiter gets the
	// slot once it frees.
	got := make(chan int, 1)
	go func() {
		n, _ := a.acquireCtx(context.Background(), 1)
		got <- n
	}()
	time.Sleep(10 * time.Millisecond)
	a.release(1)
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("later waiter granted %d slots, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("line wedged behind an abandoned ticket")
	}
	if free := a.freeSlots(); free != 0 {
		t.Fatalf("free = %d after grant, want 0", free)
	}
}

func TestAcquireCtxCancelledBeforeWaiting(t *testing.T) {
	a := newAdmission(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Slots are available, so the acquire succeeds without waiting even
	// under a dead context (matching sync semantics: cancellation gates
	// waiting, not fast-path success)... unless it must wait.
	if n, err := a.acquireCtx(ctx, 2); err != nil || n != 2 {
		t.Fatalf("fast-path acquire = (%d, %v), want (2, nil)", n, err)
	}
	if _, err := a.acquireCtx(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting acquire under dead ctx = %v, want context.Canceled", err)
	}
	a.release(2)
	if free := a.freeSlots(); free != 2 {
		t.Fatalf("free = %d, want 2", free)
	}
}
