package server

// White-box tests for the admission semaphore and the prepare singleflight:
// these need access to the unexported internals (inflight map, admission
// pool) to make the concurrency deterministic.

import (
	"sync"
	"testing"
	"time"

	"udfdecorr/internal/engine"
)

func TestAdmissionWeightedAcquire(t *testing.T) {
	a := newAdmission(4)

	held := a.acquire(3)
	acquired := make(chan int, 1)
	go func() { acquired <- a.acquire(3) }()

	select {
	case <-acquired:
		t.Fatal("second 3-slot acquire succeeded with only 1 slot free")
	case <-time.After(50 * time.Millisecond):
	}
	a.release(held)
	select {
	case got := <-acquired:
		a.release(got)
	case <-time.After(2 * time.Second):
		t.Fatal("blocked acquire did not wake after release")
	}
	if w := a.waitCount(); w != 1 {
		t.Fatalf("admission waits = %d, want 1", w)
	}

	// Requests larger than the pool clamp instead of deadlocking.
	if got := a.acquire(100); got != 4 {
		t.Fatalf("oversized acquire granted %d slots, want the pool size 4", got)
	} else {
		a.release(got)
	}
}

// TestAdmissionNoPartialDeadlock is the regression test for the classic
// multi-slot semaphore deadlock: two queries each needing 3 of 4 slots must
// serialize, never each hold half and wait forever.
func TestAdmissionNoPartialDeadlock(t *testing.T) {
	a := newAdmission(4)
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			for j := 0; j < 200; j++ {
				a.release(a.acquire(3))
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("admission deadlocked under contending multi-slot acquires")
		}
	}
}

// TestAdmissionFIFONoStarvation: a multi-slot request at the head of the
// line must be served even while single-slot acquisitions keep arriving —
// the FIFO ticket makes later 1-slot requests queue behind it instead of
// leapfrogging it forever.
func TestAdmissionFIFONoStarvation(t *testing.T) {
	a := newAdmission(4)
	stop := make(chan struct{})
	var churners sync.WaitGroup
	for i := 0; i < 4; i++ {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a.release(a.acquire(1))
			}
		}()
	}
	got := make(chan int, 1)
	go func() { got <- a.acquire(4) }()
	select {
	case n := <-got:
		a.release(n)
	case <-time.After(10 * time.Second):
		t.Fatal("4-slot acquire starved by 1-slot churn")
	}
	close(stop)
	churners.Wait()
}

// TestPrepareSingleflight pins the dedupe protocol: a session that misses
// the cache while another session is compiling the same key must wait for
// that compilation and reuse its result instead of calling engine.Prepare.
func TestPrepareSingleflight(t *testing.T) {
	boot := engine.New(engine.SYS1, engine.ModeRewrite)
	if err := boot.ExecScript("create table t (a int, b int);"); err != nil {
		t.Fatal(err)
	}
	svc := NewServiceFromEngine(boot, DefaultOptions())
	eng := engine.NewShared(svc.cat, svc.store, engine.SYS1, engine.ModeRewrite)

	sql := "select a from t"
	key := CacheKey{
		SQL:            NormalizeSQL(sql),
		Mode:           eng.Mode,
		Profile:        eng.Profile.Name,
		Vectorized:     eng.Profile.Vectorized,
		Parallelism:    eng.Profile.Parallelism,
		CatalogVersion: svc.cat.Version(),
	}

	// Simulate a leader mid-compilation, then make a follower prepare the
	// same key: it must block until the leader publishes.
	leader := &prepCall{done: make(chan struct{})}
	svc.prepMu.Lock()
	svc.inflight[key] = leader
	svc.prepMu.Unlock()

	type result struct {
		prep *engine.Prepared
		hit  bool
		err  error
	}
	got := make(chan result, 1)
	go func() {
		prep, hit, err := svc.prepare(eng, sql)
		got <- result{prep, hit, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("follower did not wait for the in-flight prepare (hit=%v err=%v)", r.hit, r.err)
	case <-time.After(50 * time.Millisecond):
	}

	sentinel := &engine.Prepared{Cols: []string{"sentinel"}}
	leader.prep = sentinel
	svc.prepMu.Lock()
	delete(svc.inflight, key)
	svc.prepMu.Unlock()
	close(leader.done)

	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.prep != sentinel {
			t.Fatal("follower compiled its own plan instead of adopting the leader's")
		}
		if !r.hit {
			t.Error("deduped prepare should report as a cache hit (no planning paid)")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower never woke after the leader published")
	}
	if st := svc.Stats(); st.PrepareDeduped != 1 {
		t.Fatalf("prepare_deduped = %d, want 1", st.PrepareDeduped)
	}

	// A leader error propagates to followers and is not cached.
	badSQL := "select a from no_such_table"
	if _, _, err := svc.prepare(eng, badSQL); err == nil {
		t.Fatal("expected prepare error for unknown table")
	}
	if _, ok := svc.cache.Get(CacheKey{SQL: NormalizeSQL(badSQL), Mode: eng.Mode,
		Profile: eng.Profile.Name, CatalogVersion: svc.cat.Version()}); ok {
		t.Fatal("failed prepare was cached")
	}
	svc.prepMu.Lock()
	n := len(svc.inflight)
	svc.prepMu.Unlock()
	if n != 0 {
		t.Fatalf("inflight map leaked %d entries", n)
	}
}
