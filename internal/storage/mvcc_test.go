package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"udfdecorr/internal/catalog"
	"udfdecorr/internal/sqltypes"
)

func metaNamed(name string) *catalog.Table {
	return &catalog.Table{
		Name: name,
		Cols: []catalog.Column{
			{Name: "k", Type: sqltypes.KindInt},
			{Name: "v", Type: sqltypes.KindString},
		},
		PKCols: []string{"k"},
	}
}

func intRow(k int64) Row { return Row{sqltypes.NewInt(k), sqltypes.NewString("x")} }

// TestVersionImmutableUnderAppend pins the MVCC contract: a published
// version's rows, index and stats never change once obtained, no matter how
// many appends follow.
func TestVersionImmutableUnderAppend(t *testing.T) {
	tab := NewTable(metaNamed("t"))
	for i := int64(0); i < 10; i++ {
		if err := tab.Append(intRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	ver := tab.Version()
	ords, err := ver.Lookup("k", sqltypes.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ver.Stats("k")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(10); i < 1000; i++ {
		if err := tab.Append(intRow(i % 5)); err != nil {
			t.Fatal(err)
		}
		// Newer versions extend the shared index while ver stays pinned.
		if _, err := tab.Version().Lookup("k", sqltypes.NewInt(3)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ver.Rows()); got != 10 {
		t.Errorf("pinned version grew: %d rows", got)
	}
	if len(ords) != 1 || ords[0] != 3 {
		t.Errorf("pinned lookup = %v, want [3]", ords)
	}
	if again, _ := ver.Lookup("k", sqltypes.NewInt(3)); len(again) != 1 || again[0] != 3 {
		t.Errorf("pinned lookup after appends = %v, want [3]", again)
	}
	if cur, _ := tab.Version().Lookup("k", sqltypes.NewInt(3)); len(cur) != 1+198 {
		t.Errorf("current lookup has %d rows, want 199", len(cur))
	}
	if st.DistinctCount != 10 {
		t.Errorf("pinned stats changed: distinct=%d", st.DistinctCount)
	}
	if got := tab.RowCount(); got != 1000 {
		t.Errorf("current version rows = %d", got)
	}
}

// TestConcurrentReadersDuringWrites is the lock-stall regression test: under
// -race, readers continuously scan, build indexes and compute stats while a
// writer appends. Every reader observation must be internally consistent
// (index entries in range of the version's rows; stats rows equal to the
// version length), and nothing may block or tear.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	tab := NewTable(metaNamed("t"))
	const writerRows = 2000
	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < writerRows; i++ {
			if err := tab.Append(intRow(i % 97)); err != nil {
				t.Error(err)
				return
			}
		}
		stop.Store(true)
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ver := tab.Version()
				rows := ver.Rows()
				total := 0
				for k := int64(0); k < 97; k++ {
					ords, err := ver.Lookup("k", sqltypes.NewInt(k))
					if err != nil {
						t.Error(err)
						return
					}
					total += len(ords)
					for _, o := range ords {
						if o >= len(rows) {
							t.Errorf("index ordinal %d out of range for %d rows", o, len(rows))
							return
						}
					}
				}
				if total != len(rows) {
					t.Errorf("index covers %d of %d rows", total, len(rows))
					return
				}
				st, err := ver.Stats("k")
				if err != nil {
					t.Error(err)
					return
				}
				if len(rows) > 0 && (st.DistinctCount < 1 || st.DistinctCount > int64(len(rows))) {
					t.Errorf("stats distinct=%d for a %d-row version", st.DistinctCount, len(rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := tab.RowCount(); got != writerRows {
		t.Fatalf("final rows = %d, want %d", got, writerRows)
	}
}

// TestSnapshotIsConsistentCut asserts AppendBatch's atomicity: a writer
// appends the same keys to two tables in one batch, and no snapshot may
// ever observe the tables at different lengths.
func TestSnapshotIsConsistentCut(t *testing.T) {
	s := NewStore()
	a, err := s.CreateTable(metaNamed("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.CreateTable(metaNamed("b"))
	if err != nil {
		t.Fatal(err)
	}
	const batches = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < batches; i++ {
			err := s.AppendBatch([]TableWrite{
				{Table: a, Rows: []Row{intRow(i)}},
				{Table: b, Rows: []Row{intRow(i)}},
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10000; j++ {
			snap := s.Snapshot()
			na, nb := len(snap.Rows(a)), len(snap.Rows(b))
			if na != nb {
				t.Errorf("torn snapshot: a=%d b=%d", na, nb)
				return
			}
		}
	}()
	wg.Wait()
	if a.RowCount() != batches || b.RowCount() != batches {
		t.Fatalf("final counts a=%d b=%d", a.RowCount(), b.RowCount())
	}
}

// TestAppendBatchVeto: a failing commit hook must publish nothing.
func TestAppendBatchVeto(t *testing.T) {
	s := NewStore()
	a, _ := s.CreateTable(metaNamed("a"))
	b, _ := s.CreateTable(metaNamed("b"))
	boom := errors.New("boom")
	s.SetBatchHook(func([]TableWrite) error { return boom })
	err := s.AppendBatch([]TableWrite{
		{Table: a, Rows: []Row{intRow(1)}},
		{Table: b, Rows: []Row{intRow(1)}},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if a.RowCount() != 0 || b.RowCount() != 0 {
		t.Fatalf("vetoed batch published rows: a=%d b=%d", a.RowCount(), b.RowCount())
	}
}

// TestAppendBatchArity: a bad row in any table vetoes the whole batch
// before the hook runs.
func TestAppendBatchArity(t *testing.T) {
	s := NewStore()
	a, _ := s.CreateTable(metaNamed("a"))
	b, _ := s.CreateTable(metaNamed("b"))
	hookRan := false
	s.SetBatchHook(func([]TableWrite) error { hookRan = true; return nil })
	err := s.AppendBatch([]TableWrite{
		{Table: a, Rows: []Row{intRow(1)}},
		{Table: b, Rows: []Row{{sqltypes.NewInt(1)}}}, // arity 1, want 2
	})
	if err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if hookRan {
		t.Fatal("hook ran despite invalid batch")
	}
	if a.RowCount() != 0 {
		t.Fatalf("partial batch published: a=%d", a.RowCount())
	}
}

// TestConcurrentAppendersSameTable: appends from many goroutines must all
// land (the shared-backing-array fast path must not lose extensions).
func TestConcurrentAppendersSameTable(t *testing.T) {
	tab := NewTable(metaNamed("t"))
	const (
		writers = 8
		each    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := tab.Append(intRow(int64(w*each + i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rows := tab.Rows()
	if len(rows) != writers*each {
		t.Fatalf("rows = %d, want %d", len(rows), writers*each)
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		k, _ := r[0].AsInt()
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
}

// TestSnapshotFallsBackForUnknownTable: a table created after the snapshot
// resolves to its current version (snapshots cover the tables that existed
// at the cut).
func TestSnapshotFallsBackForUnknownTable(t *testing.T) {
	s := NewStore()
	snap := s.Snapshot()
	late, err := s.CreateTable(metaNamed("late"))
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Append(intRow(1)); err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Rows(late)); got != 1 {
		t.Fatalf("fallback rows = %d", got)
	}
}

// TestRacingIndexBuilds: many goroutines making the first probe of one
// column must all end up reading one installed index (first install wins;
// the rest are discarded idempotently).
func TestRacingIndexBuilds(t *testing.T) {
	tab := NewTable(metaNamed("t"))
	for i := int64(0); i < 100; i++ {
		if err := tab.Append(intRow(i % 10)); err != nil {
			t.Fatal(err)
		}
	}
	ver := tab.Version()
	var wg sync.WaitGroup
	results := make([][]int, 16)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ords, err := ver.Lookup("k", sqltypes.NewInt(7))
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = ords
		}(g)
	}
	wg.Wait()
	installed := tab.indexes[0].Load()
	if installed == nil {
		t.Fatal("no index installed")
	}
	shared := installed.lookup([][]sqltypes.Value{{sqltypes.NewInt(7)}})
	for g, ords := range results {
		if len(ords) != 10 {
			t.Fatalf("goroutine %d: %d ordinals, want 10", g, len(ords))
		}
		// A discarded build's list would be a different backing array.
		if &ords[0] != &shared[0] {
			t.Fatalf("goroutine %d read a discarded index build", g)
		}
	}
}
