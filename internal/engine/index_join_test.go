package engine_test

// Index joins on either input: an inner join whose right input has no index
// probes an index on its left input, and the join's output list restores the
// left input's columns first. These tests pin the edges of that plan on both
// executors — NULL keys, duplicate probed keys, column order, uncommitted
// rows reached through the index probe's overlay — and a GROUP BY over a
// renaming projection.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"udfdecorr/internal/bench"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/engine"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/sqltypes"
	"udfdecorr/internal/storage"
)

const (
	itemRows = 2000
	itemCats = 100
)

// indexJoinEngines builds item (indexed on cat: 20 rows per cat, every
// 50th cat NULL) and pick (10 rows, cat unindexed, two NULL), and returns a
// row and a vectorized engine over them.
func indexJoinEngines(t *testing.T, mode engine.Mode) []*engine.Engine {
	t.Helper()
	e := engine.New(engine.SYS1, mode)
	if err := e.ExecScript(`
create table item (id int primary key, cat int, w int);
create table pick (id int primary key, c int, note int);
`); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("item", "cat"); err != nil {
		t.Fatal(err)
	}
	var items []storage.Row
	for i := 1; i <= itemRows; i++ {
		cat := sqltypes.NewInt(int64(i % itemCats))
		if i%50 == 0 {
			cat = sqltypes.Null
		}
		items = append(items, storage.Row{sqltypes.NewInt(int64(i)), cat, sqltypes.NewInt(int64(7 * i))})
	}
	if err := e.Load("item", items); err != nil {
		t.Fatal(err)
	}
	// c: matching cats (3 twice), cats 0 and 50 (every item of theirs has
	// a NULL cat), a cat no item has, and NULLs.
	var picks []storage.Row
	for i, c := range []any{3, 3, 17, 0, 50, 99, 12345, nil, nil, 42} {
		v := sqltypes.Null
		if c != nil {
			v = sqltypes.NewInt(int64(c.(int)))
		}
		picks = append(picks, storage.Row{sqltypes.NewInt(int64(9001 + i)), v, sqltypes.NewInt(int64(500 + i))})
	}
	if err := e.Load("pick", picks); err != nil {
		t.Fatal(err)
	}
	vec := engine.SYS1
	vec.Vectorized = true
	return []*engine.Engine{e, engine.NewShared(e.Cat, e.Store, vec, mode)}
}

func executorName(e *engine.Engine) string {
	if e.Profile.Vectorized {
		return "vectorized"
	}
	return "row"
}

// intRow builds a row of integers.
func intRow(vals ...int64) storage.Row {
	r := make(storage.Row, len(vals))
	for i, v := range vals {
		r[i] = sqltypes.NewInt(v)
	}
	return r
}

// TestCommutedIndexJoinEdges: select * from item join pick probes item's
// index once per pick row. Every item of a matching cat comes back once per
// matching pick row (duplicate keys on both sides), NULL keys match
// nothing on either side, and item's columns come first.
func TestCommutedIndexJoinEdges(t *testing.T) {
	const sql = "select * from item i join pick p on i.cat = p.c"
	// The commuted join as the outer of an index join on item's key: the
	// probe key and correlation read the outer row by the join's column
	// order.
	const sql2 = "select i.id, i.w, p.note, j.w from item i join pick p on i.cat = p.c join item j on j.id = i.id"
	var want, want2 []storage.Row
	for _, pk := range []struct{ id, c, note int64 }{{9001, 3, 500}, {9002, 3, 501}, {9003, 17, 502}, {9006, 99, 505}, {9010, 42, 509}} {
		for i := int64(1); i <= itemRows; i++ {
			if i%itemCats == pk.c && i%50 != 0 {
				want = append(want, intRow(i, pk.c, 7*i, pk.id, pk.c, pk.note))
				want2 = append(want2, intRow(i, 7*i, pk.note, 7*i))
			}
		}
	}
	for _, e := range indexJoinEngines(t, engine.ModeRewrite) {
		t.Run(executorName(e), func(t *testing.T) {
			if plan := explainText(t, e, sql); !strings.Contains(plan, "IndexNLJoin(item.cat) [l=10 r=2000]") {
				t.Fatalf("join does not probe item's index:\n%s", plan)
			}
			res, err := e.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(res.Cols, ","); got != "id,cat,w,id,c,note" {
				t.Fatalf("columns = %s", got)
			}
			assertSameRowMultiset(t, sql, res.Rows, want)
			if plan := explainText(t, e, sql2); !strings.Contains(plan, "IndexNLJoin(item.cat)") || !strings.Contains(plan, "IndexNLJoin(item.id)") {
				t.Fatalf("expected both joins to probe item's indexes:\n%s", plan)
			}
			res, err = e.Query(sql2)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRowMultiset(t, sql2, res.Rows, want2)
		})
	}
}

func explainText(t *testing.T, e *engine.Engine, sql string) string {
	t.Helper()
	p, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	return p.Describe(e.Mode, e.Profile.Vectorized)
}

// TestGroupByThroughRenamingProjection: a GROUP BY over a projection that
// renames (and swaps the names of) its columns computes every aggregate
// kind over the projected columns, NULL group included.
func TestGroupByThroughRenamingProjection(t *testing.T) {
	// x.cat is item.w and x.w is item.cat: a reference compiled against
	// the projection's input instead of its output reads the wrong column.
	const sql = `select x.w, sum(x.cat), min(x.cat), max(x.cat), avg(x.cat), count(distinct x.cat), bigsum(x.cat)
		from (select i.w as cat, i.cat as w from item i where i.id <= 600) x group by x.w`
	type acc struct {
		sum, min, max, n, big int64
		seen                  map[int64]bool
	}
	groups := map[string]*acc{}
	for i := int64(1); i <= 600; i++ {
		key, w := fmt.Sprint(i%itemCats), 7*i
		if i%50 == 0 {
			key = "NULL"
		}
		a := groups[key]
		if a == nil {
			a = &acc{min: w, max: w, seen: map[int64]bool{}}
			groups[key] = a
		}
		a.sum, a.n, a.min, a.max = a.sum+w, a.n+1, min(a.min, w), max(a.max, w)
		a.seen[w] = true
		if w > 2000 {
			a.big += w
		}
	}
	for _, mode := range []engine.Mode{engine.ModeIterative, engine.ModeRewrite} {
		for _, e := range indexJoinEngines(t, mode) {
			t.Run(mode.String()+"/"+executorName(e), func(t *testing.T) {
				body, err := parser.ParseScript("create function __wrap() returns int as begin if (v > 2000) acc = acc + v; end")
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := e.Cat.Aggregate("bigsum"); !ok {
					if err := e.Cat.AddAggregate(&catalog.Aggregate{Name: "bigsum", Params: []string{"v"}, Result: "acc",
						State: []catalog.AggStateVar{{Name: "acc", Init: sqltypes.NewInt(0)}},
						Body:  body.Functions[0].Body}); err != nil {
						t.Fatal(err)
					}
				}
				res, err := e.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != len(groups) {
					t.Fatalf("%d groups, want %d", len(res.Rows), len(groups))
				}
				for _, r := range res.Rows {
					a := groups[r[0].String()]
					if a == nil {
						t.Fatalf("unexpected group %v", r)
					}
					want := fmt.Sprint([]any{a.sum, a.min, a.max, float64(a.sum) / float64(a.n), len(a.seen), a.big})
					got := fmt.Sprint([]any{r[1].Go(), r[2].Go(), r[3].Go(), r[4].Go(), r[5].Go(), r[6].Go()})
					if got != want {
						t.Fatalf("group %v: got %s, want %s", r[0], got, want)
					}
				}
			})
		}
	}
}

// TestPartcountCountsUncommittedPart: a part inserted inside an open
// transaction reaches partcount through the index probe on part.category
// (the probe's overlay of transaction-local rows), in iterative and
// rewrite mode, on both executors; outside the transaction it is not seen.
func TestPartcountCountsUncommittedPart(t *testing.T) {
	const (
		sql    = "select categorykey, partcount(categorykey) from category where categorykey <= 10"
		newCat = 4
	)
	for _, mode := range []engine.Mode{engine.ModeIterative, engine.ModeRewrite} {
		base, err := bench.NewEngine(engine.SYS1, mode, benchDataset)
		if err != nil {
			t.Fatal(err)
		}
		vec := engine.SYS1
		vec.Vectorized = true
		for _, e := range []*engine.Engine{base, engine.NewShared(base.Cat, base.Store, vec, mode)} {
			t.Run(mode.String()+"/"+executorName(e), func(t *testing.T) {
				if mode == engine.ModeRewrite {
					if plan := explainText(t, e, sql); !strings.Contains(plan, "IndexNLJoin(part.category)") {
						t.Fatalf("rewritten partcount does not probe part's index:\n%s", plan)
					}
				}
				before := counts(t, e, nil, sql)
				// Each category counts the new part once per ancestor row
				// naming its category.
				delta := counts(t, e, nil, fmt.Sprintf(
					"select a.category, count(*) from categoryancestor a where a.ancestor = %d and a.category <= 10 group by a.category", newCat))
				if len(delta) == 0 {
					t.Fatalf("no category <= 10 has ancestor %d", newCat)
				}
				txn := e.Begin()
				defer txn.Rollback()
				script, err := parser.ParseScript(fmt.Sprintf("insert into part values (999999, 'uncommitted', %d);", newCat))
				if err != nil {
					t.Fatal(err)
				}
				if err := txn.Insert(context.Background(), script.Inserts[0]); err != nil {
					t.Fatal(err)
				}
				inside := counts(t, e, txn, sql)
				for k, n := range before {
					if inside[k] != n+delta[k] {
						t.Errorf("category %d: partcount %d inside the transaction, want %d + %d", k, inside[k], n, delta[k])
					}
				}
				if outside := counts(t, e, nil, sql); fmt.Sprint(outside) != fmt.Sprint(before) {
					t.Errorf("uncommitted part visible outside the transaction: %v, want %v", outside, before)
				}
			})
		}
	}
}

// counts runs a two-column (key, count) query, inside txn when non-nil.
func counts(t *testing.T, e *engine.Engine, txn *engine.Txn, sql string) map[int64]int64 {
	t.Helper()
	p, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.Run(context.Background(), p, engine.RunOpts{Txn: txn})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]int64{}
	for _, r := range res.Rows {
		k, _ := r[0].AsInt()
		n, _ := r[1].AsInt()
		out[k] = n
	}
	return out
}
