package main

import (
	"bytes"
	"fmt"
	"math/rand"
)

type topology uint8

const (
	topoSingle  topology = iota // one volatile node
	topoDurable                 // one durable node, fsync=always
	topoSharded                 // three volatile shards behind a router
)

// stmt is one distinct statement of a workload.
type stmt struct {
	shape     int
	kind      reqKind
	sql       string
	rewritten bool // reply must report a fully decorrelated plan
}

// Markers in a client schedule for statements built when they are sent
// (mixed_rw_durable): their text depends on what has been acknowledged.
const (
	opWrite = -1 // a batch of single-row INSERTs into bench_kv
	opKV    = -2 // a key lookup on bench_kv of a row just written
)

// schedule is a workload's statements, generated from the seed into memory
// before any clock starts.
type schedule struct {
	distinct []stmt
	warm     []int     // distinct statements run once as the warm-up pass (inside setup_s)
	clients  [][]int32 // per client: cyclic order over distinct (or op markers)
	// startAt is where in each client's cycle the measured phase begins.
	// cold_statements warms up on the head of the cycle itself and measures
	// from there on, so that no measured text was used recently.
	startAt int
}

// bytes serialises the schedule; two schedules are the same iff their bytes
// are.
func (s *schedule) bytes() []byte {
	var b bytes.Buffer
	for _, d := range s.distinct {
		fmt.Fprintf(&b, "%d %d %v %s\n", d.shape, d.kind, d.rewritten, d.sql)
	}
	fmt.Fprintln(&b, s.warm, s.startAt)
	for _, c := range s.clients {
		fmt.Fprintln(&b, c)
	}
	return b.Bytes()
}

// spec describes one workload.
type spec struct {
	name string
	why  string
	topo topology
	// session is the /session settings object every statement runs under.
	session string
	shapes  []string
	// tail is the percentile stmt_tail_ms reports: one of 75/90/95/99 that
	// keeps at least 10 samples beyond it even when the workload completes
	// three tenths fewer statements in a run than it does today. It is fixed
	// per workload so the same quantity is compared across commits; a run
	// with too few samples for it fails.
	tail  float64
	build func(rng *rand.Rand, z sizes) *schedule
	// checkpointEvery posts /checkpoint after every n-th acknowledged write
	// batch (count-triggered, not timed); 0 never.
	checkpointEvery int
}

// Write batches of mixed_rw_durable.
const (
	rowsPerBatch  = 32
	kvPreloadRows = 256 // rows in bench_kv before the first write, so lookups always have a target
)

// kvKey is the n-th key client c writes; keys never collide across clients
// or with the preload (client -1).
func kvKey(c int, n int64) int64 { return int64(c+1)*1_000_000_000 + n }

func kvValue(k int64) string { return fmt.Sprintf("v%016d", k) }

// kvBatchScript renders the INSERT script for rows [first, first+rowsPerBatch)
// of client c.
func kvBatchScript(buf *bytes.Buffer, c int, first int64) {
	for i := int64(0); i < rowsPerBatch; i++ {
		k := kvKey(c, first+i)
		fmt.Fprintf(buf, "insert into bench_kv values (%d, '%s');\n", k, kvValue(k))
	}
}

func kvLookupSQL(k int64) string {
	return fmt.Sprintf("select k, v from bench_kv where k = %d", k)
}

// ---------------------------------------------------------------------------
// Key domains
// ---------------------------------------------------------------------------

// sampleKeys draws n distinct keys from [1, limit] for which ok holds.
func sampleKeys(rng *rand.Rand, n int, limit int64, ok func(int64) bool) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		k := 1 + rng.Int63n(limit)
		if seen[k] || (ok != nil && !ok(k)) {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}

// hasOrders: every 10th customer placed none.
func hasOrders(custkey int64) bool { return custkey%10 != 0 }

// sold: every 11th part has no lineitems.
func sold(partkey int64) bool { return partkey%11 != 0 }

// ---------------------------------------------------------------------------
// Statement pool shared by hot_statements, cold_statements and the reader
// side of mixed_rw_durable: seven templates, each an equality on an indexed
// key, so execution is a handful of index probes.
// ---------------------------------------------------------------------------

var poolShapes = []string{"disc", "discount", "getcost", "keyed_groupby", "keyed_scan", "cust_orders_join", "lineitem_by_part"}

// poolStmt renders template t for the given customer and part keys.
func poolStmt(t int, cust, part int64) stmt {
	var sql string
	switch t {
	case 0:
		sql = fmt.Sprintf("select orderkey, disc(totalprice) from orders where custkey = %d", cust)
	case 1:
		sql = fmt.Sprintf("select orderkey, discount(totalprice, custkey) from orders where custkey = %d", cust)
	case 2:
		sql = fmt.Sprintf("select partkey, getcost(partkey) from partcost where partkey = %d", part)
	case 3:
		sql = fmt.Sprintf("select custkey, count(*), sum(totalprice) from orders where custkey = %d group by custkey", cust)
	case 4:
		sql = fmt.Sprintf("select orderkey, totalprice from orders where custkey = %d", cust)
	case 5:
		sql = fmt.Sprintf("select c.name, o.totalprice from customer c join orders o on o.custkey = c.custkey where c.custkey = %d", cust)
	case 6:
		sql = fmt.Sprintf("select lineitemkey, price, qty from lineitem where partkey = %d", part)
	}
	return stmt{shape: t, kind: kindQuery, sql: sql}
}

const (
	hotPoolSize  = 64    // distinct texts; fits the 256-entry plan cache four times over
	hotDraws     = 32768 // Zipf draws per client before the schedule repeats
	zipfExponent = 1.1
	coldKeysFull = 1200 // keys per template: 8400 distinct texts, 32x the plan cache
)

// hotPool draws the 64 texts. Popularity rank r always belongs to template
// r mod 7: the seed chooses the keys, never how often a template runs, so
// the statement mix (and the rows it returns) is the same for every seed.
func hotPool(rng *rand.Rand, z sizes) []stmt {
	custs := sampleKeys(rng, hotPoolSize, z.customers, hasOrders)
	parts := sampleKeys(rng, hotPoolSize, z.parts, sold)
	pool := make([]stmt, hotPoolSize)
	for i := range pool {
		pool[i] = poolStmt(i%len(poolShapes), custs[i], parts[i])
	}
	return pool
}

// zipfDraws returns n indices into a pool of the given size, rank 0 the
// most popular.
func zipfDraws(rng *rand.Rand, n, size int) []int32 {
	z := rand.NewZipf(rng, zipfExponent, 1, uint64(size-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func buildHot(rng *rand.Rand, z sizes) *schedule {
	s := &schedule{distinct: hotPool(rng, z)}
	s.warm = allIndices(len(s.distinct))
	for c := 0; c < 2; c++ {
		s.clients = append(s.clients, zipfDraws(rng, hotDraws, hotPoolSize))
	}
	return s
}

func buildCold(rng *rand.Rand, z sizes) *schedule {
	s := &schedule{}
	// A small dataset has fewer keys to draw; 600 still give 4200 texts.
	coldKeys := int(min(coldKeysFull, z.customers*6/10))
	custs := sampleKeys(rng, coldKeys, z.customers, hasOrders)
	parts := sampleKeys(rng, coldKeys, z.parts, sold)
	for i := 0; i < coldKeys; i++ {
		for t := range poolShapes {
			s.distinct = append(s.distinct, poolStmt(t, custs[i], parts[i]))
		}
	}
	rng.Shuffle(len(s.distinct), func(i, j int) { s.distinct[i], s.distinct[j] = s.distinct[j], s.distinct[i] })
	s.clients = make([][]int32, 2)
	for i := range s.distinct {
		s.clients[i%2] = append(s.clients[i%2], int32(i))
	}
	// The warm-up pass is the head of the cycle: it fills the plan cache to
	// capacity, so the measured phase evicts from its first statement on.
	s.startAt = planCacheCapacity / 2
	for i := 0; i < planCacheCapacity; i++ {
		s.warm = append(s.warm, i)
	}
	return s
}

// ---------------------------------------------------------------------------
// The paper's three experiments (Figs. 10-12): each UDF invoked once per row
// of its whole outer table, in predicate position so few rows come back and
// result encoding stays out of the picture.
// ---------------------------------------------------------------------------

var paperShapes = []string{"exp1_discount", "exp2_service_level", "exp3_partcount"}

const paperVariants = 8 // distinct predicate constants per experiment

// paperFull renders experiment e (0..2) over the whole outer table: 90 000,
// 10 000 and 200 invocations. v picks the predicate constant; every choice
// returns fewer than 5 000 rows.
func paperFull(e, v int) string {
	switch e {
	case 0: // discount is at most 0.20 * 200 000
		return fmt.Sprintf("select orderkey from orders where discount(totalprice, custkey) > %d", 30_000+1_000*v)
	case 1:
		level := []string{"Platinum", "Gold", "Regular"}[v%3]
		// The constant comparison keeps the eight texts distinct.
		return fmt.Sprintf("select custkey from customer where service_level(custkey) = '%s' and custkey > %d", level, -1-v)
	default: // a category has 100 parts and up to 8 ancestors
		return fmt.Sprintf("select categorykey from category where partcount(categorykey) > %d", 100*v+50)
	}
}

// paperSmall renders experiment e restricted to 10 outer rows: the left end
// of the paper's sweeps, where decorrelation does not pay. exp1's ten rows
// are one customer's orders (an index probe); exp2 and exp3 take ten
// consecutive keys starting at k.
func paperSmall(e int, k int64) string {
	switch e {
	case 0:
		return fmt.Sprintf("select orderkey, discount(totalprice, custkey) from orders where custkey = %d", k)
	case 1:
		return fmt.Sprintf("select custkey, service_level(custkey) from customer where custkey between %d and %d", k, k+9)
	default:
		return fmt.Sprintf("select categorykey, partcount(categorykey) from category where categorykey between %d and %d", k, k+9)
	}
}

// buildPaper cycles exp1, exp2, exp3; successive cycles walk a seeded
// permutation of the predicate constants, so every run sends the same
// multiset of statements.
func buildPaper(full, rewritten bool) func(rng *rand.Rand, z sizes) *schedule {
	return func(rng *rand.Rand, z sizes) *schedule {
		s := &schedule{clients: make([][]int32, 1)}
		starts := [][]int64{
			sampleKeys(rng, paperVariants, z.customers, hasOrders),
			sampleKeys(rng, paperVariants, z.customers-10, nil),
			sampleKeys(rng, paperVariants, z.categories-10, nil),
		}
		for _, v := range rng.Perm(paperVariants) {
			for e := range paperShapes {
				sql := paperFull(e, v)
				if !full {
					sql = paperSmall(e, starts[e][v])
				}
				s.clients[0] = append(s.clients[0], int32(len(s.distinct)))
				s.distinct = append(s.distinct, stmt{shape: e, kind: kindQuery, sql: sql, rewritten: rewritten})
			}
		}
		s.warm = allIndices(len(paperShapes)) // the first cycle: each UDF once
		return s
	}
}

// ---------------------------------------------------------------------------
// stream_export
// ---------------------------------------------------------------------------

func buildStream(rng *rand.Rand, _ sizes) *schedule {
	s := &schedule{clients: make([][]int32, 1), warm: []int{0}}
	for _, v := range rng.Perm(paperVariants) {
		// totalprice is uniform on [0, 200 000): 19 000 to 22 500 rows qualify.
		// (Exports of 86 000 rows gave 16 statements a run, too few for a
		// steady median of the time to the first row.)
		sql := fmt.Sprintf("select orderkey, custkey, totalprice, discount(totalprice, custkey) from orders where totalprice > %d", 150_000+1_000*v)
		s.clients[0] = append(s.clients[0], int32(len(s.distinct)))
		s.distinct = append(s.distinct, stmt{kind: kindStream, sql: sql})
	}
	return s
}

// ---------------------------------------------------------------------------
// mixed_rw_durable
// ---------------------------------------------------------------------------

var mixedShapes = append(append([]string{}, poolShapes...), "kv_lookup", "write_batch")

const (
	shapeKV    = 7
	shapeWrite = 8
)

// mixedPattern is one client's repeating unit: a write batch, then eight
// reads of which every fourth is a lookup of a row from that batch.
var mixedPattern = []int32{opWrite, 0, 0, 0, opKV, 0, 0, 0, opKV}

func buildMixed(rng *rand.Rand, z sizes) *schedule {
	s := &schedule{distinct: hotPool(rng, z)}
	s.warm = allIndices(len(s.distinct))
	for c := 0; c < 2; c++ {
		draws := zipfDraws(rng, hotDraws, hotPoolSize)
		ops := make([]int32, 0, len(draws)/6*len(mixedPattern))
		for len(draws) >= 6 {
			for _, p := range mixedPattern {
				if p < 0 {
					ops = append(ops, p)
				} else {
					ops = append(ops, draws[0])
					draws = draws[1:]
				}
			}
		}
		s.clients = append(s.clients, ops)
	}
	return s
}

// ---------------------------------------------------------------------------
// shard_routes
// ---------------------------------------------------------------------------

var shardShapes = []string{"single_shard", "scatter_concat", "scatter_merge"}

const (
	shardSingleKeys = 128
	shardConcatRows = 100
	shardCycles     = 256 // of ten statements: 8 single-shard, 1 concat, 1 merge
)

func buildSharded(rng *rand.Rand, z sizes) *schedule {
	s := &schedule{clients: make([][]int32, 1)}
	for _, k := range sampleKeys(rng, shardSingleKeys, z.customers, hasOrders) {
		s.distinct = append(s.distinct, stmt{shape: 0, kind: kindQuery,
			sql: fmt.Sprintf("select orderkey, totalprice from orders where custkey = %d", k)})
	}
	concat0 := len(s.distinct)
	for _, k := range sampleKeys(rng, paperVariants, z.orders()-shardConcatRows, nil) {
		// No shard can rule itself out on orderkey, and exactly 100 rows return.
		s.distinct = append(s.distinct, stmt{shape: 1, kind: kindQuery,
			sql: fmt.Sprintf("select orderkey, custkey from orders where orderkey between %d and %d", k, k+shardConcatRows-1)})
	}
	merge0 := len(s.distinct)
	for v := 0; v < paperVariants; v++ {
		// Integer and min/max aggregates merge exactly across shards.
		s.distinct = append(s.distinct, stmt{shape: 2, kind: kindQuery,
			sql: fmt.Sprintf("select count(*), min(totalprice), max(totalprice) from orders where totalprice > %d", 100_000+5_000*v)})
	}
	s.warm = allIndices(len(s.distinct))
	for cycle := 0; cycle < shardCycles; cycle++ {
		slots := make([]int32, 0, 10)
		for i := 0; i < 8; i++ {
			slots = append(slots, int32(rng.Intn(shardSingleKeys)))
		}
		slots = append(slots, int32(concat0+rng.Intn(paperVariants)), int32(merge0+rng.Intn(paperVariants)))
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		s.clients[0] = append(s.clients[0], slots...)
	}
	return s
}

// ---------------------------------------------------------------------------
// The workload list
// ---------------------------------------------------------------------------

const (
	sessionDefault   = `{}`
	sessionRewritten = `{"mode":"rewrite","vectorized":true}`
	sessionIterative = `{"mode":"iterative"}`
)

var workloads = []*spec{
	{
		name: "paper_rewritten",
		why:  "the paper's result: Figs. 10-12 UDFs over whole tables, decorrelated, vectorized executor; exec does the work, front end and encode almost none",
		topo: topoSingle, session: sessionRewritten, shapes: paperShapes, tail: 0.90,
		build: buildPaper(true, true),
	},
	{
		name: "paper_iterative",
		why:  "the same statements with the UDF interpreted once per outer row (the paper's baseline); Apply and the embedded-plan cache do the work",
		topo: topoSingle, session: sessionIterative, shapes: paperShapes, tail: 0.75,
		build: buildPaper(true, false),
	},
	{
		name: "paper_smalln",
		why:  "the three UDFs over 10 outer keys in a default session: the left side of the crossover, where a rewritten point statement joins whole tables",
		topo: topoSingle, session: sessionDefault, shapes: paperShapes, tail: 0.90,
		build: buildPaper(false, false),
	},
	{
		name: "hot_statements",
		why:  "64 indexed point statements drawn Zipf(1.1), all plan-cache hits; HTTP, session lookup, NormalizeSQL and JSON encode are the work, parser/core/plan are bypassed",
		topo: topoSingle, session: sessionDefault, shapes: poolShapes, tail: 0.99,
		build: buildHot,
	},
	{
		name: "cold_statements",
		why:  "the same templates over 8400 distinct texts, 32x the plan cache, so every statement misses; parse, algebrize, rewrite and plan do most of the work",
		topo: topoSingle, session: sessionDefault, shapes: poolShapes, tail: 0.99,
		build: buildCold,
	},
	{
		name: "stream_export",
		why:  "/stream of ~21 000 rows with a UDF column; result encode, per-row flush and transport dominate, planning and execution are a small share",
		topo: topoSingle, session: sessionDefault, shapes: []string{"stream_orders"}, tail: 0.75,
		build: buildStream,
	},
	{
		name: "mixed_rw_durable",
		why:  "durable node, fsync=always: two clients each write a 32-row batch then read eight times; WAL append+fsync, version publish and checkpoints beside cached reads",
		topo: topoDurable, session: sessionDefault, shapes: mixedShapes, tail: 0.95,
		build: buildMixed, checkpointEvery: 400,
	},
	{
		name: "shard_routes",
		why:  "three shards behind the router: 80% single-shard relays, 10% scatter-concat, 10% scatter-merge; relay overhead and the slowest leg, no WAL, few plan misses",
		topo: topoSharded, session: sessionDefault, shapes: shardShapes, tail: 0.95,
		build: buildSharded,
	},
}

func findWorkload(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
