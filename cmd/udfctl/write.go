// write / check: the acked-write guarantee, for any node that speaks the
// wire API. write drives INSERT batches and records every key the node
// acknowledged; check proves each one is still readable — across a kill -9
// and restart of a durable node, a failover to a promoted replica, or the
// loss and return of a shard behind a router.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"udfdecorr/internal/wire"
)

// keyRange is the keys [Lo, Hi).
type keyRange struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// ackManifest is the write load's record, rewritten after every batch so
// that a kill -9 of the writer (or of the node mid-write) never leaves an
// acked row unrecorded.
type ackManifest struct {
	Table string `json:"table"`
	// Acked holds the key of every row the node acknowledged, as ascending
	// disjoint ranges. After a crash the table may hold more (a batch can
	// reach the WAL without its ack reaching the writer), never fewer.
	Acked []keyRange `json:"acked"`
	// NextKey is the first key no batch has used, acked or not; a resumed
	// writer continues there.
	NextKey int64 `json:"next_key"`
	// Errors counts failed batches by typed wire code, "UNTYPED" for a
	// failure that was not an error envelope (the node itself was gone).
	Errors map[string]int `json:"errors,omitempty"`
}

func (m *ackManifest) ackedRows() (n int64) {
	for _, r := range m.Acked {
		n += r.Hi - r.Lo
	}
	return n
}

func (m *ackManifest) ack(r keyRange) {
	if n := len(m.Acked); n > 0 && m.Acked[n-1].Hi == r.Lo {
		m.Acked[n-1].Hi = r.Hi
		return
	}
	m.Acked = append(m.Acked, r)
}

// readAckManifest loads path for table; a missing file is a fresh manifest
// when fresh is set.
func readAckManifest(path, table string, fresh bool) (*ackManifest, error) {
	m := &ackManifest{Table: table}
	err := readJSONFile(path, m)
	switch {
	case errors.Is(err, os.ErrNotExist) && fresh:
	case errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("manifest %s does not exist (did the write load run?)", path)
	case err != nil:
		return nil, err
	case m.Table != table:
		return nil, fmt.Errorf("manifest %s is for table %q, not %q", path, m.Table, table)
	}
	if m.Errors == nil {
		m.Errors = map[string]int{}
	}
	return m, nil
}

func setupWrite(fs *flag.FlagSet) func(context.Context) error {
	addr, path, table, batchRows := addrFlag(fs), manifestFlag(fs), writeTableFlag(fs), batchRowsFlag(fs)
	batches := fs.Int("batches", 0, "number of insert batches (0 = until killed)")
	return func(ctx context.Context) error {
		return runWrite(ctx, wire.NewClient(*addr), *table, *path, *batches, *batchRows)
	}
}

// runWrite drives insert batches into table until batches are exhausted or
// the node is gone. A batch the node rejected with a typed error (a router
// reporting a dead shard) is counted and the load goes on, on fresh keys; a
// transport failure means the addressed node itself died — the harness kill
// -9ing it mid-load is the expected way for this to end, so it is an error
// only if nothing was ever acknowledged.
func runWrite(ctx context.Context, c *wire.Client, table, manifestPath string, batches, batchRows int) error {
	session, err := iterativeSession(ctx, c)
	if err != nil {
		return err
	}
	m, err := readAckManifest(manifestPath, table, true)
	if err != nil {
		return err
	}
	// SHARD KEY partitions the table behind a router (a single-row batch is
	// then a single-shard write) and means nothing on a single node.
	ddl := fmt.Sprintf("create table %s (k int primary key, v varchar) shard key (k);", table)
	if err := c.Exec(ctx, session, ddl); err != nil && !strings.Contains(err.Error(), "already exists") {
		return err
	}
	// A kill -9 can persist rows of a batch whose ack never arrived, so the
	// manifest's NextKey may lag what is actually in the table. Resume past
	// the real maximum to keep keys fresh across writer restarts.
	res, err := c.Query(ctx, session, "select max(k) from "+table)
	if err != nil {
		return err
	}
	if len(res.Rows) == 1 && len(res.Rows[0]) == 1 && res.Rows[0][0] != "NULL" {
		maxKey, err := strconv.ParseInt(res.Rows[0][0], 10, 64)
		if err != nil {
			return fmt.Errorf("max(k) from %s: %w", table, err)
		}
		m.NextKey = max(m.NextKey, maxKey+1)
	}

	for b := 0; batches == 0 || b < batches; b++ {
		keys := keyRange{m.NextKey, m.NextKey + int64(batchRows)}
		var script strings.Builder
		for k := keys.Lo; k < keys.Hi; k++ {
			fmt.Fprintf(&script, "insert into %s values (%d, 'batch-%d');\n", table, k, b)
		}
		m.NextKey = keys.Hi
		err := c.Exec(ctx, session, script.String())
		var re *wire.RemoteError
		switch {
		case err == nil:
			m.ack(keys)
		case errors.As(err, &re):
			m.Errors[string(re.Code)]++
			// The session may have died with the shard that held one leg of
			// it; take a fresh one if the node will give one.
			if s, serr := iterativeSession(ctx, c); serr == nil {
				session = s
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(50 * time.Millisecond):
			}
		case ctx.Err() != nil:
			return ctx.Err() // this writer was told to stop; the node said nothing
		default:
			m.Errors["UNTYPED"]++
			if serr := writeJSONFileAtomic(manifestPath, m); serr != nil {
				return serr
			}
			if m.ackedRows() == 0 {
				return err
			}
			fmt.Printf("write: node gone after %d acked rows (%v) — expected under kill -9\n", m.ackedRows(), err)
			return nil
		}
		if err := writeJSONFileAtomic(manifestPath, m); err != nil {
			return err
		}
	}
	fmt.Printf("write: acked=%d errors=%v table=%s manifest=%s\n", m.ackedRows(), m.Errors, table, manifestPath)
	return nil
}

func setupCheck(fs *flag.FlagSet) func(context.Context) error {
	addr, path, table := addrFlag(fs), manifestFlag(fs), writeTableFlag(fs)
	exact := fs.Bool("exact", false, "require the table to hold exactly the acked rows (graceful restart), not at least them")
	return func(ctx context.Context) error {
		return runCheck(ctx, wire.NewClient(*addr), *table, *path, *exact)
	}
}

func runCheck(ctx context.Context, c *wire.Client, table, manifestPath string, exact bool) error {
	m, err := readAckManifest(manifestPath, table, false)
	if err != nil {
		return err
	}
	session, err := iterativeSession(ctx, c)
	if err != nil {
		return err
	}
	res, err := c.Query(ctx, session, "select k from "+table)
	if err != nil {
		return fmt.Errorf("scanning %s (every shard back up?): %w", table, err)
	}
	present := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		k, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return fmt.Errorf("key in %s: %w", table, err)
		}
		present[k] = true
	}
	var lost []int64
	for _, r := range m.Acked {
		for k := r.Lo; k < r.Hi; k++ {
			if !present[k] {
				lost = append(lost, k)
			}
		}
	}
	codes := make([]string, 0, len(m.Errors))
	for code, n := range m.Errors {
		codes = append(codes, fmt.Sprintf("%s=%d", code, n))
	}
	sort.Strings(codes)
	fmt.Printf("check: table=%s rows=%d acked=%d lost=%d exact=%v write_errors=[%s]\n",
		table, len(res.Rows), m.ackedRows(), len(lost), exact, strings.Join(codes, " "))
	if len(lost) > 0 {
		return fmt.Errorf("durability violation: %d acked rows lost (first: %v)", len(lost), lost[:min(len(lost), 10)])
	}
	if exact && int64(len(res.Rows)) != m.ackedRows() {
		return fmt.Errorf("durability violation: %s has %d rows, acked exactly %d (a graceful restart must lose and invent nothing)",
			table, len(res.Rows), m.ackedRows())
	}
	fmt.Println("every acked write survived")
	return nil
}
