// Command udfctl is the client side of the serving tier: the correctness
// drivers CI runs against live udfserverd and udfrouterd processes, all built
// on the one wire client (internal/wire).
//
//	udfctl load       -addr URL [-clients N -rounds N -parallelism N -cancel-frac F]
//	    replay the differential corpus over /stream from N concurrent sessions,
//	    checking every completed stream against a serial iterative baseline
//	udfctl mixed      -addr URL [-mixed-writers N -mixed-readers N -mixed-duration D -batch-rows N -write-table T]
//	    N writers posting acknowledged INSERT batches beside M readers; reports write QPS
//	udfctl snapshot   -addr URL -manifest pre.json     capture corpus results + row counts
//	udfctl verify     -addr URL -manifest pre.json     assert they are unchanged (e.g. across a kill -9 + restart)
//	udfctl loadcorpus -addr ROUTER [-scale small|bench]  push the sharded schema, UDFs and dataset through a router
//	udfctl diff       -addr ROUTER -baseline URL       corpus differential: router over N shards vs one node
//	udfctl write      -addr URL -manifest acked.json [-batches N -batch-rows N -write-table T]
//	    write acknowledged rows until killed; the manifest records every acked key
//	    and a count of failed batches per typed wire code
//	udfctl check      -addr URL -manifest acked.json [-write-table T -exact]
//	    assert every acked row is readable
//
// -addr takes a base URL, host:port, or the :8080 shorthand for localhost.
// Every subcommand exits nonzero on a violated assertion; a failure the node
// reported is logged with its typed code and leader_hint.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"udfdecorr/internal/wire"
)

// command is one subcommand: setup declares its flags on fs and returns the
// function to run once they are parsed.
type command struct {
	name  string
	setup func(fs *flag.FlagSet) func(ctx context.Context) error
}

var commands = []command{
	{"load", setupLoad},
	{"mixed", setupMixed},
	{"snapshot", setupSnapshot},
	{"verify", setupVerify},
	{"loadcorpus", setupLoadCorpus},
	{"diff", setupDiff},
	{"write", setupWrite},
	{"check", setupCheck},
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	for _, cmd := range commands {
		if cmd.name != os.Args[1] {
			continue
		}
		fs := flag.NewFlagSet("udfctl "+cmd.name, flag.ExitOnError)
		run := cmd.setup(fs)
		_ = fs.Parse(os.Args[2:]) // ExitOnError
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := run(ctx)
		stop()
		if err != nil {
			attrs := []any{"err", err}
			var re *wire.RemoteError
			if errors.As(err, &re) {
				attrs = append(attrs, "code", string(re.Code), "leader_hint", re.LeaderHint)
			}
			slog.Error("udfctl "+cmd.name+" failed", attrs...)
			os.Exit(1)
		}
		return
	}
	usage()
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: udfctl <subcommand> [flags]; subcommands:")
	for _, cmd := range commands {
		fmt.Fprint(os.Stderr, " ", cmd.name)
	}
	fmt.Fprintln(os.Stderr, "\nrun udfctl <subcommand> -h for its flags")
	os.Exit(2)
}

// Flags several subcommands share, declared once so name, default and help
// text cannot drift.

func addrFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", ":8080", "base URL of the node to drive (udfserverd or udfrouterd)")
}

func manifestFlag(fs *flag.FlagSet) *string {
	return fs.String("manifest", "acked.json", "manifest file to write or check against")
}

func writeTableFlag(fs *flag.FlagSet) *string {
	return fs.String("write-table", "dura_kv", "table the write load targets")
}

func batchRowsFlag(fs *flag.FlagSet) *int {
	return fs.Int("batch-rows", 32, "rows per acknowledged insert batch")
}

// iterativeSession opens a session in the deterministic baseline mode.
func iterativeSession(ctx context.Context, c *wire.Client) (string, error) {
	sess, err := c.NewSession(ctx, map[string]any{"mode": "iterative", "profile": "sys1"})
	if err != nil {
		return "", fmt.Errorf("creating session on %s (is the daemon running?): %w", c.Base(), err)
	}
	return sess, nil
}

func readJSONFile(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("manifest %s: %w", path, err)
	}
	return nil
}

// writeJSONFileAtomic replaces path in one rename, so a reader (or a kill -9
// of this process) never sees a half-written manifest.
func writeJSONFileAtomic(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
