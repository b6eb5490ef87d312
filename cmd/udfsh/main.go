// Command udfsh is an interactive shell over the bundled engine, running
// through the same concurrent query service (and shared plan cache) as
// udfserverd: type DDL (CREATE TABLE / CREATE FUNCTION), INSERT rows, and
// run queries that invoke UDFs under any of the three execution modes.
//
// Non-interactive use: `udfsh -f script.sql` executes a statement script and
// exits; piping a script on stdin (`udfsh < script.sql`) behaves the same —
// prompts are suppressed whenever stdin is not a terminal, so CI and fixture
// replay need no flags.
//
// Meta commands:
//
//	.mode iterative|rewrite|costbased   switch execution mode
//	.vectorized on|off                  toggle the batch (vectorized) executor
//	.parallel <n>                       intra-query worker degree (1 = serial)
//	.profile sys1|sys2                  switch engine profile
//	.timeout <dur>|off                  per-statement timeout (e.g. 500ms, 2s)
//	.explain <query>                    show plan choices for a query
//	.rewrite <query>                    show the decorrelated SQL
//	.checkpoint                         snapshot a durable shell's data dir
//	.stats                              plan-cache, parallel and query counters
//	.help                               this text
//	.quit
//
// With -data-dir the shell is durable: state recovers on start, DDL and
// inserts are logged write-ahead, and a checkpoint is written on clean exit
// (plus on demand via .checkpoint). -fsync tunes the WAL sync policy.
//
// Statements end with ';' and may span lines. Interactively, Ctrl-C cancels
// the currently running statement (returning to the prompt) instead of
// killing the shell.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"udfdecorr/internal/engine"
	"udfdecorr/internal/server"
	"udfdecorr/internal/sqlgen"
	"udfdecorr/internal/wal"
)

// shell bundles the service, the single local session, and output settings.
type shell struct {
	svc         *server.Service
	sess        *server.Session
	interactive bool
	// sigc receives SIGINT while a statement runs (interactive mode only);
	// nil in script mode, where Ctrl-C keeps its default kill behavior.
	sigc chan os.Signal
}

// statementCtx derives the context one statement runs under: cancelled by
// Ctrl-C when interactive. The returned stop must be called when the
// statement finishes.
func (sh *shell) statementCtx() (context.Context, func()) {
	if sh.sigc == nil {
		return context.Background(), func() {}
	}
	// Drop any interrupt delivered while idle at the prompt, so it cannot
	// cancel the next statement retroactively.
	select {
	case <-sh.sigc:
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		select {
		case <-sh.sigc:
			cancel()
		case <-done:
		}
	}()
	return ctx, func() { close(done); cancel() }
}

func main() {
	scriptPath := flag.String("f", "", "execute the statement script and exit")
	dataDir := flag.String("data-dir", "", "durable mode: data directory for WAL + checkpoints (empty = in-memory)")
	fsync := flag.String("fsync", "always", "durable mode: WAL fsync policy: always (group commit) | none")
	flag.Parse()

	var boot *engine.Engine
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		var oerr error
		boot, oerr = engine.OpenDurable(*dataDir, engine.SYS1, engine.ModeRewrite,
			engine.DurabilityOptions{Sync: policy})
		if oerr != nil {
			fmt.Fprintln(os.Stderr, "error:", oerr)
			os.Exit(1)
		}
		if st := boot.Durable.Stats(); st.RecoveredRecords > 0 {
			fmt.Printf("recovered %s: %d records replayed\n", *dataDir, st.RecoveredRecords)
		}
	} else {
		boot = engine.New(engine.SYS1, engine.ModeRewrite)
	}
	svc := server.NewServiceFromEngine(boot, server.DefaultOptions())
	sh := &shell{svc: svc, sess: svc.CreateSession(engine.SYS1, engine.ModeRewrite)}
	if boot.Durable != nil {
		// A clean exit compacts the log into a snapshot, so the next start
		// replays a checkpoint instead of the session's whole history.
		defer func() {
			if err := svc.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "exit checkpoint:", err)
			}
			if err := boot.Durable.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "closing data dir:", err)
			}
		}()
	}

	var in io.Reader = os.Stdin
	if *scriptPath != "" {
		f, err := os.Open(*scriptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	} else if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
		sh.interactive = true
	}

	if sh.interactive {
		// Catch SIGINT so Ctrl-C cancels the running statement, not the
		// shell. Script mode keeps the default (a Ctrl-C kills the replay).
		sh.sigc = make(chan os.Signal, 1)
		signal.Notify(sh.sigc, os.Interrupt)
		fmt.Println("udfdecorr shell — mode=rewrite profile=SYS1 (.help for commands, Ctrl-C cancels a running statement)")
	}
	if err := sh.repl(in); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// repl reads statements (and meta commands) until EOF or .quit. In script
// mode an error aborts with a non-zero exit; interactively it is printed and
// the loop continues.
func (sh *shell) repl(in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if !sh.interactive {
			return
		}
		if buf.Len() == 0 {
			fmt.Print("udf> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			quit, err := sh.meta(trimmed)
			if err != nil && !sh.interactive {
				return err
			}
			if quit {
				return nil
			}
			prompt()
			continue
		}
		if buf.Len() == 0 && trimmed == "" {
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		// Statements are terminated by ';' at end of line; CREATE FUNCTION
		// bodies end with END.
		full := buf.String()
		if !complete(full) {
			prompt()
			continue
		}
		buf.Reset()
		if err := sh.run(full); err != nil {
			if !sh.interactive {
				return err
			}
			fmt.Println("error:", err)
		}
		prompt()
	}
	if rest := strings.TrimSpace(buf.String()); rest != "" {
		// Script ended without a trailing ';' — run the remainder anyway.
		if err := sh.run(rest); err != nil && !sh.interactive {
			return err
		}
	}
	return sc.Err()
}

// complete reports whether the buffered text forms a full statement: either
// a non-CREATE-FUNCTION statement ending in ';', or a function definition
// whose BEGIN/END nesting is closed.
func complete(src string) bool {
	upper := strings.ToUpper(src)
	if strings.Contains(upper, "CREATE FUNCTION") {
		depth := 0
		for _, w := range strings.Fields(strings.ReplaceAll(upper, ";", " ; ")) {
			switch w {
			case "BEGIN":
				depth++
			case "END":
				depth--
			}
		}
		return strings.Count(upper, "BEGIN") > 0 && depth <= 0
	}
	return strings.HasSuffix(strings.TrimSpace(src), ";")
}

// meta executes a dot-command; quit is true on .quit/.exit.
func (sh *shell) meta(cmd string) (quit bool, err error) {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case ".quit", ".exit":
		return true, nil
	case ".help":
		fmt.Println(".mode iterative|rewrite|costbased — execution mode")
		fmt.Println(".vectorized on|off                — batch executor")
		fmt.Println(".parallel <n>                     — intra-query worker degree (1 = serial)")
		fmt.Println(".profile sys1|sys2                — engine profile")
		fmt.Println(".timeout <dur>|off                — per-statement timeout (e.g. 500ms, 2s)")
		fmt.Println(".explain <query>                  — plan choices")
		fmt.Println(".analyze <query>                  — execute and show per-operator rows/time")
		fmt.Println(".rewrite <query>                  — decorrelated SQL")
		fmt.Println(".checkpoint                       — snapshot a durable shell's data dir")
		fmt.Println(".stats                            — plan cache + parallel + query counters")
		fmt.Println(".quit")
	case ".mode":
		_, mode := sh.sess.Settings()
		if len(fields) < 2 {
			fmt.Println("current mode:", mode)
			break
		}
		m, perr := server.ParseMode(fields[1])
		if perr != nil {
			fmt.Println(perr)
			return false, perr
		}
		sh.sess.SetMode(m)
	case ".vectorized":
		profile, _ := sh.sess.Settings()
		if len(fields) < 2 {
			fmt.Println("vectorized:", profile.Vectorized)
			break
		}
		switch fields[1] {
		case "on", "true":
			sh.sess.SetVectorized(true)
		case "off", "false":
			sh.sess.SetVectorized(false)
		default:
			fmt.Println("usage: .vectorized on|off")
		}
	case ".parallel":
		profile, _ := sh.sess.Settings()
		if len(fields) < 2 {
			degree := profile.Parallelism
			if degree < 1 {
				degree = 1
			}
			fmt.Println("parallelism:", degree)
			break
		}
		n, perr := strconv.Atoi(fields[1])
		if perr != nil || n < 1 {
			err := fmt.Errorf("usage: .parallel <n> (n >= 1)")
			fmt.Println(err)
			return false, err
		}
		sh.sess.SetParallelism(n)
		if !profile.Vectorized && n > 1 {
			fmt.Println("note: parallelism applies to the vectorized executor (.vectorized on)")
		}
	case ".profile":
		profile, _ := sh.sess.Settings()
		if len(fields) < 2 {
			fmt.Println("current profile:", profile.Name)
			break
		}
		p, perr := server.ParseProfile(fields[1])
		if perr != nil {
			fmt.Println(perr)
			return false, perr
		}
		sh.sess.SetProfile(p)
	case ".timeout":
		if len(fields) < 2 {
			if d := sh.sess.Timeout(); d > 0 {
				fmt.Println("statement timeout:", d)
			} else {
				fmt.Println("statement timeout: off")
			}
			break
		}
		if fields[1] == "off" || fields[1] == "0" {
			sh.sess.SetTimeout(0)
			break
		}
		d, perr := time.ParseDuration(fields[1])
		if perr != nil || d < 0 {
			err := fmt.Errorf("usage: .timeout <duration>|off (e.g. .timeout 2s)")
			fmt.Println(err)
			return false, err
		}
		sh.sess.SetTimeout(d)
	case ".checkpoint":
		if cerr := sh.svc.Checkpoint(); cerr != nil {
			fmt.Println("error:", cerr)
			return false, cerr
		}
		if st := sh.svc.Stats().Durability; st != nil {
			fmt.Printf("checkpoint #%d written (wal now %d bytes)\n", st.Checkpoints, st.WALBytes)
		}
	case ".stats":
		fmt.Print(sh.svc.Stats().Format())
	case ".explain":
		out, eerr := sh.svc.Explain(sh.sess, strings.TrimPrefix(cmd, ".explain "))
		if eerr != nil {
			fmt.Println("error:", eerr)
			return false, eerr
		}
		fmt.Print(out)
	case ".analyze":
		out, aerr := sh.svc.ExplainAnalyze(context.Background(), sh.sess, strings.TrimPrefix(cmd, ".analyze "))
		if aerr != nil {
			fmt.Println("error:", aerr)
			return false, aerr
		}
		fmt.Print(out)
	case ".rewrite":
		res, rerr := sh.sess.Engine().RewriteSQL(strings.TrimPrefix(cmd, ".rewrite "))
		if rerr != nil {
			fmt.Println("error:", rerr)
			return false, rerr
		}
		if !res.Decorrelated {
			fmt.Println("-- not fully decorrelated; query left unchanged")
			break
		}
		for _, agg := range res.NewAggs {
			fmt.Println(agg.SQL())
		}
		sql, gerr := sqlgen.Generate(res.Rel)
		if gerr != nil {
			fmt.Println("error:", gerr)
			return false, gerr
		}
		fmt.Println(sql)
	default:
		fmt.Println("unknown command; .help for help")
	}
	return false, nil
}

// run executes one SQL statement (DDL, INSERT, or query) through the query
// service, so the shared plan cache and the .stats counters see it.
func (sh *shell) run(src string) error {
	trimmed := strings.TrimSpace(src)
	upper := strings.ToUpper(trimmed)
	switch {
	case strings.HasPrefix(upper, "SELECT"):
		ctx, stop := sh.statementCtx()
		defer stop()
		t0 := time.Now()
		res, err := sh.svc.QueryContext(ctx, sh.sess, trimmed)
		if err != nil {
			if sh.interactive && errors.Is(err, context.Canceled) {
				fmt.Printf("cancelled after %s\n", time.Since(t0).Round(time.Millisecond))
				return nil
			}
			if errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("statement timeout (%s) exceeded", sh.sess.Timeout())
			}
			return err
		}
		fmt.Print(res.Format())
		fmt.Printf("(%d rows, %s, rewritten=%v, cached=%v, udf calls=%d)\n",
			len(res.Rows), time.Since(t0).Round(time.Microsecond),
			res.Rewritten, res.CacheHit, res.Counters.UDFCalls)
	default:
		ctx, stop := sh.statementCtx()
		defer stop()
		if err := sh.svc.ExecContext(ctx, sh.sess, trimmed); err != nil {
			if sh.interactive && errors.Is(err, context.Canceled) {
				fmt.Println("cancelled (already-applied statements remain)")
				return nil
			}
			return err
		}
		if sh.interactive {
			fmt.Println("ok")
		}
	}
	return nil
}
