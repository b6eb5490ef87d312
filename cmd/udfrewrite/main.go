// Command udfrewrite is the query rewrite tool of Figure 9: it accepts a
// database schema, UDF definitions and an SQL query (all in one script, or
// split across files), decorrelates the UDF invocations, and prints the
// rewritten SQL query along with any auxiliary aggregate function
// definitions it synthesized.
//
// Usage:
//
//	udfrewrite [-explain] file.sql [file2.sql ...]
//	udfrewrite -e "create table t (...); create function f ...; select ..."
//
// When the rules cannot remove every Apply operator, the tool reports the
// query as not transformable and leaves it unchanged (the same contract as
// the paper's implementation).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/catalog"
	"udfdecorr/internal/core"
	"udfdecorr/internal/parser"
	"udfdecorr/internal/sqlgen"
)

func main() {
	explain := flag.Bool("explain", false, "print the rule trace and algebra trees")
	inline := flag.String("e", "", "inline script instead of files")
	flag.Parse()

	src := *inline
	if src == "" {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: udfrewrite [-explain] file.sql ...")
			os.Exit(2)
		}
		var parts []string
		for _, f := range flag.Args() {
			data, err := os.ReadFile(f)
			if err != nil {
				fatal(err)
			}
			parts = append(parts, string(data))
		}
		src = strings.Join(parts, "\n")
	}

	script, err := parser.ParseScript(src)
	if err != nil {
		fatal(err)
	}
	cat := catalog.New()
	for _, t := range script.Tables {
		if _, err := cat.AddTableFromAST(t); err != nil {
			fatal(err)
		}
	}
	for _, f := range script.Functions {
		if _, err := cat.AddFunction(f); err != nil {
			fatal(err)
		}
	}
	if len(script.Queries) == 0 {
		fatal(fmt.Errorf("no query in input"))
	}

	alg := core.NewAlgebrizer(cat)
	d := core.NewDecorrelator(cat)
	for qi, q := range script.Queries {
		if qi > 0 {
			fmt.Println()
		}
		rel, err := alg.Query(q)
		if err != nil {
			fatal(err)
		}
		res, err := d.Rewrite(rel)
		if err != nil {
			fatal(err)
		}
		if *explain {
			fmt.Println("-- rule trace:")
			for _, r := range res.Trace {
				fmt.Println("--   " + r)
			}
			fmt.Println("-- rewritten algebra:")
			for _, line := range strings.Split(strings.TrimRight(algebra.Print(res.Rel), "\n"), "\n") {
				fmt.Println("--   " + line)
			}
		}
		if !res.Decorrelated {
			fmt.Println("-- query could not be fully decorrelated; left unchanged:")
			fmt.Println(q.SQL() + ";")
			continue
		}
		for _, agg := range res.NewAggs {
			fmt.Println("-- auxiliary aggregate (install before running the query):")
			fmt.Println(agg.SQL())
		}
		sql, err := sqlgen.Generate(res.Rel)
		if err != nil {
			fatal(err)
		}
		fmt.Println("-- rewritten query (inlined: " + strings.Join(res.InlinedUDFs, ", ") + "):")
		fmt.Println(sql + ";")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "udfrewrite:", err)
	os.Exit(1)
}
