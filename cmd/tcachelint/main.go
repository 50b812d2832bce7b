// Command tcachelint runs the repository's static-analysis suite: the
// analyzers in internal/lint that enforce the lock hierarchy, the
// no-blocking-under-lock rule, context discipline, the copy-on-write
// read contract, and wire-protocol exhaustiveness. Run it from the
// module root:
//
//	tcachelint ./...
//	tcachelint -analyzers locks,sharedvalue ./internal/core/...
//
// Exit status is 1 when any finding survives //lint:ignore suppression,
// 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tcache/internal/lint"
)

func main() {
	var (
		names   = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		noTests = flag.Bool("notests", false, "skip _test.go files")
		list    = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All
	if *names != "" {
		analyzers = nil
		for _, name := range strings.Split(*names, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "tcachelint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcachelint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(dir, patterns, analyzers, !*noTests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcachelint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tcachelint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
