// Command stmaker-lint is the project-specific static checker behind
// `make lint`. It type-checks every package in the module with the
// standard library's go/types (no external dependencies) and enforces the
// invariants the compiler cannot see: metric-name hygiene against
// docs/OBSERVABILITY.md, (lat, lng) coordinate-order discipline,
// no exact floating-point comparison, context plumbing rules, sync.Pool
// Get/Put pairing, Model immutability (modelmut), pooled-scratch escape
// (poolescape), model-cell publish discipline (atomiccell), the
// sentinel-error/status taxonomy against docs/API.md (statusmap), and no
// internal/ function that only tests call (testonly). See
// docs/STATIC_ANALYSIS.md.
//
// Exit status: 0 clean, 1 findings, 2 the module could not be loaded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"stmaker/internal/lint"
)

// jsonFinding is the machine-readable shape of one diagnostic, consumed
// by CI tooling (`stmaker-lint -json`).
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	docs := flag.String("docs", "docs/OBSERVABILITY.md",
		"metrics catalogue cross-checked by metricnames, relative to the module root; empty disables the doc check")
	apiDocs := flag.String("api-docs", "docs/API.md",
		"API reference whose status rows statusmap cross-checks, relative to the module root; empty disables the check")
	checks := flag.String("checks", "",
		fmt.Sprintf("comma-separated subset of checks to run (default all: %s)", strings.Join(lint.AllChecks(), ",")))
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout instead of text lines")
	verbose := flag.Bool("v", false, "print load and per-check timing to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: stmaker-lint [flags] [module-root]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root := flag.Arg(0)
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmaker-lint:", err)
			os.Exit(2)
		}
	}

	opts := lint.Options{}
	if *docs != "" {
		opts.DocPath = filepath.Join(root, *docs)
	}
	if *apiDocs != "" {
		opts.APIDocPath = filepath.Join(root, *apiDocs)
	}
	if *checks != "" {
		opts.Checks = strings.Split(*checks, ",")
	}

	t0 := time.Now()
	pkgs, err := lint.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmaker-lint:", err)
		os.Exit(2)
	}
	loadTime := time.Since(t0)
	diags, timings, err := lint.RunTimed(pkgs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmaker-lint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Check: d.Check, Message: d.Msg,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "stmaker-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "stmaker-lint: loaded %d package(s) in %v\n", len(pkgs), loadTime.Round(time.Millisecond))
		for _, ct := range timings {
			fmt.Fprintf(os.Stderr, "stmaker-lint: check %-12s %v\n", ct.Name, ct.Duration.Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "stmaker-lint: total %v\n", time.Since(t0).Round(time.Millisecond))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "stmaker-lint: %d issue(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
