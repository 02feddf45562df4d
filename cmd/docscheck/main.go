// Command docscheck validates the repository's documentation links: it
// scans the given markdown files for backtick-quoted repository paths
// (files, directories, cmd/ tools, internal/ packages) and fails if any
// referenced path does not exist. CI runs it over README.md, DESIGN.md,
// EXPERIMENTS.md and the verify skill so the docs cannot drift from the
// tree.
//
// Usage:
//
//	docscheck [-root .] FILE.md [FILE.md ...]
//
// A reference is checked when it looks like a repo path: a backtick-quoted
// token containing a '/' or ending in a known extension (.go, .md, .json,
// .yml), with trailing flag/argument text stripped. Tokens with glob or
// placeholder characters are skipped.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

var backtick = regexp.MustCompile("`([^`]+)`")

// knownExts are the extensionful references checked even without a '/'.
var knownExts = []string{".go", ".md", ".json", ".yml", ".yaml"}

func main() {
	root := flag.String("root", ".", "repository root the references resolve against")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "docscheck: no markdown files given")
		os.Exit(2)
	}
	bad := 0
	for _, md := range flag.Args() {
		data, err := os.ReadFile(md)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		for ln, line := range strings.Split(string(data), "\n") {
			for _, match := range backtick.FindAllStringSubmatch(line, -1) {
				ref, checkable := normalize(match[1])
				if !checkable {
					continue
				}
				if _, err := os.Stat(filepath.Join(*root, ref)); err != nil {
					fmt.Fprintf(os.Stderr, "%s:%d: reference %q does not exist\n", md, ln+1, ref)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d dangling reference(s)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d file(s) clean\n", flag.NArg())
}

// normalize extracts the path-like prefix of a backtick token and reports
// whether it is a checkable repository path. "go run ./cmd/quality -queue"
// yields "cmd/quality"; "dlz.NewMultiCounter(...)", shell pipelines and
// globbed paths are skipped.
func normalize(tok string) (string, bool) {
	tok = strings.TrimSpace(tok)
	// Strip a leading tool invocation: keep the first ./-prefixed or
	// path-looking word of commands such as "go run ./cmd/quality -queue".
	fields := strings.Fields(tok)
	if len(fields) == 0 {
		return "", false
	}
	cand := fields[0]
	if cand == "go" || cand == "cat" || cand == "gofmt" {
		for _, f := range fields[1:] {
			if strings.HasPrefix(f, "./") || strings.Contains(f, "/") {
				cand = f
				break
			}
		}
		if cand == fields[0] {
			return "", false
		}
	}
	cand = strings.TrimPrefix(cand, "./")
	cand = strings.TrimSuffix(cand, "/...")
	cand = strings.TrimSuffix(cand, "/")
	if cand == "" || cand == "." || cand == ".." {
		return "", false
	}
	// Skip anything that is not a plain repo path.
	if strings.ContainsAny(cand, "*?$<>|()§{}' ") || strings.Contains(cand, "...") {
		return "", false
	}
	if strings.HasPrefix(cand, "-") || strings.HasPrefix(cand, "http") {
		return "", false
	}
	hasSlash := strings.Contains(cand, "/")
	hasExt := false
	for _, e := range knownExts {
		if strings.HasSuffix(cand, e) {
			hasExt = true
		}
	}
	if !hasSlash && !hasExt {
		return "", false
	}
	// Identifiers like dlz.MultiQueueConfig or quality.MeasureDequeueRank
	// contain dots but no slash-rooted path; require the first segment to be
	// a known top-level entry.
	first := cand
	if i := strings.IndexByte(cand, '/'); i >= 0 {
		first = cand[:i]
	}
	switch {
	case hasExt && !hasSlash:
		return cand, true
	case first == "cmd" || first == "internal" || first == "dlz" || first == "examples" || first == ".github":
		return cand, true
	default:
		return "", false
	}
}
