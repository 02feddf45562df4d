// Command docscheck keeps the docs and the exported API true to the tree.
// It fails on any break of three rules:
//
//   - Paths: a backtick-quoted repository path in a given markdown file
//     exists (normalize says what looks like one).
//   - Identifiers: a backtick-quoted Go identifier names a declaration of
//     the module or of bench/: `X.Y` where X is one of their packages or
//     types and Y is exported, and bare CamelCase exported names; all-caps
//     tokens and lowercase members (bench row names) are no identifiers.
//     EXPERIMENTS.md, a dated log, is held to the path rule only.
//   - Exports: every exported top-level declaration in internal/ and dlzd
//     is used by name, outside its own declaration, in a non-test Go file
//     of the module or of bench/ (both dlzfail builds count), or is on the
//     allow-list with "test hook" or a ROADMAP item number as its reason.
//
// Usage: docscheck [-root .] FILE.md [FILE.md ...]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

var (
	backtick   = regexp.MustCompile("`([^`]+)`")
	identifier = regexp.MustCompile(`^\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?$`)
	itemRef    = regexp.MustCompile(`\bitem \d+\b`)
)

const datedLog = "EXPERIMENTS.md" // held to the path rule alone

// allow lists, by the reason they are kept, the exported declarations that
// no non-test file uses, keyed package.Name or package.Type.Method.
var allow = map[string][]string{
	"test hook": {"fail.Arm", "fail.Disarm", "fail.Release", "fail.Hits", "fail.Fires", "fail.SetSeed",
		"cpq.Queue.LockForTest", "cpq.Queue.UnlockForTest", "cpq.TopWord.Seq"},
	"item 21, contended relaxation rows": {"core.MQHandle.EnqueueTraced", "core.MQHandle.DequeueTraced",
		"core.Handle.IncrementTraced", "core.Handle.ReadTraced", "trace.NewRecorder", "trace.Recorder.Merge"},
	"item 2, the daemon's history check": {"dlin.Witness.Tail"},
	"item 17, the head-gap figure": {"balance.NewSeqMultiQueue", "balance.SeqMultiQueue.Insert",
		"balance.SeqMultiQueue.DeleteTwoChoice", "balance.SeqMultiQueue.HeadGapRank"},
	"item 22, the paper table decides the explorers": {"balance.CompleteGraph", "balance.CycleGraph",
		"balance.HypercubeGraph", "balance.RandomRegularish", "balance.Graph.NumEdges", "balance.Result.MaxGamma",
		"balance.GoodStepProbs", "balance.OneBetaProbs", "balance.TwoChoiceProbs", "balance.WorstCaseProbs",
		"balance.Majorizes", "balance.StepDominates", "sched.NewUniform", "sched.RunQueue",
		"stm.Array.MaxVersion", "stm.Array.ReadDirect", "stm.MCClock.Delta", "stm.NewFAAClock",
		"stm.NewMCClock", "stm.RunIncrement", "stm.Tx.RunReadOnly"},
}

func main() {
	root := flag.String("root", ".", "repository root the references resolve against")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "docscheck: no markdown files given")
		os.Exit(2)
	}
	problems, err := check(*root, flag.Args(), allow)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "%s\ndocscheck: %d problem(s)\n", strings.Join(problems, "\n"), len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d file(s) clean, every export consumed\n", flag.NArg())
}

// check applies the three rules to the tree at root and the given docs and
// returns one line per violation.
func check(root string, docs []string, allow map[string][]string) ([]string, error) {
	t, err := load(root)
	if err != nil {
		return nil, err
	}
	problems := t.unconsumed(allow)
	for _, md := range docs {
		data, err := os.ReadFile(md)
		if err != nil {
			return nil, err
		}
		for ln, line := range strings.Split(string(data), "\n") {
			for _, match := range backtick.FindAllStringSubmatch(line, -1) {
				if ref, isPath := normalize(match[1]); isPath {
					if _, err := os.Stat(filepath.Join(root, ref)); err != nil {
						problems = append(problems, fmt.Sprintf("%s:%d: reference %q does not exist", md, ln+1, ref))
					}
				} else if filepath.Base(md) != datedLog && !t.resolves(match[1]) {
					problems = append(problems, fmt.Sprintf("%s:%d: identifier %q declares nothing", md, ln+1, match[1]))
				}
			}
		}
	}
	return problems, nil
}

// tree is what the two Go rules read of the Go files under the root.
type tree struct {
	members map[string]map[string]bool // package or type → names declared in it; "" → all names
	decls   map[string][][2]token.Pos  // audited export, keyed as in allow → its declaring spans
	uses    map[string][]token.Pos     // identifiers in non-test files, by name
}

// load parses every Go file under root, whatever its build tags.
func load(root string) (*tree, error) {
	t := &tree{members: map[string]map[string]bool{}, decls: map[string][][2]token.Pos{}, uses: map[string][]token.Pos{}}
	fset := token.NewFileSet()
	return t, filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		dir := strings.SplitN(filepath.ToSlash(rel), "/", 2)[0]
		test := strings.HasSuffix(path, "_test.go")
		t.add(f, test, !test && (dir == "internal" || dir == "dlzd"))
		return nil
	})
}

// declare records id as declared in each owner and in "", and, if audit is
// set and id is exported, its declaring span under its key.
func (t *tree) declare(audit bool, id *ast.Ident, node ast.Node, owners ...string) {
	if audit && id.IsExported() {
		key := strings.Join(owners, ".") + "." + id.Name
		t.decls[key] = append(t.decls[key], [2]token.Pos{node.Pos(), node.End()})
	}
	for _, o := range append(owners, "") {
		if t.members[o] == nil {
			t.members[o] = map[string]bool{}
		}
		t.members[o][id.Name] = true
	}
}

// add records f's declarations and, unless it is a test file, its identifiers;
// audited marks a file whose exports the exports rule checks.
func (t *tree) add(f *ast.File, test, audited bool) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			owners := []string{pkg}
			if d.Recv != nil {
				owners = append(owners, strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"))
			}
			t.declare(audited, d.Name, d, owners...)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					t.declare(audited, s.Name, s, pkg)
					ast.Inspect(s.Type, func(n ast.Node) bool {
						if field, ok := n.(*ast.Field); ok {
							for _, id := range field.Names {
								t.declare(false, id, field, pkg, s.Name.Name)
							}
						}
						return true
					})
				case *ast.ValueSpec:
					for _, id := range s.Names {
						t.declare(audited, id, s, pkg)
					}
				}
			}
		}
	}
	if test {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			t.uses[id.Name] = append(t.uses[id.Name], id.Pos())
		}
		return true
	})
}

// unconsumed applies the exports rule and checks the allow-list itself:
// every reason says why, and every name excuses a declaration that needs it.
func (t *tree) unconsumed(allow map[string][]string) []string {
	var problems []string
	listed := map[string]bool{}
	for why, keys := range allow {
		if !strings.Contains(why, "test hook") && !itemRef.MatchString(why) {
			problems = append(problems, fmt.Sprintf("allow-list reason %q is neither \"test hook\" nor an item number", why))
		}
		for _, k := range keys {
			listed[k] = true
		}
	}
	for key, spans := range t.decls {
		used := slices.ContainsFunc(t.uses[key[strings.LastIndexByte(key, '.')+1:]], func(p token.Pos) bool {
			return !slices.ContainsFunc(spans, func(s [2]token.Pos) bool { return s[0] <= p && p < s[1] })
		})
		if !used && listed[key] {
			delete(listed, key)
		} else if !used {
			problems = append(problems, fmt.Sprintf("%s: exported, but no non-test file uses it", key))
		}
	}
	for k := range listed {
		problems = append(problems, fmt.Sprintf("allow-list entry %s names no unconsumed declaration", k))
	}
	sort.Strings(problems)
	return problems
}

// resolves reports whether tok names a declaration, or is no identifier the
// rule covers.
func (t *tree) resolves(tok string) bool {
	m := identifier.FindStringSubmatch(strings.TrimSpace(tok))
	if m == nil {
		return true
	}
	parts := strings.Split(m[1], ".")
	if len(parts) == 1 {
		return !ast.IsExported(parts[0]) || strings.ToUpper(parts[0]) == parts[0] || t.members[""][parts[0]]
	}
	scope := t.members[parts[0]]
	for _, p := range parts[1:] {
		if scope == nil || !ast.IsExported(p) {
			return true // not this module's package or type, or not exported
		}
		if !scope[p] {
			return false
		}
		scope = t.members[p]
	}
	return true
}

// normalize extracts the path-like prefix of a backtick token and reports
// whether it is a repository path: "go run ./cmd/quality -queue" yields
// "cmd/quality"; identifiers, shell pipelines and globbed paths are skipped.
func normalize(tok string) (string, bool) {
	fields := append(strings.Fields(tok), "")
	cand := fields[0]
	if cand == "go" || cand == "cat" || cand == "gofmt" {
		cand = ""
		for _, f := range fields[1:] {
			if strings.Contains(f, "/") {
				cand = f
				break
			}
		}
	}
	cand = strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(cand, "./"), "/..."), "/")
	if cand == "" || cand == "." || cand == ".." || strings.HasPrefix(cand, "-") || strings.HasPrefix(cand, "http") ||
		strings.ContainsAny(cand, "*?$<>|()§{}' ") || strings.Contains(cand, "...") {
		return "", false
	}
	if !strings.Contains(cand, "/") {
		ext := filepath.Ext(cand)
		return cand, ext == ".go" || ext == ".md" || ext == ".json" || ext == ".yml" || ext == ".yaml"
	}
	// Identifiers like dlz.MultiQueueConfig contain dots but no slash-rooted
	// path; a path starts at a known top-level entry.
	switch strings.SplitN(cand, "/", 2)[0] {
	case "cmd", "internal", "dlz", "examples", ".github":
		return cand, true
	}
	return "", false
}
