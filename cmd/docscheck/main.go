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
//   - Exports: every exported declaration or method in internal/ and dlzd
//     is consumed by object, not by name, in the non-test packages of the
//     module and of bench/, type-checked with go/types under default tags
//     and under dlzfail (unconsumed says what counts), or is on the
//     allow-list with "test hook" or a ROADMAP item number as its reason.
//
// Usage: docscheck [-root .] FILE.md [FILE.md ...]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
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
	"test hook": {"fail.Arm", "fail.Disarm", "fail.Release", "fail.Reset", "fail.Hits", "fail.Fires", "fail.SetSeed",
		"cpq.Queue.LockForTest", "cpq.Queue.UnlockForTest", "cpq.TopWord.Seq"},
	"item 21, contended relaxation rows": {"core.MQHandle.EnqueueTraced", "core.MQHandle.DequeueTraced",
		"core.Handle.IncrementTraced", "core.Handle.ReadTraced", "trace.NewRecorder", "trace.Recorder.Merge",
		"trace.Recorder.Log"},
	"item 2, the daemon's history check": {"dlin.Witness.Tail", "dlin.Replay"},
	"item 17, the live potential and the head-gap figure": {"core.MultiCounter.Snapshot", "balance.NewSeqMultiQueue",
		"balance.SeqMultiQueue.Insert", "balance.SeqMultiQueue.DeleteTwoChoice", "balance.SeqMultiQueue.HeadGapRank"},
	"item 22, the paper table decides the explorers": {"balance.CompleteGraph", "balance.CycleGraph",
		"balance.HypercubeGraph", "balance.RandomRegularish", "balance.Graph.NumEdges", "balance.Result.MaxGamma",
		"balance.Result.MaxGap", "balance.Run", "balance.GoodStepProbs", "balance.OneBetaProbs",
		"balance.TwoChoiceProbs", "balance.WorstCaseProbs", "balance.Majorizes", "balance.StepDominates",
		"balance.DChoice.Name", "balance.OneBeta.Name", "balance.Corrupted.Name", "balance.Stale.Name",
		"balance.GraphChoice.Name", "rng.Xoshiro256.Exp", "sched.Run", "sched.NewUniform", "sched.RunQueue",
		"sched.RoundRobin.Name", "sched.Uniform.Name", "sched.BlockStampede.Name", "sched.SlowPoke.Name",
		"sched.sim.Steps", "sched.queueView.Steps", "stm.Array.MaxVersion", "stm.Array.ReadDirect",
		"stm.MCClock.Delta", "stm.NewFAAClock", "stm.NewMCClock", "stm.RunIncrement", "stm.Tx.RunReadOnly",
		"stm.FAAClock.Name", "stm.MCClock.Name"},
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
	problems, err := t.unconsumed(allow)
	if err != nil {
		return nil, err
	}
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
	root    string
	fset    *token.FileSet
	members map[string]map[string]bool // package or type → names declared in it; "" → all names
	spans   map[token.Pos][2]token.Pos // declaring identifier → its declaration's span
	dirs    map[string][]*ast.File     // directory → its non-test files, whatever their tags
}

// load parses every Go file under root, whatever its build tags.
func load(root string) (*tree, error) {
	t := &tree{root: root, fset: token.NewFileSet(), members: map[string]map[string]bool{},
		spans: map[token.Pos][2]token.Pos{}, dirs: map[string][]*ast.File{}}
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
		f, err := parser.ParseFile(t.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		t.add(f)
		if !strings.HasSuffix(path, "_test.go") {
			t.dirs[filepath.Dir(path)] = append(t.dirs[filepath.Dir(path)], f)
		}
		return nil
	})
}

// declare records id as declared in each owner and in "", and node as the
// span whose references to id are not uses of it.
func (t *tree) declare(id *ast.Ident, node ast.Node, owners ...string) {
	t.spans[id.Pos()] = [2]token.Pos{node.Pos(), node.End()}
	for _, o := range append(owners, "") {
		if t.members[o] == nil {
			t.members[o] = map[string]bool{}
		}
		t.members[o][id.Name] = true
	}
}

// add records f's declarations.
func (t *tree) add(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			owners := []string{pkg}
			if d.Recv != nil {
				owners = append(owners, strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"))
			}
			t.declare(d.Name, d, owners...)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					t.declare(s.Name, s, pkg)
					ast.Inspect(s.Type, func(n ast.Node) bool {
						if field, ok := n.(*ast.Field); ok {
							for _, id := range field.Names {
								t.declare(id, field, pkg, s.Name.Name)
							}
						}
						return true
					})
				case *ast.ValueSpec:
					for _, id := range s.Names {
						t.declare(id, s, pkg)
					}
				}
			}
		}
	}
}

// pass type-checks the tree's non-test files under one set of build tags. It
// is the importer of its own repro/... packages, which it checks from source;
// the standard library comes from go/importer.
type pass struct {
	*tree
	ctx  build.Context
	std  types.Importer
	pkgs map[string]*types.Package
	info *types.Info
}

// Import implements types.Importer.
func (p *pass) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return p.std.Import(path)
	}
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(p.root, strings.TrimPrefix(path, "repro"))
	var files []*ast.File
	for _, f := range p.dirs[dir] {
		if ok, err := p.ctx.MatchFile(dir, filepath.Base(p.fset.File(f.Pos()).Name())); err != nil {
			return nil, err
		} else if ok {
			files = append(files, f)
		}
	}
	pkg, err := (&types.Config{Importer: p}).Check(path, p.fset, files, p.info)
	p.pkgs[path] = pkg
	return pkg, err
}

// unconsumed applies the exports rule and checks the allow-list itself:
// every reason says why, and every name excuses an export that needs it. An
// export is consumed if, in either build, a reference outside its declaration
// resolves to it (or to the generic origin of its instance), or it is a
// method implementing an interface method that the code calls, error's and
// fmt.Stringer's included.
func (t *tree) unconsumed(allow map[string][]string) ([]string, error) {
	std := importer.Default()
	fmtPkg, err := std.Import("fmt")
	if err != nil {
		return nil, err
	}
	consumed := map[string]bool{}
	for _, tags := range [][]string{nil, {"dlzfail"}} {
		p := &pass{tree: t, ctx: build.Default, std: std, pkgs: map[string]*types.Package{},
			info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
		p.ctx.BuildTags = tags
		for dir := range t.dirs {
			rel, _ := filepath.Rel(t.root, dir)
			if _, err := p.Import(filepath.ToSlash(filepath.Join("repro", rel))); err != nil {
				return nil, err
			}
		}
		used := map[types.Object]bool{}
		called := map[string][]*types.Interface{
			"Error":  {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
			"String": {fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)},
		}
		for id, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called[f.Name()] = append(called[f.Name()], recv.Type().Underlying().(*types.Interface))
				}
			}
			if span, ok := t.spans[obj.Pos()]; !ok || id.Pos() < span[0] || id.Pos() >= span[1] {
				used[obj] = true
			}
		}
		for path, pkg := range p.pkgs {
			if path != "repro/dlzd" && !strings.HasPrefix(path, "repro/internal/") {
				continue
			}
			for _, name := range pkg.Scope().Names() {
				obj, key := pkg.Scope().Lookup(name), pkg.Name()+"."+name
				if obj.Exported() {
					consumed[key] = consumed[key] || used[obj]
				}
				if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
					for i, named := 0, tn.Type().(*types.Named); i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							consumed[key+"."+m.Name()] = consumed[key+"."+m.Name()] || used[m] ||
								slices.ContainsFunc(called[m.Name()], func(i *types.Interface) bool {
									return types.Implements(types.NewPointer(named), i)
								})
						}
					}
				}
			}
		}
	}
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
	for key, ok := range consumed {
		if !ok && listed[key] {
			delete(listed, key)
		} else if !ok {
			problems = append(problems, fmt.Sprintf("%s: exported, but no non-test file uses it", key))
		}
	}
	for k := range listed {
		problems = append(problems, fmt.Sprintf("allow-list entry %s names no unconsumed declaration", k))
	}
	sort.Strings(problems)
	return problems, nil
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
