package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a clean tree: every export in internal/ has a non-test
// consumer or an allow-list entry, and every backticked name declares
// something.
var fixture = map[string]string{
	"internal/cpq/cpq.go": `package cpq

type Queue struct{ Len int }

func (q *Queue) TryAddBatch() {}

func LockForTest() {}
`,
	"cmd/tool/main.go": `package main

import "repro/internal/cpq"

func main() {
	var q cpq.Queue
	q.TryAddBatch()
	_ = q.Len
}
`,
	"DESIGN.md": "`internal/cpq` holds `cpq.Queue`, whose `Queue.Len` and `TryAddBatch` " +
		"show in `cpq.Queue.TryAddBatch()`; `DLZSNAP4` and `core.mq_allocs_per_op` are no identifiers.\n",
	"EXPERIMENTS.md": "A dated log may name what is gone: `Timestamps`, `cpq.Invalidate`.\n",
}

var fixtureAllow = map[string][]string{"test hook": {"cpq.LockForTest"}}

func runCheck(t *testing.T, files map[string]string, allow map[string][]string) []string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	problems, err := check(root, []string{filepath.Join(root, "DESIGN.md"), filepath.Join(root, "EXPERIMENTS.md")}, allow)
	if err != nil {
		t.Fatal(err)
	}
	return problems
}

func TestCleanFixturePasses(t *testing.T) {
	if problems := runCheck(t, fixture, fixtureAllow); len(problems) != 0 {
		t.Fatalf("clean fixture: %q", problems)
	}
}

// TestPlantedDefectsFail runs the fixture with one change each: want is the
// one problem expected, or "" for a change the rules must accept.
func TestPlantedDefectsFail(t *testing.T) {
	for _, c := range []struct {
		name  string
		files map[string]string
		allow map[string][]string
		want  string
	}{
		{
			name: "unused exported function, called only from a test",
			files: map[string]string{
				"internal/cpq/dead.go":      "package cpq\n\nfunc Dead() {}\n",
				"internal/cpq/dead_test.go": "package cpq\n\nfunc init() { Dead() }\n",
			},
			want: "cpq.Dead: exported, but no non-test file uses it",
		},
		{
			name:  "function used only inside its own declaration",
			files: map[string]string{"internal/cpq/self.go": "package cpq\n\nfunc Self(n int) int {\n\tif n > 0 {\n\t\treturn Self(n - 1)\n\t}\n\treturn 0\n}\n"},
			want:  "cpq.Self: exported, but no non-test file uses it",
		},
		{
			name: "method called only from a test, its name used by another package",
			files: map[string]string{
				"internal/cpq/closed.go":      "package cpq\n\nfunc (q *Queue) Closed() bool { return false }\n",
				"internal/cpq/closed_test.go": "package cpq\n\nfunc init() { _ = new(Queue).Closed() }\n",
				"cmd/other/main.go":           "package main\n\ntype resp struct{ Closed bool }\n\nfunc main() { _ = resp{}.Closed }\n",
			},
			want: "cpq.Queue.Closed: exported, but no non-test file uses it",
		},
		{
			name: "method reached only through an interface value",
			files: map[string]string{
				"internal/cpq/shape.go": "package cpq\n\ntype Shape interface{ Area() int }\n\ntype Square struct{}\n\nfunc (Square) Area() int { return 1 }\n",
				"cmd/other/main.go":     "package main\n\nimport \"repro/internal/cpq\"\n\nfunc main() { var s cpq.Shape = cpq.Square{}; _ = s.Area() }\n",
			},
		},
		{
			name: "method of a generic type, called on an instance",
			files: map[string]string{
				"internal/cpq/box.go": "package cpq\n\ntype Box[T any] struct{ v T }\n\nfunc (b Box[T]) Get() T { return b.v }\n",
				"cmd/other/main.go":   "package main\n\nimport \"repro/internal/cpq\"\n\nfunc main() { _ = cpq.Box[int]{}.Get() }\n",
			},
		},
		{
			name: "function used only in a dlzfail file",
			files: map[string]string{
				"internal/cpq/hook.go": "package cpq\n\nfunc Hook() {}\n",
				"cmd/tool/fail.go":     "//go:build dlzfail\n\npackage main\n\nimport \"repro/internal/cpq\"\n\nfunc init() { cpq.Hook() }\n",
			},
		},
		{
			name:  "bare name of removed code",
			files: map[string]string{"DESIGN.md": fixture["DESIGN.md"] + "The `Timestamps` wrapper.\n"},
			want:  `identifier "Timestamps" declares nothing`,
		},
		{
			name:  "qualified name of removed code",
			files: map[string]string{"DESIGN.md": fixture["DESIGN.md"] + "Removal was `cpq.Invalidate`.\n"},
			want:  `identifier "cpq.Invalidate" declares nothing`,
		},
		{
			name:  "missing path",
			files: map[string]string{"DESIGN.md": fixture["DESIGN.md"] + "See `internal/mempool`.\n"},
			want:  `reference "internal/mempool" does not exist`,
		},
		{
			name:  "allow-list reason with no test hook and no item number",
			allow: map[string][]string{"kept for later": {"cpq.LockForTest"}},
			want:  `allow-list reason "kept for later" is neither`,
		},
		{
			name:  "allow-list entry for a consumed name",
			allow: map[string][]string{"test hook": {"cpq.LockForTest", "cpq.Queue.TryAddBatch"}},
			want:  "allow-list entry cpq.Queue.TryAddBatch names no unconsumed declaration",
		},
	} {
		files := map[string]string{}
		for name, body := range fixture {
			files[name] = body
		}
		for name, body := range c.files {
			files[name] = body
		}
		allow := c.allow
		if allow == nil {
			allow = fixtureAllow
		}
		problems := runCheck(t, files, allow)
		if c.want == "" && len(problems) != 0 {
			t.Errorf("%s: problems %q, want none", c.name, problems)
		} else if c.want != "" && (len(problems) != 1 || !strings.Contains(problems[0], c.want)) {
			t.Errorf("%s: problems %q, want one containing %q", c.name, problems, c.want)
		}
	}
}
