// Package harness provides the experiment plumbing shared by the cmd/ tools:
// thread-count sweeps and table emission in the formats EXPERIMENTS.md
// consumes.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// ThreadCounts returns the sweep 1, 2, 4, … up to and including max (max is
// appended if not already a power of two). The paper sweeps 1..24 hardware
// threads; on smaller machines the doubling sweep preserves the curve shape
// with fewer points.
func ThreadCounts(max int) []int {
	var out []int
	for t := 1; t <= max; t *= 2 {
		out = append(out, t)
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	sort.Ints(out)
	return out
}

// Table is an ordered grid of experiment output.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row; cells are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteMarkdown renders the table as GitHub-flavored markdown.
func (t *Table) WriteMarkdown(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as CSV (header row first).
func (t *Table) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}
