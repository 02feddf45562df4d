package harness

import (
	"strings"
	"testing"
)

func TestThreadCounts(t *testing.T) {
	cases := map[int][]int{
		1:  {1},
		2:  {1, 2},
		3:  {1, 2, 3},
		8:  {1, 2, 4, 8},
		24: {1, 2, 4, 8, 16, 24},
	}
	for max, want := range cases {
		got := ThreadCounts(max)
		if len(got) != len(want) {
			t.Fatalf("ThreadCounts(%d) = %v, want %v", max, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ThreadCounts(%d) = %v, want %v", max, got, want)
			}
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("Demo", "threads", "mops")
	tb.Add(1, 2.5)
	tb.Add(2, 4.25)
	var sb strings.Builder
	tb.WriteMarkdown(&sb)
	out := sb.String()
	for _, want := range []string{"### Demo", "| threads | mops |", "| --- | --- |", "| 1 | 2.5 |", "| 2 | 4.25 |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.Add("x", 1)
	var sb strings.Builder
	tb.WriteCSV(&sb)
	if sb.String() != "a,b\nx,1\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.Add(3.14159265)
	if tb.Rows[0][0] != "3.142" {
		t.Fatalf("float cell = %q", tb.Rows[0][0])
	}
}
