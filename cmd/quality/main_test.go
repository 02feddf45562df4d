package main

import (
	"strings"
	"testing"
)

// TestValidateModeFlags pins the mode/flag compatibility matrix: every
// mode-specific flag is rejected (with the offending flag named) when set in
// a mode that ignores it, shared flags pass everywhere, and unset flags
// never trip the check even though their mode-specific defaults exist.
func TestValidateModeFlags(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name    string
		mode    string
		set     map[string]bool
		wantErr string // "" = valid; otherwise a required substring
	}{
		{"counter defaults", "counter", set(), ""},
		{"queue defaults", "queue", set("queue"), ""},
		{"counter own flags", "counter", set("m", "incs", "samples", "choices", "stickiness", "batch", "csv", "seed"), ""},
		{"queue own flags", "queue", set("queue", "m", "ops", "choices", "stickiness", "batch", "csv", "seed"), ""},
		{"ops without -queue", "counter", set("ops"), "-ops"},
		{"incs with -queue", "queue", set("queue", "incs"), "-incs"},
		{"samples with -queue", "queue", set("queue", "samples"), "-samples"},
		// The retired -backing, -lockedtop and -affinity are in no mode's row:
		// flag.Parse rejects them as undefined, and so would this check.
		{"backing without a queue-backed mode", "counter", set("backing"), "-backing"},
		{"lockedtop without -queue", "counter", set("lockedtop"), "-lockedtop"},
		{"several bad queue flags listed", "counter", set("ops", "backing", "lockedtop", "affinity"), "-affinity -backing -lockedtop -ops"},
		{"several bad counter flags listed", "queue", set("queue", "samples", "incs"), "-incs -samples"},
		{"mixed good and bad", "counter", set("m", "choices", "ops"), "-ops"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateModeFlags(tc.mode, tc.set)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			mode := "counter mode"
			if tc.mode != "counter" {
				mode = "-" + tc.mode + " mode"
			}
			if !strings.Contains(err.Error(), mode) {
				t.Fatalf("error %q does not name the mode %q", err, mode)
			}
		})
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := newTable("Demo", "threads", "mops")
	tb.add(1, 2.5)
	tb.add(2, 4.25)
	var sb strings.Builder
	tb.writeMarkdown(&sb)
	out := sb.String()
	for _, want := range []string{"### Demo", "| threads | mops |", "| --- | --- |", "| 1 | 2.5 |", "| 2 | 4.25 |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := newTable("", "a", "b")
	tb.add("x", 1)
	var sb strings.Builder
	tb.writeCSV(&sb)
	if sb.String() != "a,b\nx,1\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := newTable("", "v")
	tb.add(3.14159265)
	if tb.rows[0][0] != "3.142" {
		t.Fatalf("float cell = %q", tb.rows[0][0])
	}
}
