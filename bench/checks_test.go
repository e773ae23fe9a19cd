package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleOut = `== table1: Technology ==
   a   b
x  1   2

== fig7: Execution time ==
  BaseCMOS
w 1.000
-- Normalised.

`

func TestSections(t *testing.T) {
	ids, by := sections("preamble\n" + sampleOut)
	if !reflect.DeepEqual(ids, []string{"table1", "fig7"}) {
		t.Fatalf("ids = %v", ids)
	}
	if want := "== table1: Technology ==\n   a   b\nx  1   2"; by["table1"] != want {
		t.Errorf("table1 section = %q, want %q", by["table1"], want)
	}
	if want := "== fig7: Execution time ==\n  BaseCMOS\nw 1.000\n-- Normalised."; by["fig7"] != want {
		t.Errorf("fig7 section = %q, want %q", by["fig7"], want)
	}
}

func TestHeaderID(t *testing.T) {
	for line, want := range map[string]string{
		"== fig7: Execution time of CPU designs ==": "fig7",
		"== traffic_policies: a: b ==":              "traffic_policies",
		"== no colon ==":                            "",
		"== two words: x ==":                        "",
		"  == fig7: indented ==":                    "",
		"-- fig7: note":                             "",
	} {
		got, ok := headerID(line)
		if got != want || ok != (want != "") {
			t.Errorf("headerID(%q) = %q, %v; want %q", line, got, ok, want)
		}
	}
}

func TestMatchReference(t *testing.T) {
	extra := sampleOut + "== soc: extension ==\nrow 1\n"
	if bad := matchReference(sampleOut, extra); len(bad) != 0 {
		t.Errorf("extra sections flagged: %v", bad)
	}
	changed := strings.Replace(sampleOut, "w 1.000", "w 1.001", 1)
	if bad := matchReference(sampleOut, changed); !reflect.DeepEqual(bad, []string{"fig7 differs"}) {
		t.Errorf("changed value: %v", bad)
	}
	missing := sampleOut[strings.Index(sampleOut, "== fig7"):]
	if bad := matchReference(sampleOut, missing); !reflect.DeepEqual(bad, []string{"table1 missing"}) {
		t.Errorf("missing section: %v", bad)
	}
	if bad := matchReference(sampleOut, strings.TrimRight(sampleOut, "\n")); len(bad) != 0 {
		t.Errorf("trailing blank lines matter: %v", bad)
	}
}

// The committed reference must name experiments in registry order, or
// the seed-1 check of paper-cold could never pass.
func TestReferenceFollowsRegistry(t *testing.T) {
	ref, err := os.ReadFile(filepath.Join("..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	refIDs, _ := sections(string(ref))
	if len(refIDs) == 0 {
		t.Fatal("results_full.txt has no sections")
	}
	next := 0
	for _, id := range experimentIDs() {
		if next < len(refIDs) && refIDs[next] == id {
			next++
		}
	}
	if next != len(refIDs) {
		t.Errorf("results_full.txt sections %v are not a subsequence of the registry %v", refIDs, experimentIDs())
	}
}

func TestCheckHeaders(t *testing.T) {
	if err := checkHeaders(sampleOut, []string{"table1", "fig7"}); err != nil {
		t.Error(err)
	}
	if err := checkHeaders(sampleOut, []string{"fig7", "table1"}); err == nil {
		t.Error("out-of-order headers passed")
	}
	if err := checkHeaders(sampleOut, []string{"table1", "fig7", "fig8"}); err == nil {
		t.Error("a missing header passed")
	}
}
