// Package configtest gives the tests of every package that parses a section
// of ompcloud.conf the same file to check themselves against: the example
// file with its optional lines switched on.
package configtest

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"ompcloud/internal/config"
)

// commentedOut matches an example line that is a setting or a section
// header behind one or more "# " markers ("# # weight = 4" sits in a block
// that is itself commented out); prose comments do not look like either.
var commentedOut = regexp.MustCompile(`(?m)^(?:# )+(\[[^\]]+\]|[a-z][a-z0-9.-]* = \S.*)$`)

// Example parses the repository's ompcloud.conf.example, found at path from
// the test's package directory, with every "# key = value" and "# [section]"
// line uncommented, so the file holds each key any parser knows.
func Example(t testing.TB, path string) *config.File {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := config.Parse(strings.NewReader(commentedOut.ReplaceAllString(string(text), "$1")))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// Complete fails the test unless r — a reader some parser has just been run
// through over Example's file — found no bad value and no key it does not
// know, and the file holds every key the parser asked for.
func Complete(t testing.TB, f *config.File, r *config.Reader) {
	t.Helper()
	if err := r.Done(); err != nil {
		t.Errorf("the example file does not parse: %v", err)
	}
	present := make(map[string]bool)
	for _, sec := range f.Sections() {
		for _, k := range f.Keys(sec) {
			present[sec+"."+k] = true
		}
	}
	for _, k := range r.Asked() {
		if !present[k] {
			t.Errorf("the parser reads %s, which ompcloud.conf.example does not list", k)
		}
	}
}
