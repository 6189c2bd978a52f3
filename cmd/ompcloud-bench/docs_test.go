package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A documented invocation: the tool's name and the run of flags and bare
	// values after it, up to the first character a command line would not
	// hold (a backtick, a comment, a closing parenthesis, prose punctuation).
	invocationRE = regexp.MustCompile(`ompcloud-bench((?:[ \t]+[A-Za-z0-9_.,/=-]+)+)`)
	artifactRE   = regexp.MustCompile(`BENCH_[a-z]+\.json`)
	figureRE     = regexp.MustCompile(`figures/[A-Za-z0-9_-]+\.[a-z]+`)
)

// TestDocsNameLiveFlagsAndFiles holds the three documents that tell a reader
// how to regenerate a number to what exists: every flag they pass to
// ompcloud-bench is one newFlagSet declares, and every BENCH_*.json and
// figures/* file they name is in the tree.
func TestDocsNameLiveFlagsAndFiles(t *testing.T) {
	root := filepath.Join("..", "..")
	fs, _ := newFlagSet()
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			for _, m := range invocationRE.FindAllStringSubmatch(line, -1) {
				for _, arg := range strings.Fields(m[1]) {
					name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
					if strings.HasPrefix(arg, "-") && fs.Lookup(name) == nil {
						t.Errorf("%s:%d: ompcloud-bench has no flag %s", doc, n+1, arg)
					}
				}
			}
			files := append(artifactRE.FindAllString(line, -1), figureRE.FindAllString(line, -1)...)
			for _, name := range files {
				if _, err := os.Stat(filepath.Join(root, name)); err != nil {
					t.Errorf("%s:%d: names %s, which is not in the tree", doc, n+1, name)
				}
			}
		}
	}
}
