package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestDesignNamesExist keeps DESIGN.md's pointers into the tests alive:
// every Test…, Benchmark… or Fuzz… name it cites must begin the name of a
// function some Go test file in the tree declares (the benchmark/ module
// included), so a test renamed or deleted without its citation fails here
// instead of leaving the design document pointing at nothing. A prefix is
// enough because a citation may be a `go test -run` expression selecting
// several tests, and a subtest citation (Name/sub) checks its top-level
// name.
func TestDesignNamesExist(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var declared []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared = append(declared, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	missing := map[string]bool{}
	for _, name := range regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`).FindAllString(string(doc), -1) {
		if !slices.ContainsFunc(declared, func(d string) bool { return strings.HasPrefix(d, name) }) {
			missing[name] = true
		}
	}
	if len(missing) > 0 {
		names := make([]string, 0, len(missing))
		for name := range missing {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("DESIGN.md cites %d names no test file declares: %s", len(names), strings.Join(names, ", "))
	}
}
