package apan

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// ciSelector matches a -run, -bench or -fuzz argument of a go test
	// command in the workflow: a word of its own (not the tail of
	// ./cmd/apan-bench) that ends where the pattern's separator begins (not
	// -benchtime, -benchmem or -fuzztime).
	ciSelector = regexp.MustCompile(`\s-(run|bench|fuzz)[ =]+(?:'([^']*)'|"([^"]*)"|(\S+))`)
	// testFunc matches a top-level test, benchmark or fuzz function.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestCIPatternsNameExistingTests parses .github/workflows/ci.yml and fails
// when an alternative of any -run/-bench/-fuzz pattern matches no test,
// benchmark or fuzz function in the tree. go test treats a pattern that
// matches nothing as success, so a step naming a deleted or renamed test
// would otherwise keep passing while checking nothing.
func TestCIPatternsNameExistingTests(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	prefix := map[string]string{"run": "Test", "bench": "Benchmark", "fuzz": "Fuzz"}
	selectors := ciSelector.FindAllStringSubmatch(string(yml), -1)
	if len(selectors) < 10 {
		t.Fatalf("found only %d -run/-bench/-fuzz arguments in ci.yml; the pattern no longer matches how they are written", len(selectors))
	}
	for _, m := range selectors {
		kind, pattern := m[1], m[2]+m[3]+m[4]
		if pattern == "^$" {
			continue // "run no tests", beside a -bench or -fuzz
		}
		for _, alt := range strings.Split(pattern, "|") {
			// Only the top-level name is checked: sub-test names are data.
			top, _, _ := strings.Cut(alt, "/")
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("ci.yml: -%s %q: %v", kind, pattern, err)
				continue
			}
			found := false
			for _, f := range funcs {
				if strings.HasPrefix(f, prefix[kind]) && re.MatchString(f) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml: -%s alternative %q matches no func %s… in the tree", kind, alt, prefix[kind])
			}
		}
	}
}
