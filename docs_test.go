package apan

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"apan/internal/core"
)

// mdLink matches inline Markdown links/images: [text](target). Reference
// definitions and autolinks are out of scope — the docs don't use them.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinks is the link check CI runs over README.md and docs/*.md:
// every relative link must point at a file or directory that exists in the
// repo (anchors are stripped; external schemes are skipped). It keeps the
// documentation suite from silently rotting as files move.
func TestDocLinks(t *testing.T) {
	var mds []string
	for _, pat := range []string{"*.md", "docs/*.md"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		mds = append(mds, m...)
	}
	if len(mds) < 3 { // README.md, docs/serving.md, docs/architecture.md at minimum
		t.Fatalf("expected at least 3 markdown files, found %v", mds)
	}
	for _, md := range mds {
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; checked by humans, not CI (offline)
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure fragment link within the same file
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", md, m[1], resolved)
			}
		}
	}
}

// serveFlag matches a flag definition in cmd/apan-serve/main.go.
var serveFlag = regexp.MustCompile(`flag\.\w+\("([a-z-]+)"`)

// knobRow matches a table row of docs/configuration.md that names a knob:
// its name in backticks in the first cell.
var knobRow = regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")

// TestConfigurationDocCoversEveryKnob holds docs/configuration.md to the
// code both ways: every core.Config field and every apan-serve flag must
// have a row (its name in backticks at the start of a table row), so adding
// a knob without saying when to turn it fails here — and every row must
// name a field or flag that still exists, so deleting a knob without its
// row fails too.
func TestConfigurationDocCoversEveryKnob(t *testing.T) {
	doc, err := os.ReadFile("docs/configuration.md")
	if err != nil {
		t.Fatal(err)
	}
	knobs := map[string]bool{}
	cfg := reflect.TypeOf(core.Config{})
	for i := 0; i < cfg.NumField(); i++ {
		knobs[cfg.Field(i).Name] = true
	}
	src, err := os.ReadFile("cmd/apan-serve/main.go")
	if err != nil {
		t.Fatal(err)
	}
	flags := serveFlag.FindAllStringSubmatch(string(src), -1)
	if len(flags) < 27 {
		t.Fatalf("found only %d flag definitions in cmd/apan-serve/main.go; the pattern no longer matches how they are written", len(flags))
	}
	for _, m := range flags {
		knobs["-"+m[1]] = true
	}

	rows := map[string]bool{}
	for _, m := range knobRow.FindAllStringSubmatch(string(doc), -1) {
		rows[m[1]] = true
		if !knobs[m[1]] {
			t.Errorf("docs/configuration.md has a row for %s, which is no core.Config field or apan-serve flag", m[1])
		}
	}
	for name := range knobs {
		if !rows[name] {
			kind := "core.Config field"
			if strings.HasPrefix(name, "-") {
				kind = "apan-serve flag"
			}
			t.Errorf("docs/configuration.md has no row for %s %s", kind, name)
		}
	}
}
