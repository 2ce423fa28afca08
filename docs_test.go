package biglittle_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExistingCommands fails when a document tells the reader to use
// a command (cmd/<name>, go run ./cmd/<name>) that has no cmd/<name>
// directory, so deleting or renaming a command cannot leave stale
// instructions behind. CHANGES.md and ROADMAP.md are history, not
// instructions, and are not scanned.
func TestDocsNameExistingCommands(t *testing.T) {
	cmdRef := regexp.MustCompile(`\bcmd/([A-Za-z0-9_-]+)`)
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
	} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d names cmd/%s, which does not exist", doc, i+1, m[1])
				}
			}
		}
	}
}
