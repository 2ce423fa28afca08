package lab

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// completionLine is the line of scheduler logic the regression edits: the
// completion time dispatch programs for a core's head task. Changing its
// "+ 1" to "+ 200000" moves bbench's numbers, so a cache keyed on anything
// but the code would serve the old ones.
const completionLine = "at := now + event.Time(head.remaining/r) + 1\n"

// createTestModuleInTempDir copies this module's buildable sources (go.mod
// and every non-test Go file outside nested modules and testdata) into a
// fresh temporary directory, passing each file's content through edit, and
// returns the copy's root.
func createTestModuleInTempDir(t *testing.T, edit func(rel string, src []byte) []byte) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if edit != nil {
			src = edit(rel, src)
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, src, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// buildCmd builds the named command from the module at dir into dir/bin
// and returns the binary's path.
func buildCmd(t *testing.T, goTool, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, "bin", name)
	build := exec.Command(goTool, "build", "-trimpath", "-buildvcs=false", "-o", bin, "./cmd/"+name)
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

// runCmd runs bin with args and returns its stdout and stderr.
func runCmd(t *testing.T, bin string, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// versionDirs lists the version directories under cacheDir.
func versionDirs(t *testing.T, cacheDir string) []string {
	t.Helper()
	des, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		out = append(out, de.Name())
	}
	return out
}

// TestCodeVersionTracksCode builds blsweep from a copy of this module three
// times: as is, after changing a single line of scheduler logic, and after
// reverting the change, and runs one bbench point of a sweep with each
// against one cache. The edited build must keep its result in a version
// directory of its own, and the reverted build must find the first build's
// result again: the version tracks the code, not the build. bllab, a
// different build from the same tree, then sees every command's
// directories: stat names the superseded one stale, prune removes it, and
// invalidate -app empties the cache blsweep filled, so the next sweep
// simulates again.
func TestCodeVersionTracksCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds blsweep and bllab from a module copy")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	var orig []byte
	mod := createTestModuleInTempDir(t, func(rel string, src []byte) []byte {
		if rel == filepath.Join("internal", "sched", "sched.go") {
			orig = src
		}
		return src
	})
	if bytes.Count(orig, []byte(completionLine)) != 1 {
		t.Fatalf("internal/sched/sched.go no longer holds exactly one %q", completionLine)
	}
	sched := filepath.Join(mod, "internal", "sched", "sched.go")
	write := func(src []byte) {
		if err := os.WriteFile(sched, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cacheDir := t.TempDir()
	sweep := func() (csv, stats string) {
		bin := buildCmd(t, goTool, mod, "blsweep")
		return runCmd(t, bin, "-cache-dir", cacheDir, "-app", "bbench",
			"-param", "sample-ms", "-values", "20", "-duration", "1s", "-workers", "1")
	}
	const simulated = "0 cache hits (0 in-process), 1 misses, 1 simulated"
	const hit = "1 cache hits (0 in-process), 0 misses, 0 simulated"

	baseCSV, stats := sweep()
	if !strings.Contains(stats, simulated) {
		t.Fatalf("first sweep into an empty cache: %s", stats)
	}
	base := versionDirs(t, cacheDir)
	if len(base) != 1 || !strings.HasPrefix(base[0], "v"+schemaVersion+"-blsweep-") {
		t.Fatalf("version dirs %v, want one v%s-blsweep-<code version>", base, schemaVersion)
	}
	time.Sleep(10 * time.Millisecond) // distinct last-used times, however coarse the clock

	write(bytes.Replace(orig, []byte(completionLine), []byte(strings.Replace(completionLine, "+ 1\n", "+ 200000\n", 1)), 1))
	changedCSV, stats := sweep()
	if !strings.Contains(stats, simulated) {
		t.Fatalf("a one-line change to dispatch reused the cached result: %s", stats)
	}
	if changedCSV == baseCSV {
		t.Fatalf("the edited dispatch left the sweep unchanged:\n%s", baseCSV)
	}
	both := versionDirs(t, cacheDir)
	if len(both) != 2 {
		t.Fatalf("version dirs %v, want the first build's and the edited build's", both)
	}
	time.Sleep(10 * time.Millisecond)

	write(orig)
	revertedCSV, stats := sweep()
	if !strings.Contains(stats, hit) || revertedCSV != baseCSV {
		t.Fatalf("rebuilding the unchanged code did not reuse the first build's result: %s", stats)
	}
	if got := versionDirs(t, cacheDir); len(got) != 2 {
		t.Fatalf("version dirs %v after rebuilding the unchanged code, want %v", got, both)
	}

	bllab := buildCmd(t, goTool, mod, "bllab")
	out, _ := runCmd(t, bllab, "-cache-dir", cacheDir, "stat")
	for _, want := range []string{base[0], "current entries: 1\n", "stale entries:   1 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("bllab stat does not show %q:\n%s", want, out)
		}
	}
	if out, _ := runCmd(t, bllab, "-cache-dir", cacheDir, "prune"); out != "pruned 1 stale entries\n" {
		t.Fatalf("bllab prune: %q", out)
	}
	if got := versionDirs(t, cacheDir); len(got) != 1 || got[0] != base[0] {
		t.Fatalf("version dirs %v after prune, want %v", got, base)
	}
	if out, _ := runCmd(t, bllab, "-cache-dir", cacheDir, "invalidate", "-app", "bbench"); out != "invalidated 1 entries\n" {
		t.Fatalf("bllab invalidate -app bbench: %q", out)
	}
	if out, _ := runCmd(t, bllab, "-cache-dir", cacheDir, "ls"); !strings.HasSuffix(out, "0 entries\n") {
		t.Fatalf("bllab ls after invalidate:\n%s", out)
	}
	if _, stats := sweep(); !strings.Contains(stats, simulated) {
		t.Fatalf("sweep after bllab invalidate -app bbench: %s", stats)
	}
}

// The build ID is read from the executable's ELF note; anything without
// one falls back to hashing the whole file.
func TestGoBuildID(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" {
		id := goBuildID(exe)
		if len(id) == 0 || !bytes.Contains(id, []byte("/")) {
			t.Fatalf("test binary build ID %q, want an action/content ID pair", id)
		}
	}
	notELF := filepath.Join(t.TempDir(), "script")
	if err := os.WriteFile(notELF, []byte("#!/bin/sh\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	if id := goBuildID(notELF); id != nil {
		t.Fatalf("non-ELF file build ID %q, want none", id)
	}
}
