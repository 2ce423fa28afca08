package lab

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"biglittle/internal/core"
	"biglittle/internal/snapshot"
)

// schemaVersion invalidates every cached result when the blob layout or the
// fingerprint definition changes. Bump it alongside such changes.
const schemaVersion = "1"

// CodeVersion identifies the simulator build whose results populate the
// cache: a hash of the running executable's Go build ID, which the
// toolchain derives from every input of the build, so a binary built from
// different code — one changed line of scheduler logic, a dirty tree, an
// unstamped `go run` — keys its results apart, and the cache never serves a
// number another build computed. Each command is a build of its own, so
// each keeps its results in a version directory of its own (see Cache). An
// executable without a readable build ID is hashed whole instead. It is
// computed once per process, on first use (opening a disk cache or its
// prefix tier), and is "unknown" when the executable cannot be read; Open
// refuses to cache in that case.
func CodeVersion() string {
	b, err := runningBuild()
	if err != nil {
		return "unknown"
	}
	return b.version
}

// build names the running executable and its code version.
type build struct{ command, version string }

// runningBuild identifies the running executable once per process.
var runningBuild = sync.OnceValues(func() (build, error) {
	exe, err := os.Executable()
	if err != nil {
		return build{}, fmt.Errorf("lab: locate the running executable: %w", err)
	}
	h := sha256.New()
	if id := goBuildID(exe); id != nil {
		h.Write(id)
	} else {
		f, err := os.Open(exe)
		if err != nil {
			return build{}, fmt.Errorf("lab: read the running executable: %w", err)
		}
		defer f.Close()
		if _, err := io.Copy(h, f); err != nil {
			return build{}, fmt.Errorf("lab: hash the running executable: %w", err)
		}
	}
	return build{
		command: strings.TrimSuffix(filepath.Base(exe), ".exe"),
		version: hex.EncodeToString(h.Sum(nil))[:16],
	}, nil
})

// goBuildID returns the Go build ID note of the ELF executable at path, or
// nil when it has none (another object format, or a build that blanked it).
// debug/elf reads only the headers and the note, not the whole binary.
func goBuildID(path string) []byte {
	f, err := elf.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	sec := f.Section(".note.go.buildid")
	if sec == nil {
		return nil
	}
	note, err := sec.Data()
	if err != nil || len(note) < 16 {
		return nil
	}
	// A 16-byte header (name size, descriptor size, type, "Go\x00\x00"),
	// then the ID.
	if n := int(f.ByteOrder.Uint32(note[4:])); n > 0 && 16+n <= len(note) {
		return note[16 : 16+n]
	}
	return nil
}

// DefaultCacheDir is where results land when no -cache-dir is given:
// $XDG_CACHE_HOME/biglittle (or the OS equivalent of ~/.cache/biglittle).
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("lab: no user cache dir: %w", err)
	}
	return filepath.Join(base, "biglittle"), nil
}

// Cache is a content-addressed store of simulation results: one JSON blob
// per (fingerprint, command build), laid out as
//
//	<dir>/v<schema>-<command>-<code version>/<fp[:2]>/<fp>.json
//
// so every command (blreport, blsweep, ...) keeps its results under its own
// build's version directory. Opening a cache marks its directory as used;
// the maintenance methods (List, Versions, PruneStale, Invalidate) span every
// version directory, whichever command wrote it.
//
// Reads verify the stored fingerprint and silently treat any corrupt,
// truncated, or mismatched blob as a miss (deleting it), so a damaged cache
// degrades to re-simulation, never to a wrong result. Writes go through a
// temp file plus atomic rename, so concurrent writers of the same
// fingerprint are safe (they produce identical content).
type Cache struct {
	dir     string // root directory
	version string // v<schema>-<command>-<code version>; "" from Inspect
}

// Open returns a cache rooted at dir (""= DefaultCacheDir) that reads and
// writes the running command's version directory, creating it and marking
// it as the command's most recently used one.
func Open(dir string) (*Cache, error) {
	dir, err := resolveDir(dir)
	if err != nil {
		return nil, err
	}
	b, err := runningBuild()
	if err != nil {
		return nil, err
	}
	c := &Cache{dir: dir, version: "v" + schemaVersion + "-" + b.command + "-" + b.version}
	root := filepath.Join(dir, c.version)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("lab: create cache dir: %w", err)
	}
	now := time.Now()
	if err := os.Chtimes(root, now, now); err != nil {
		return nil, fmt.Errorf("lab: mark cache dir used: %w", err)
	}
	return c, nil
}

// Inspect returns the cache rooted at dir (""= DefaultCacheDir) for
// maintenance only: it has no version directory of its own, so Get and
// GetPrefix miss and Put and PutPrefix store nothing, while List,
// Versions, PruneStale and Invalidate work on every command's entries.
func Inspect(dir string) (*Cache, error) {
	dir, err := resolveDir(dir)
	if err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

func resolveDir(dir string) (string, error) {
	if dir != "" {
		return dir, nil
	}
	return DefaultCacheDir()
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Version returns the name of the version directory the cache reads and
// writes ("" from Inspect).
func (c *Cache) Version() string { return c.version }

// blob is the on-disk envelope around one cached result.
type blob struct {
	Fingerprint string      `json:"fingerprint"`
	App         string      `json:"app"`
	Salt        string      `json:"salt,omitempty"`
	SavedAt     time.Time   `json:"saved_at"`
	Result      core.Result `json:"result"`
}

func (c *Cache) path(fp string) string {
	return filepath.Join(c.dir, c.version, fp[:2], fp+".json")
}

// Get loads the result stored for fp, reporting whether a valid entry was
// found. Invalid entries are removed so the follow-up Put replaces them.
func (c *Cache) Get(fp string) (core.Result, bool) {
	if c == nil || c.version == "" {
		return core.Result{}, false
	}
	p := c.path(fp)
	data, err := os.ReadFile(p)
	if err != nil {
		return core.Result{}, false
	}
	var b blob
	if err := json.Unmarshal(data, &b); err != nil || b.Fingerprint != fp {
		os.Remove(p)
		return core.Result{}, false
	}
	return b.Result, true
}

// Put stores res under fp. A result that cannot be marshaled (NaN metrics,
// say) is not an error worth failing the experiment over; the caller treats
// a Put failure as "this run stays uncached".
func (c *Cache) Put(fp, app, salt string, res core.Result) error {
	if c == nil || c.version == "" {
		return nil
	}
	data, err := json.Marshal(blob{
		Fingerprint: fp,
		App:         app,
		Salt:        salt,
		SavedAt:     time.Now().UTC(),
		Result:      res,
	})
	if err != nil {
		return fmt.Errorf("lab: marshal result: %w", err)
	}
	p := c.path(fp)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), p)
}

// prefixPath is the prefix-tier layout: encoded snapshot blobs under
// <dir>/<version>/prefix/<key[:2]>/<key>.blsnap. The tier shares the
// version directory with results — a schema or code change invalidates
// warmed prefixes exactly like memoized results — but uses its own
// extension so List and the Versions entry counts see only results.
func (c *Cache) prefixPath(key string) string {
	return filepath.Join(c.dir, c.version, "prefix", key[:2], key+".blsnap")
}

// GetPrefix loads the encoded prefix snapshot stored under key, reporting
// whether a valid blob was found. The blob is validated by a full decode —
// the codec checksums and version-checks it — and corrupt or stale entries
// are removed so the follow-up PutPrefix replaces them.
func (c *Cache) GetPrefix(key string) ([]byte, bool) {
	if c == nil || c.version == "" {
		return nil, false
	}
	p := c.prefixPath(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	if _, err := snapshot.Decode(data); err != nil {
		os.Remove(p)
		return nil, false
	}
	return data, true
}

// PutPrefix stores an encoded prefix snapshot under key, with the same
// temp-file-plus-rename discipline as Put.
func (c *Cache) PutPrefix(key string, blob []byte) error {
	if c == nil || c.version == "" {
		return nil
	}
	p := c.prefixPath(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), p)
}

// Entry describes one cached result for inspection (bllab ls).
type Entry struct {
	Version     string
	Fingerprint string
	App         string
	Salt        string
	SizeB       int64
	SavedAt     time.Time
	path        string
}

// List returns every entry across all version directories, current or
// stale, sorted by version then app then fingerprint.
func (c *Cache) List() ([]Entry, error) {
	versions, err := c.versionDirs()
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, ver := range versions {
		root := filepath.Join(c.dir, ver)
		err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || filepath.Ext(p) != ".json" {
				return err
			}
			e := Entry{Version: ver, SizeB: info.Size(), SavedAt: info.ModTime(), path: p}
			if data, rerr := os.ReadFile(p); rerr == nil {
				var b blob
				if json.Unmarshal(data, &b) == nil {
					e.Fingerprint, e.App, e.Salt = b.Fingerprint, b.App, b.Salt
					if !b.SavedAt.IsZero() {
						e.SavedAt = b.SavedAt
					}
				}
			}
			if e.Fingerprint == "" {
				e.Fingerprint = filepath.Base(p[:len(p)-len(".json")])
			}
			out = append(out, e)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Version != out[j].Version {
			return out[i].Version < out[j].Version
		}
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out, nil
}

// VersionDir describes one version directory: whose results it holds,
// how many, and whether PruneStale would remove it.
type VersionDir struct {
	Name        string    // v<schema>-<command>-<code version>
	Command     string    // the command that writes it; "" for another schema or layout
	CodeVersion string    // that command's build
	LastUsed    time.Time // when a command last opened it
	Entries     int       // cached results
	Prefixes    int       // warmed prefix snapshots
	Bytes       int64     // results and prefixes
	// Stale marks a directory no current build reads: one from another
	// schema or layout, or one whose command has since opened a newer
	// directory — a rebuilt binary's, after a code change.
	Stale bool
}

// Versions describes every version directory, sorted by name.
func (c *Cache) Versions() ([]VersionDir, error) {
	names, err := c.versionDirs()
	if err != nil {
		return nil, err
	}
	out := make([]VersionDir, 0, len(names))
	newest := map[string]time.Time{}
	for _, name := range names {
		v := VersionDir{Name: name}
		root := filepath.Join(c.dir, name)
		info, err := os.Stat(root)
		if err != nil {
			return nil, err
		}
		v.LastUsed = info.ModTime()
		if rest, ok := strings.CutPrefix(name, "v"+schemaVersion+"-"); ok {
			if i := strings.LastIndexByte(rest, '-'); i > 0 {
				v.Command, v.CodeVersion = rest[:i], rest[i+1:]
			}
		}
		if v.Command != "" && v.LastUsed.After(newest[v.Command]) {
			newest[v.Command] = v.LastUsed
		}
		err = filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			switch filepath.Ext(p) {
			case ".json":
				v.Entries++
			case ".blsnap":
				v.Prefixes++
			default:
				return nil
			}
			v.Bytes += info.Size()
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	for i := range out {
		v := &out[i]
		v.Stale = v.Command == "" || v.LastUsed.Before(newest[v.Command])
	}
	return out, nil
}

// PruneStale removes every stale version directory (see VersionDir.Stale)
// and returns how many results went with them — the cleanup after a code
// change.
func (c *Cache) PruneStale() (int, error) {
	return c.remove(func(v VersionDir) bool { return v.Stale })
}

// Invalidate removes cached results from every version directory, whichever
// command wrote them — all of them along with the warmed prefixes, or only
// the named app's results — and returns how many results were deleted.
func (c *Cache) Invalidate(app string) (int, error) {
	if app == "" {
		return c.remove(func(VersionDir) bool { return true })
	}
	entries, err := c.List()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		if e.App == app && os.Remove(e.path) == nil {
			removed++
		}
	}
	return removed, nil
}

// remove deletes the version directories match selects and returns how
// many results they held.
func (c *Cache) remove(match func(VersionDir) bool) (int, error) {
	vs, err := c.Versions()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, v := range vs {
		if !match(v) {
			continue
		}
		if err := os.RemoveAll(filepath.Join(c.dir, v.Name)); err != nil {
			return removed, err
		}
		removed += v.Entries
	}
	return removed, nil
}

func (c *Cache) versionDirs() ([]string, error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, de := range des {
		if de.IsDir() && len(de.Name()) > 1 && de.Name()[0] == 'v' {
			out = append(out, de.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
