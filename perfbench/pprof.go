package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile of a traced repetition is folded into per-module CPU
// seconds without the external pprof library: runtime/pprof writes a
// gzipped profile.proto message, and only four of its fields matter here —
// samples (location ids + values), locations (lines -> function ids),
// functions (name string index) and the string table.

// profStack is one sample: its CPU nanoseconds and its frames' function
// names, leaf first (inlined frames expanded innermost first).
type profStack struct {
	ns     int64
	frames []string
}

// parseProfile decodes a runtime/pprof CPU profile into stacks.
func parseProfile(data []byte) ([]profStack, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("profile: sample without a cpu/nanoseconds value")
		}
		st := profStack{ns: s.vals[1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := ""
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				st.frames = append(st.frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walkFields iterates the fields of one protobuf message. fn receives the
// field number, the wire type, the varint value (wire type 0) or the
// payload (wire type 2).
func walkFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length-delimited field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value (wire type 0) or a packed run (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// gcFuncs are the runtime functions whose self time is allocation or
// garbage collection: malloc and its entry points, the mark/sweep/scavenge
// workers, write barriers and the zeroing of fresh spans.
var gcFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.markroot", "runtime.scanobject", "runtime.scanstack", "runtime.greyobject", "runtime.bgsweep",
	"runtime.sweepone", "runtime.bgscavenge", "runtime.memclrNoHeapPointers",
	"runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan)", "runtime.heapSetType",
	"runtime.findObject", "runtime.(*gcBits)", "runtime.deductAssistCredit",
}

// libraryPrefixes are standard-library packages whose self time belongs to
// the code that called them: a sort inside sched is sched's time, a SHA-256
// inside lab.Fingerprint is lab's.
var libraryPrefixes = []string{
	"runtime.", "internal/", "sort.", "slices.", "maps.", "math", "strconv.", "strings.",
	"bytes.", "unicode", "sync", "fmt.", "reflect.", "io.", "io/", "os.", "bufio.", "time.",
	"crypto/", "hash", "encoding/hex", "encoding/binary", "compress/", "context.",
	"errors.", "container/", "syscall.", "net.", "net/", "path", "log",
}

const bigPrefix = "biglittle/internal/"

// foldStack names the bucket a sample's CPU time is charged to:
//
//   - "gc" when the sample sits in allocation or collection (the leading
//     runtime frames include a gcFuncs entry, or the goroutine is a GC
//     worker);
//   - "json" when the nearest non-library frame is encoding/json;
//   - the module name m when it is biglittle/internal/m;
//   - "fleet" for network-stack frames with no biglittle caller — the only
//     HTTP served or sent by the benchmark process is the fleet protocol;
//   - "other" for everything else (scheduler idle, the benchmark's own
//     code, syscalls with no module caller).
func foldStack(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") {
			break
		}
		if isGC(f) {
			return "gc"
		}
	}
	sawNet := false
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "encoding/json."):
			return "json"
		case strings.HasPrefix(f, bigPrefix):
			rest := f[len(bigPrefix):]
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
			return rest
		case strings.HasPrefix(f, "net/http.") || strings.HasPrefix(f, "net."):
			sawNet = true
		}
		if !isLibrary(f) {
			break
		}
	}
	if n := len(frames); n > 0 && isGC(frames[n-1]) {
		return "gc"
	}
	if sawNet {
		return "fleet"
	}
	return "other"
}

func isGC(f string) bool {
	for _, p := range gcFuncs {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

func isLibrary(f string) bool {
	for _, p := range libraryPrefixes {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// foldProfile sums a profile's CPU seconds per bucket.
func foldProfile(stacks []profStack) map[string]float64 {
	out := map[string]float64{}
	for _, s := range stacks {
		out[foldStack(s.frames)] += float64(s.ns) / 1e9
	}
	return out
}
