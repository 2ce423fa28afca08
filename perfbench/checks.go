package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"biglittle/internal/core"
	"biglittle/internal/lab"
)

// checker collects output-check failures; each counts as one failed
// operation in the result.
type checker struct{ failures []string }

func (c *checker) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.failures = append(c.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// reportHeaders is the number of "===== title =====" section headers in
// the full report.
const reportHeaders = 19

// checkOutputs compares every fill's and repetition's output with the
// first repetition's (runs of one seed must agree byte for byte, warm with
// cold), the first with the reference output when there is one, and the
// lab counters with what each workload must do.
func (b *bench) checkOutputs(want []byte, fills, reps []repOut) {
	first := readOut(reps[0].Out)
	if len(first) == 0 {
		b.checks.fail("rep 0 produced no output")
		return
	}
	if want != nil && !bytes.Equal(first, want) {
		b.checks.fail("output differs from the reference: %s", firstDiff(want, first))
	}
	if strings.HasPrefix(b.workload, "report-") {
		if n := bytes.Count(first, []byte("\n===== ")); n != reportHeaders {
			b.checks.fail("report has %d section headers, want %d", n, reportHeaders)
		}
	}
	for _, r := range append(append([]repOut(nil), fills...), reps[1:]...) {
		if got := readOut(r.Out); !bytes.Equal(got, first) {
			b.checks.fail("%s output differs from rep 0: %s", r.Role, firstDiff(first, got))
		}
	}
	for i, r := range append(append([]repOut(nil), fills...), reps...) {
		c := r.Counts
		if c["lab.failures"] != 0 || c["lab.remote_errors"] != 0 {
			b.checks.fail("%s %d: %d failed jobs, %d remote errors", r.Role, i, c["lab.failures"], c["lab.remote_errors"])
		}
		if done := c["lab.hits"] + c["lab.simulated"] + c["lab.remote"]; done != c["lab.jobs"] {
			b.checks.fail("%s %d: %d jobs but %d hits + simulated + remote", r.Role, i, c["lab.jobs"], done)
		}
		if r.Role != "rep" {
			continue
		}
		switch b.workload {
		case "report-warm":
			if c["lab.simulated"] != 0 || c["lab.hits"] != c["lab.jobs"] {
				b.checks.fail("warm rep simulated %d jobs (%d hits of %d), want 0 simulated", c["lab.simulated"], c["lab.hits"], c["lab.jobs"])
			}
		case "sweep-fork":
			n := int64(len(sweepValues) * 12)
			if c["lab.forks"] != n || c["lab.prefix_misses"] != 12 || c["lab.prefix_hits"] != n-12 {
				b.checks.fail("fork: %d continuations: %d prefixes simulated, %d reused; want %d: 12 simulated, %d reused",
					c["lab.forks"], c["lab.prefix_misses"], c["lab.prefix_hits"], n, n-12)
			}
		case "sweep-fleet":
			if c["lab.remote"] != c["lab.jobs"] {
				b.checks.fail("fleet ran %d of %d jobs", c["lab.remote"], c["lab.jobs"])
			}
		}
	}
}

// checkCounts requires the exact counters to repeat across repetitions of
// one seed: lab and fleet counts on every repetition, and the traced
// event rate and distinct-job share on every traced one. A mismatch is a
// failure, not noise.
func (b *bench) checkCounts(fills, reps []repOut) {
	for _, r := range reps[1:] {
		for k, v := range reps[0].Counts {
			if r.Counts[k] != v {
				b.checks.fail("count %s: %d on rep 0, %d on a later rep", k, v, r.Counts[k])
			}
		}
	}
	sameExact := func(rs []repOut, keys ...string) {
		var ref map[string]float64
		for _, r := range rs {
			if !r.Traced {
				continue
			}
			if ref == nil {
				ref = r.Exact
				continue
			}
			for _, k := range keys {
				if r.Exact[k] != ref[k] {
					b.checks.fail("%s: %v then %v on a later %s", k, ref[k], r.Exact[k], r.Role)
				}
			}
		}
	}
	sameExact(reps, "event.fired_per_sim_s", "lab.unique_ratio")
	// Concurrent duplicates may both miss while a cache fills, so only the
	// distinct-job share must repeat across fills.
	sameExact(fills, "lab.unique_ratio")
}

// oracle checks a sweep against an independent computation in this
// process. sweep-fork: each app's forked continuation at the default
// sample-ms must equal a from-scratch run of the fork base. sweep-fleet:
// the CSV must equal the same sweep run in-process.
func (b *bench) oracle(outPath string) error {
	got := readOut(outPath)
	runner := &lab.Runner{Workers: runtime.GOMAXPROCS(0)}
	switch b.workload {
	case "sweep-fork":
		var bases []core.Config
		jobs := sweepJobs(b.seed, forkDuration, true)
		for i := 0; i < len(jobs); i += len(sweepValues) {
			bases = append(bases, jobs[i].Fork.Base)
		}
		results, err := runner.RunConfigs(bases)
		if err != nil {
			return err
		}
		lines := strings.SplitAfter(string(got), "\n")
		di := sort.SearchInts(sweepValues, defaultSampleMs)
		for i, r := range results {
			want := sweepRow(r, defaultSampleMs)
			if n := 1 + i*len(sweepValues) + di; n >= len(lines) || lines[n] != want {
				b.checks.fail("forked %s at the default sample-ms differs from a from-scratch run: want %q", r.App, want)
			}
		}
	case "sweep-fleet":
		results, err := runner.RunAll(sweepJobs(b.seed, fleetDuration, false))
		if err != nil {
			return err
		}
		if want := sweepCSV(results); !bytes.Equal(got, want) {
			b.checks.fail("fleet sweep differs from the in-process sweep: %s", firstDiff(want, got))
		}
	}
	return nil
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	return "identical"
}
