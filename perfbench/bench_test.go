package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"biglittle/internal/event"
	"biglittle/internal/lab"
)

// A corrupted reference output must be counted as a failed operation, so
// the result reads correct=false instead of passing silently.
func TestCorruptedReferenceCountsAsFailure(t *testing.T) {
	dir := t.TempDir()
	report := strings.Repeat("\n===== section =====\n\nbig cores win\n", reportHeaders)
	out := filepath.Join(dir, "out-rep-0.txt")
	if err := os.WriteFile(out, []byte(report), 0o644); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{"lab.jobs": 740, "lab.hits": 740}
	reps := []repOut{{Role: "rep", Out: out, Counts: counts}, {Role: "rep", Out: out, Counts: counts}}

	clean := &bench{workload: "report-cold", checks: &checker{}}
	clean.checkOutputs([]byte(report), nil, reps)
	if _, failed := clean.tally(nil, reps); failed != 0 {
		t.Fatalf("intact reference: %d failures %q, want 0", failed, clean.checks.failures)
	}

	corrupt := &bench{workload: "report-cold", checks: &checker{}}
	corrupt.checkOutputs([]byte(strings.Replace(report, "big", "bug", 1)), nil, reps)
	attempted, failed := corrupt.tally(nil, reps)
	if failed != 1 || attempted != 1480 {
		t.Fatalf("corrupted reference: attempted %d failed %d (%q), want 1480 and 1", attempted, failed, corrupt.checks.failures)
	}
	if !strings.Contains(corrupt.checks.failures[0], `line 4: want "bug cores win"`) {
		t.Errorf("failure does not name the first differing line: %q", corrupt.checks.failures[0])
	}
}

// Counters that differ between repetitions of one seed are failures.
func TestCountMismatchIsAFailure(t *testing.T) {
	b := &bench{workload: "sweep-fork", checks: &checker{}}
	reps := []repOut{
		{Role: "rep", Traced: true, Counts: map[string]int64{"lab.jobs": 144}, Exact: map[string]float64{"event.fired_per_sim_s": 1611.25}},
		{Role: "rep", Traced: true, Counts: map[string]int64{"lab.jobs": 144}, Exact: map[string]float64{"event.fired_per_sim_s": 1611.26}},
		{Role: "rep", Counts: map[string]int64{"lab.jobs": 143}},
	}
	b.checkCounts(nil, reps)
	if len(b.checks.failures) != 2 {
		t.Fatalf("got failures %q, want the jobs count and the event rate", b.checks.failures)
	}
}

func TestFoldStack(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"biglittle/internal/event.(*Engine).Run", "biglittle/internal/core.Run"}, "event"},
		{[]string{"sort.insertionSort", "biglittle/internal/sched.(*System).balance"}, "sched"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "runtime.newobject", "biglittle/internal/pelt.New"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"reflect.Value.Field", "encoding/json.(*encodeState).marshal", "biglittle/internal/lab.Fingerprint"}, "json"},
		{[]string{"crypto/sha256.block", "biglittle/internal/lab.Fingerprint"}, "lab"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*conn).serve"}, "fleet"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"main.(*shim).Execute", "biglittle/internal/lab.(*Runner).runOne"}, "other"},
	}
	for _, c := range cases {
		if got := foldStack(c.frames); got != c.want {
			t.Errorf("foldStack(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// parseProfile reads what runtime/pprof writes: the spinning function
// must appear in the stacks holding most of the profiled time.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.ns
		if slices.ContainsFunc(s.frames, func(f string) bool { return strings.HasSuffix(f, ".spin") }) {
			inSpin += s.ns
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("spin holds %d of %d profiled ns in %d stacks", inSpin, total, len(stacks))
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("workloads %v, benchmark runs %v", names, workloads)
	}
	res := &result{Metrics: map[string]metric{}}
	endToEnd(res, []float64{1}, []repOut{{WallS: 1, Counts: map[string]int64{"lab.jobs": 1}}})
	if len(spec.EndToEnd) != len(res.Metrics) {
		t.Errorf("%d end-to-end metrics listed, %d printed", len(spec.EndToEnd), len(res.Metrics))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	layer := perLayer()
	if len(layer) != len(spec.PerLayer) {
		t.Fatalf("%d per-layer metrics listed, %d printed", len(spec.PerLayer), len(layer))
	}
	for i, m := range spec.PerLayer {
		if l := layer[i]; l.name != m.Name || l.unit != m.Unit || l.better != m.Better {
			t.Errorf("per-layer %d: listed %+v, printed %+v", i, m, l)
		}
	}
}

// The shim runs jobs from every runner worker at once; its results must be
// the runner's own, and it must count each job once.
func TestShimMatchesRunner(t *testing.T) {
	jobs := sweepJobs(1, 2*event.Second, false)[:24]
	want, err := (&lab.Runner{Workers: 4}).RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shim{tr: newTracer()}
	r := &lab.Runner{Workers: 4, Remote: sh}
	got, err := r.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sweepCSV(got), sweepCSV(want)) {
		t.Fatal("results through the shim differ from the runner's")
	}
	fired, simNs := sh.tally()
	if sh.executed != 24 || len(sh.fps) != 24 || fired == 0 || simNs != 24*int64(2*event.Second) {
		t.Fatalf("shim counted %d runs, %d fingerprints, %d events over %d ns", sh.executed, len(sh.fps), fired, simNs)
	}
	if n := len(sh.tr.durations("core.Run")); n != 24 {
		t.Fatalf("%d core.Run spans, want 24", n)
	}
}

// A sweep through the in-process fleet equals the sweep run in-process, and
// stopping the rig returns once its goroutines have exited.
func TestFleetRigMatchesInProcess(t *testing.T) {
	jobs := sweepJobs(1, 2*event.Second, false)[:12]
	want, err := (&lab.Runner{Workers: 2}).RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rig, err := startFleet(2, true, tr)
	if err != nil {
		t.Fatal(err)
	}
	r := &lab.Runner{Workers: 2, Remote: &shim{tr: tr, inner: rig.client}}
	got, err := r.RunAll(jobs)
	rig.stop()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sweepCSV(got), sweepCSV(want)) {
		t.Fatal("fleet results differ from the in-process sweep")
	}
	if s := r.Stats(); s.Remote != 12 {
		t.Fatalf("%d of 12 jobs ran on the fleet", s.Remote)
	}
	if c := rig.counts(); c["fleet.leases_granted"] != 12 {
		t.Fatalf("fleet counts %v, want 12 leases", c)
	}
	if n := len(tr.durations("fleet.Client.Execute")); n != 12 {
		t.Fatalf("%d Execute spans, want 12", n)
	}
}
