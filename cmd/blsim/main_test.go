package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"biglittle"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestDefaultText(t *testing.T) {
	code, out, errs := runCmd(t, "-app", "bbench", "-duration", "2s", "-matrix")
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, errs)
	}
	for _, want := range []string{
		"app: bbench (Latency) on L4+B4 for 2s, seed 1\n",
		"performance: ", "power: ", "TLP: ", "efficiency states: ", "HMP migrations: ",
		"little cluster residency (%, by MHz):\n", "big cluster residency (%, by MHz):\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestJSON(t *testing.T) {
	code, out, errs := runCmd(t, "-app", "bbench", "-duration", "1s", "-json")
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, errs)
	}
	var r biglittle.Result
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("-json output is not a result: %v", err)
	}
	if r.App != "bbench" || r.EnergyMJ <= 0 {
		t.Fatalf("decoded result = %s, %v mJ", r.App, r.EnergyMJ)
	}
}

func TestSetOverrides(t *testing.T) {
	_, base, _ := runCmd(t, "-app", "bbench", "-duration", "2s")
	code, out, errs := runCmd(t, "-app", "bbench", "-duration", "2s", "-set", "governor=ondemand,sample-ms=40")
	if code != 0 {
		t.Fatalf("-set governor=ondemand: exit = %d; stderr:\n%s", code, errs)
	}
	if out == base {
		t.Fatal("-set governor=ondemand printed the default interactive run")
	}
	// -set's seed key wins over -seed and shows in the header.
	if _, out, _ := runCmd(t, "-app", "bbench", "-duration", "1s", "-set", "seed=7"); !strings.Contains(out, ", seed 7\n") {
		t.Fatalf("-set seed=7 not reflected:\n%s", out)
	}

	code, _, errs = runCmd(t, "-app", "bbench", "-set", "weight=32")
	if code == 0 {
		t.Fatal("unknown -set key accepted")
	}
	for _, want := range []string{`"weight"`, "keys:", "halflife-ms", "governor", "sample-ms"} {
		if !strings.Contains(errs, want) {
			t.Fatalf("unknown-key error should name the key and list the vocabulary; missing %q in %q", want, errs)
		}
	}
}

// bothTypes matches a residency row of a thread seen on both clusters, core
// types in CoreType order.
var bothTypes = regexp.MustCompile(`(?m)^  \S+ +little \d+% big \d+%`)

// TestWindowDeterministic runs the timeline mode twice; before per-thread
// residency was printed in CoreType order (and downsampled ties broken by
// first occurrence), identical runs printed different bytes.
func TestWindowDeterministic(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "eternity_warrior", "-window", "1s+200ms"},
		{"-app", "fifa15", "-cores", "L4+B1", "-window", "2s+500ms", "-width", "60"},
		{"-app", "encoder", "-window", "1s+300ms"}, // a thread runs on both clusters
	} {
		code, first, errs := runCmd(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit = %d; stderr:\n%s", args, code, errs)
		}
		for _, want := range []string{"trace: ", "legend:", "per-thread core-type residency and runnable-wait in window:\n"} {
			if !strings.Contains(first, want) {
				t.Fatalf("%v: output missing %q:\n%s", args, want, first)
			}
		}
		if args[1] == "encoder" && !bothTypes.MatchString(first) {
			t.Fatalf("no residency row lists little then big:\n%s", first)
		}
		if _, second, _ := runCmd(t, args...); second != first {
			t.Fatalf("%v: two identical runs printed different output:\n%s\n---\n%s", args, first, second)
		}
	}
	// Without -duration the run stops where the window ends.
	if _, out, _ := runCmd(t, "-app", "eternity_warrior", "-window", "1s+200ms"); !strings.Contains(out, " for 1.2s, ") {
		t.Fatalf("window run did not stop at the window end:\n%s", out)
	}
	code, _, errs := runCmd(t, "-app", "bbench", "-duration", "1s", "-window", "5s+300ms")
	if code == 0 || !strings.Contains(errs, "no samples recorded") {
		t.Fatalf("window past the run end: exit = %d, stderr %q", code, errs)
	}
}

func TestTelemetryExports(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	code, out, errs := runCmd(t, "-app", "bbench", "-duration", "2s", "-telemetry",
		"-csv", path("ev.csv"), "-tel-json", path("m.json"), "-prom", path("m.prom"),
		"-window", "1s+100ms", "-chrome", path("trace.json"))
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, errs)
	}
	for _, want := range []string{"telemetry: ", "scheduler cross-check: Result.HMPMigrations="} {
		if !strings.Contains(out, want) {
			t.Fatalf("-telemetry output missing %q:\n%s", want, out)
		}
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(path(name))
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %v (%d bytes)", name, err, len(data))
		}
		return data
	}
	if csv := string(read("ev.csv")); !strings.Contains(csv, "migration") {
		t.Fatalf("event CSV has no migrations:\n%.300s", csv)
	}
	for _, name := range []string{"m.json", "trace.json"} {
		if !json.Valid(read(name)) {
			t.Fatalf("%s is not valid JSON", name)
		}
	}
	if prom := string(read("m.prom")); !strings.Contains(prom, "# TYPE biglittle_") {
		t.Fatalf("Prometheus file lacks metric families:\n%.300s", prom)
	}

	code, out, _ = runCmd(t, "-app", "bbench", "-duration", "1s", "-prom", "-")
	if code != 0 || !strings.Contains(out, "# TYPE biglittle_") {
		t.Fatalf("-prom - did not write Prometheus text to stdout (exit %d)", code)
	}
}

func TestPhases(t *testing.T) {
	code, out, errs := runCmd(t, "-phases", "browser:1s,video_player:1s", "-seed", "2")
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, errs)
	}
	for _, want := range []string{"browser", "video_player", "\nbattery at this mix: "} {
		if !strings.Contains(out, want) {
			t.Fatalf("session output missing %q:\n%s", want, out)
		}
	}
	code, out, errs = runCmd(t, "-phases", "browser:-1s,video_player:1s")
	if code == 0 || out != "" || !strings.Contains(errs, "must be positive") {
		t.Fatalf("negative phase: exit = %d, stdout %q, stderr %q", code, out, errs)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-phases", "browser:1s", "-app", "bbench"}, "takes only -seed, not -app"},
		{[]string{"-app", "bbench", "-chrome", "t.json"}, "need -window"},
		{[]string{"-app", "bbench", "-json", "-window", "1s+100ms"}, "-json prints only the result"},
		{[]string{"-app", "bbench", "-json", "-telemetry"}, "-json prints only the result"},
		{[]string{"-app", "bbench", "-window", "300ms"}, "bad -window"},
		{[]string{"-bogus"}, "flag provided but not defined"},
	} {
		code, out, errs := runCmd(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(errs, tc.want) {
			t.Errorf("%v: exit = %d, stdout %q, stderr %q; want exit 2 and %q", tc.args, code, out, errs, tc.want)
		}
	}
	if code, _, errs := runCmd(t, "-app", "warp_drive"); code != 1 || !strings.Contains(errs, "unknown app") {
		t.Errorf("unknown app: exit = %d, stderr %q", code, errs)
	}
}

func TestList(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 || len(strings.Split(strings.TrimSpace(out), "\n")) != len(biglittle.Apps()) {
		t.Fatalf("-list: exit = %d, output:\n%s", code, out)
	}
}
