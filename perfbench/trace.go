package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"biglittle/internal/core"
	"biglittle/internal/lab"
	"biglittle/internal/sched"
	"biglittle/internal/snapshot"
)

// span is one timed call into a layer, recorded by benchmark code around a
// public function. Parent is the id of the span that caused it (0: none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the repetition started
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps a repetition's spans in memory until it ends. A nil tracer
// records nothing, so the untraced path pays one nil check per call.
type tracer struct {
	t0      time.Time
	next    atomic.Int64
	current atomic.Int64 // the open report section, parent of per-job spans
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns the function that closes it.
func (t *tracer) begin(name string, parent int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.next.Add(1)
	start := time.Since(t.t0).Nanoseconds()
	return id, func() {
		s := span{ID: id, Parent: parent, Name: name, Start: start, End: time.Since(t.t0).Nanoseconds()}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// durations returns the durations in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// shim is installed as lab.Runner.Remote in traced repetitions: the runner
// hands it every fingerprintable job after a cache miss. It records the
// job's fingerprint, then either forwards to a real executor (the fleet
// client, timing each round trip), declines (fork jobs, which must stay on
// the runner's prefix tier), or runs the job itself through core.Run with
// an OnSystem hook that reads the engine's fired-event count. OnSystem only
// captures the system pointer, so the result is the one the runner would
// have simulated; the output checks confirm it.
type shim struct {
	tr    *tracer
	inner lab.Executor // forward here when set

	mu       sync.Mutex
	fps      map[string]bool
	jobs     []lab.Job // one per distinct fingerprint, for the lab pass
	executed int64     // jobs run locally (counted by the runner as remote)
	fired    uint64
	simNs    int64
}

func (s *shim) Execute(job lab.Job) (res core.Result, ok bool, err error) {
	fp, _ := lab.Fingerprint(job)
	s.mu.Lock()
	if s.fps == nil {
		s.fps = map[string]bool{}
	}
	if !s.fps[fp] {
		s.fps[fp] = true
		s.jobs = append(s.jobs, job)
	}
	s.mu.Unlock()

	var parent int64
	if s.tr != nil {
		parent = s.tr.current.Load()
	}
	if s.inner != nil {
		_, end := s.tr.begin("fleet.Client.Execute", parent)
		defer end()
		return s.inner.Execute(job)
	}
	if job.Fork != nil {
		return core.Result{}, false, nil
	}
	defer func() {
		if p := recover(); p != nil {
			res, ok, err = core.Result{}, true, fmt.Errorf("core.Run panicked: %v", p)
		}
	}()
	cfg := job.Config
	var sys *sched.System
	cfg.OnSystem = func(x *sched.System) { sys = x }
	_, end := s.tr.begin("core.Run", parent)
	res = core.Run(cfg)
	end()
	s.mu.Lock()
	s.executed++
	s.fired += sys.Eng.Fired()
	s.simNs += int64(res.Duration)
	s.mu.Unlock()
	return res, true, nil
}

// tally returns the fired events and simulated nanoseconds of the jobs the
// shim ran.
func (s *shim) tally() (fired uint64, simNs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired, s.simNs
}

// labPass times the lab's per-job public calls on the jobs a traced
// repetition saw: lab.Fingerprint for each, and — when the workload runs
// with a result cache — Cache.Get from that cache and Cache.Put into a
// fresh shadow cache, so the workload's own cache is left as it was.
func labPass(tr *tracer, jobs []lab.Job, cache *lab.Cache, shadowDir string) error {
	var shadow *lab.Cache
	if cache != nil {
		var err error
		if shadow, err = lab.Open(shadowDir); err != nil {
			return err
		}
		defer os.RemoveAll(shadowDir)
	}
	for _, job := range jobs {
		_, end := tr.begin("lab.Fingerprint", 0)
		fp, ok := lab.Fingerprint(job)
		end()
		if !ok || cache == nil {
			continue
		}
		_, end = tr.begin("lab.Cache.Get", 0)
		res, hit := cache.Get(fp)
		end()
		if !hit {
			return fmt.Errorf("lab pass: %s: fingerprint %s not in the workload's cache", job.Config.App.Name, fp[:12])
		}
		_, end = tr.begin("lab.Cache.Put", 0)
		err := shadow.Put(fp, job.Config.App.Name, job.Salt, res)
		end()
		if err != nil {
			return fmt.Errorf("lab pass: %w", err)
		}
	}
	return nil
}

// snapshotPass times the fork path's public calls on the sweep's twelve
// prefixes: core.NewSim, RunTo to the fork point, Snapshot, snapshot.Encode
// and Decode, then core.Resume of every swept value from the decoded state
// and one RunTo/Finish continuation. It returns the encoded blob sizes and
// the prefixes' fired events and simulated nanoseconds.
func snapshotPass(tr *tracer, jobs []lab.Job) (blobs []int, fired uint64, simNs int64, err error) {
	for i := 0; i < len(jobs); i += len(sweepValues) {
		spec := jobs[i].Fork
		_, end := tr.begin("core.NewSim", 0)
		sim, err := core.NewSim(spec.Base)
		end()
		if err != nil {
			return nil, 0, 0, err
		}
		_, end = tr.begin("core.RunTo", 0)
		sim.RunTo(spec.At)
		end()
		_, end = tr.begin("core.Snapshot", 0)
		st, err := sim.Snapshot()
		end()
		if err != nil {
			return nil, 0, 0, err
		}
		fired += st.Engine.Fired
		simNs += int64(st.Time)
		_, end = tr.begin("snapshot.Encode", 0)
		blob, err := snapshot.Encode(st)
		end()
		if err != nil {
			return nil, 0, 0, err
		}
		blobs = append(blobs, len(blob))
		_, end = tr.begin("snapshot.Decode", 0)
		dec, err := snapshot.Decode(blob)
		end()
		if err != nil {
			return nil, 0, 0, err
		}
		for k, job := range jobs[i : i+len(sweepValues)] {
			_, end = tr.begin("core.Resume", 0)
			forked, err := core.Resume(job.Config, dec)
			end()
			if err != nil {
				return nil, 0, 0, err
			}
			if k > 0 {
				continue
			}
			_, end = tr.begin("core.RunTo", 0)
			forked.RunTo(job.Config.Duration)
			end()
			_, end = tr.begin("core.Finish", 0)
			forked.Finish()
			end()
		}
	}
	return blobs, fired, simNs, nil
}
