// Package lab is the experiment orchestrator: it turns every simulation
// into a declarative Job, fans jobs out over a bounded worker pool, and
// memoizes completed results — in process, so a job repeated within a run
// simulates once, and in a content-addressed on-disk cache, so warm re-runs
// skip simulation entirely.
//
// Three properties make it safe to put under every paper-reproduction
// driver:
//
//   - Determinism: RunAll returns results in job-submission order no matter
//     which worker finished first, and the simulator itself is a
//     single-threaded deterministic event engine — so report output is
//     byte-identical for 1 worker or N, cold cache or warm.
//   - Isolation: each job runs a fresh, isolated engine. Observers whose
//     event streams are not goroutine-safe (telemetry.Collector's event
//     bus, trace.Recorder) must be per-job; the Prepare hook exists so each
//     job can construct its own.
//   - Robustness: a panicking job is recovered and retried a bounded number
//     of times; a hung job can be abandoned on a per-job timeout; a corrupt
//     cache blob falls back to re-simulation.
package lab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"biglittle/internal/check"
	"biglittle/internal/core"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/telemetry"
)

// Job is one declarative experiment: a fully resolved simulation config
// plus optional orchestration hooks.
type Job struct {
	Config core.Config

	// Salt is extra fingerprint material for call sites where the config
	// alone under-identifies the run — e.g. composite apps whose background
	// set is hidden inside App.Build.
	Salt string

	// Prepare, if set, runs in the worker immediately before simulation and
	// may attach per-job observers (a fresh telemetry.Collector, a
	// trace.Recorder via OnSystem, ...) to the config copy it receives.
	// Jobs whose final config carries observers are never cached.
	Prepare func(*core.Config)

	// Fork, when non-nil, accelerates the job with a shared snapshot prefix:
	// instead of simulating Config from scratch, the runner warms (or
	// reuses) one prefix of Fork.Base run to Fork.At and resumes it under
	// Config — whose knobs take effect at the fork point. Jobs with an
	// identical (Base, At) share a single prefix simulation, in memory and
	// in the cache's prefix tier. Fork jobs never ship to the remote fleet
	// (snapshots mirror process-local closure state) and are mutually
	// exclusive with Runner.Check.
	Fork *ForkSpec
}

// ForkSpec names the shared prefix of a fork-accelerated job: the base
// config to warm — typically the sweep's config with the swept knob at its
// baseline value — and the fork time. Base must be fingerprintable (no
// observers, hooks, or digest recorder), or the job fails loudly.
type ForkSpec struct {
	Base core.Config
	At   event.Time
}

// Executor runs a job somewhere other than this process — the simulation
// fleet, typically (internal/fleet.Client implements it). Execute reports
// ok=false when the job cannot be shipped out (it carries hooks or observers
// that do not serialize, or an app/platform the remote side cannot rebuild
// by name); the runner then simulates locally. A non-nil error means the
// remote attempt itself failed (coordinator unreachable, job failed on every
// worker); the runner logs it and falls back to local simulation, so a dead
// fleet degrades to in-process execution, never to a lost result.
type Executor interface {
	Execute(job Job) (res core.Result, ok bool, err error)
}

// Stats counts what a runner did. Hits+Remote+Simulated = completed jobs
// (when nothing failed); on a fully warm cache Simulated is zero.
type Stats struct {
	Jobs      int64 // jobs submitted
	Hits      int64 // results served from the in-process memo or the disk cache
	Shared    int64 // the subset of Hits served from the in-process memo
	Misses    int64 // cache lookups that missed (cacheable jobs only)
	Simulated int64 // simulations actually executed
	Stored    int64 // results written to cache
	Retries   int64 // extra attempts after a panic or timeout
	Failures  int64 // jobs that exhausted their attempts

	// Remote counts jobs executed by the remote fleet (Runner.Remote);
	// RemoteErrors counts remote attempts that failed and fell back to
	// local simulation.
	Remote       int64
	RemoteErrors int64

	// Audited counts jobs that passed invariant auditing (Runner.Check);
	// AuditFailures counts jobs whose audit reported violations or whose
	// cached result disagreed with a fresh audited simulation.
	Audited       int64
	AuditFailures int64

	// Forks counts fork-accelerated continuations resumed from a prefix
	// snapshot. PrefixHits counts fork jobs served by an already-warm prefix
	// (built earlier in this process, or found in the cache's prefix tier);
	// PrefixMisses counts prefix simulations actually executed — on a sweep
	// of N variants sharing one (Base, At), PrefixMisses is 1 and PrefixHits
	// is N-1. PrefixEvictions counts decoded prefixes dropped from the
	// in-process tier to stay under Runner.PrefixBudget; an evicted prefix
	// re-requested later is rebuilt (or reloaded from the disk tier) and
	// counted again.
	Forks           int64
	PrefixHits      int64
	PrefixMisses    int64
	PrefixEvictions int64
}

// Runner executes jobs on a worker pool with caching. The zero value is
// usable: GOMAXPROCS workers, no cache, no telemetry, no timeout, one retry.
type Runner struct {
	// Workers caps concurrent simulations (<=0: GOMAXPROCS).
	Workers int
	// Cache, when non-nil, memoizes results by content fingerprint.
	Cache *Cache
	// Remote, when non-nil, executes fingerprintable jobs on a remote fleet
	// after the local cache misses. Jobs the executor cannot ship (Execute
	// ok=false) and failed remote attempts simulate locally, so attaching a
	// Remote never changes results — only where they are computed. Remote
	// results are stored into the local cache like fresh simulations.
	Remote Executor
	// Tel, when non-nil, receives progress and cache hit/miss counters —
	// one per Stats field: "lab_jobs", "lab_cache_hits", "lab_shared",
	// "lab_cache_misses", "lab_simulations", "lab_stored", "lab_retries",
	// "lab_failures", "lab_remote", "lab_remote_errors", "lab_audited",
	// "lab_audit_failures", "lab_forks", "lab_prefix_hits",
	// "lab_prefix_misses". The runner updates them under its
	// own mutex so Stats and the mirrored counters stay in lockstep; the
	// registry itself is goroutine-safe, so exporting this collector (e.g.
	// WritePrometheus) while a sweep runs is fine. Do not share it with
	// concurrently running jobs' event emission — the event bus is still
	// single-threaded.
	Tel *telemetry.Collector
	// Log, when non-nil, receives structured sweep observability: per-job
	// state transitions (cache hit/miss, simulated, stored, retry, failure,
	// audit) at Debug, and sweep-level progress — completed/total, jobs/sec,
	// ETA — at Info. Nil stays silent; the logger must be goroutine-safe
	// (slog's built-in handlers are).
	Log *slog.Logger
	// Timeout abandons a single simulation after this much wall-clock time
	// (0: none). The abandoned goroutine cannot be killed — it drains in the
	// background and its result is discarded — so treat a timeout as a bug
	// signal, not a scheduling tool.
	Timeout time.Duration
	// Retries is how many extra attempts a panicking or timed-out job gets
	// (<0: none; 0: the default of 1).
	Retries int
	// PrefixBudget bounds the bytes of decoded prefix snapshots the
	// in-process fork tier keeps alive at once (estimated via
	// snapshot.State.ApproxBytes). A wide multi-app, multi-rung fork sweep
	// would otherwise hold every decoded state until the runner dies. Least
	// recently handed-out prefixes are evicted first (Stats.PrefixEvictions);
	// the entry just handed out is never evicted, so a single oversized
	// prefix still serves its sweep. 0 means DefaultPrefixBudget; negative
	// means unlimited.
	PrefixBudget int64
	// Check enables invariant auditing (internal/check) for every job: fresh
	// simulations run with an auditor attached and fail on any violation, and
	// cache hits are verified by re-simulating with an auditor and requiring
	// the cached result to match the fresh one byte for byte. Auditing is a
	// pure observation — results are identical with it on or off — but cache
	// hits lose their speedup since each one re-simulates. Check runs bypass
	// the in-process memo, so repeated jobs are each audited.
	Check bool

	mu    sync.Mutex
	stats Stats

	// memo is the in-process result tier in front of the cache, the remote
	// and simulation: one result per job fingerprint, resolved at most once
	// at a time across workers and shared for the runner's lifetime.
	memo resultMemo

	// prefixes is the in-process tier of the fork-prefix cache: one decoded
	// read-only snapshot per (base fingerprint, fork time), built at most
	// once per runner under singleflight. The on-disk tier lives in the
	// Cache's prefix/ area and survives across processes. forkKeys
	// memoizes each spec pointer's base fingerprint and prefix key, so a
	// sweep sharing one *ForkSpec marshals the base config once. prefixLRU orders
	// the tracked keys least-recently-handed-out first and prefixBytes sums
	// their estimated sizes, for PrefixBudget eviction.
	prefixMu    sync.Mutex
	prefixes    map[string]*prefixEntry
	forkKeys    map[*ForkSpec]forkKey
	prefixLRU   []string
	prefixBytes int64
}

// DefaultPrefixBudget is the in-process prefix tier's byte budget when
// Runner.PrefixBudget is zero: enough for tens of typical decoded
// snapshots, small enough that a hundred-app fork matrix cannot hold every
// prefix alive at once.
const DefaultPrefixBudget int64 = 1 << 30

// New returns a runner with the given worker count and cache.
func New(workers int, cache *Cache) *Runner {
	return &Runner{Workers: workers, Cache: cache}
}

var defaultRunner = sync.OnceValue(func() *Runner { return &Runner{} })

// Default returns the shared process-wide runner: GOMAXPROCS workers, no
// cache. It is what analysis drivers use when no runner is configured.
func Default() *Runner { return defaultRunner() }

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (r *Runner) retries() int {
	switch {
	case r.Retries < 0:
		return 0
	case r.Retries == 0:
		return 1
	default:
		return r.Retries
	}
}

// count applies fn to the stats and mirrors named counters into the
// attached telemetry registry, all under one lock (the Collector is not
// goroutine-safe).
func (r *Runner) count(fn func(*Stats), counters ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(&r.stats)
	for _, name := range counters {
		r.Tel.Counter(name).Inc()
	}
}

// countAdd is count for increments larger than one: it applies fn to the
// stats and adds n to the single mirrored counter, under the same lock.
func (r *Runner) countAdd(fn func(*Stats), counter string, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(&r.stats)
	r.Tel.Counter(counter).Add(n)
}

// RunAll executes every job and returns the results in submission order.
// The first error (by submission order) is returned after all jobs finish;
// its result slot is the zero Result. Configs are values: the caller's jobs
// are never mutated.
func (r *Runner) RunAll(jobs []Job) ([]core.Result, error) {
	results := make([]core.Result, len(jobs))
	errs := make([]error, len(jobs))
	prog := r.newProgress(len(jobs))
	r.ForEach(len(jobs), func(i int) {
		results[i], errs[i] = r.runOne(jobs[i])
		prog.step()
	})
	prog.finish()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// progress tracks sweep completion for the structured log. A nil *progress
// (no logger attached) is valid and does nothing.
type progress struct {
	r         *Runner
	total     int
	every     int64 // log an Info line every this many completions
	start     time.Time
	completed atomic.Int64
}

func (r *Runner) newProgress(total int) *progress {
	if r.Log == nil || total <= 0 {
		return nil
	}
	every := int64(total / 10)
	if every < 1 {
		every = 1
	}
	r.Log.Info("sweep start", "jobs", total, "workers", r.workers(total))
	return &progress{r: r, total: total, every: every, start: time.Now()}
}

// step records one finished job and, every `every` completions, logs
// completed/total, throughput, and the ETA extrapolated from the rate so
// far. Called from worker goroutines.
func (p *progress) step() {
	if p == nil {
		return
	}
	n := p.completed.Add(1)
	if n%p.every != 0 && int(n) != p.total {
		return
	}
	elapsed := time.Since(p.start)
	rate := float64(n) / elapsed.Seconds()
	eta := time.Duration(0)
	if rate > 0 {
		eta = time.Duration(float64(p.total-int(n)) / rate * float64(time.Second))
	}
	args := []any{
		"completed", n,
		"total", p.total,
		"jobs_per_sec", math.Round(rate*10) / 10,
		"eta", eta.Round(10 * time.Millisecond).String(),
	}
	// Prefix-tier effectiveness, when the sweep forks: how many
	// continuations have resumed from a warmed prefix, and what share of
	// prefix requests were served without simulating one.
	if s := p.r.Stats(); s.Forks > 0 || s.PrefixMisses > 0 {
		hitPct := 0.0
		if reqs := s.PrefixHits + s.PrefixMisses; reqs > 0 {
			hitPct = 100 * float64(s.PrefixHits) / float64(reqs)
		}
		args = append(args,
			"forks", s.Forks,
			"prefix_hit_pct", math.Round(hitPct*10)/10,
		)
		if s.PrefixEvictions > 0 {
			args = append(args, "prefix_evictions", s.PrefixEvictions)
		}
	}
	p.r.Log.Info("sweep progress", args...)
}

// finish logs the sweep summary with the runner's cumulative tallies.
func (p *progress) finish() {
	if p == nil {
		return
	}
	s := p.r.Stats()
	p.r.Log.Info("sweep complete",
		"jobs", p.completed.Load(),
		"elapsed", time.Since(p.start).Round(time.Millisecond).String(),
		"hits", s.Hits,
		"shared", s.Shared,
		"misses", s.Misses,
		"simulated", s.Simulated,
		"forks", s.Forks,
		"prefix_hits", s.PrefixHits,
		"prefix_evictions", s.PrefixEvictions,
		"remote", s.Remote,
		"stored", s.Stored,
		"retries", s.Retries,
		"failures", s.Failures,
		"audited", s.Audited,
		"audit_failures", s.AuditFailures,
	)
}

// logJob emits one per-job Debug transition when a logger is attached.
func (r *Runner) logJob(msg, app string, args ...any) {
	if r.Log == nil {
		return
	}
	r.Log.Debug(msg, append([]any{"app", app}, args...)...)
}

// RunConfigs is RunAll over bare configs.
func (r *Runner) RunConfigs(cfgs []core.Config) ([]core.Result, error) {
	jobs := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = Job{Config: cfg}
	}
	return r.RunAll(jobs)
}

// Run executes a single job (still counted, cached, and recovered).
func (r *Runner) Run(job Job) (core.Result, error) {
	return r.runOne(job)
}

// ForEach runs fn(i) for i in [0, n) on the worker pool with a bounded
// queue, for fan-out work that is not a core simulation (microarchitecture
// sweeps, branch-predictor traces). A panic in fn is re-raised in the
// caller once every worker has drained.
func (r *Runner) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := r.workers(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg      sync.WaitGroup
		next    = make(chan int, workers)
		panicMu sync.Mutex
		panicV  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if p := recover(); p != nil {
							panicMu.Lock()
							if panicV == nil {
								panicV = p
							}
							panicMu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// runOne resolves one job: in-process memo, then disk cache, then remote,
// then bounded simulation attempts.
func (r *Runner) runOne(job Job) (core.Result, error) {
	r.count(func(s *Stats) { s.Jobs++ }, "lab_jobs")

	cfg := job.Config
	if job.Prepare != nil {
		job.Prepare(&cfg)
	}
	if job.Fork != nil && r.Check {
		// The auditor must observe a from-scratch run, but a variant fork's
		// result legitimately differs from a from-scratch run of the variant
		// config (its knobs apply only from the fork point), so auditing
		// would flag correct results as corrupt.
		err := fmt.Errorf("lab: job %q: fork acceleration and Check auditing are mutually exclusive — an audit re-simulates from scratch, which a variant fork legitimately diverges from", cfg.App.Name)
		r.count(func(s *Stats) { s.Failures++ }, "lab_failures")
		r.logJob("job failed", cfg.App.Name, "err", err)
		return core.Result{}, err
	}
	// Every job is fingerprinted, even with no cache or remote attached: the
	// in-process memo keys on it. Unprintable jobs and Check runs bypass the
	// memo, so every audit still re-simulates.
	probe := Job{Config: cfg, Salt: job.Salt, Fork: job.Fork}
	fp, printable := r.fingerprint(probe)
	if !printable || r.Check {
		return r.resolve(probe, fp, printable)
	}
	for {
		e, leader := r.memo.claim(fp)
		if leader {
			return r.lead(e, probe, fp)
		}
		<-e.done
		if e.ok {
			r.count(func(s *Stats) { s.Hits++; s.Shared++ }, "lab_cache_hits", "lab_shared")
			r.logJob("memo hit", cfg.App.Name, "fingerprint", fp)
			return e.res.Clone(), nil
		}
		// The leader failed and dropped the entry: resolve afresh, as a new
		// leader or behind one.
	}
}

// lead resolves a job as the leader of its memo entry and publishes the
// outcome. If resolution panics, ok stays false and the entry is dropped,
// so waiters never block on a leader that is gone.
func (r *Runner) lead(e *memoEntry, job Job, fp string) (res core.Result, err error) {
	ok := false
	defer func() { r.memo.publish(fp, e, res, ok) }()
	res, err = r.resolve(job, fp, true)
	ok = err == nil
	return res, err
}

// resolve runs one prepared job (Prepare already applied to its Config)
// through the disk cache, then the remote executor, then bounded
// simulation attempts.
func (r *Runner) resolve(job Job, fp string, printable bool) (core.Result, error) {
	cfg := job.Config
	cacheable := printable && r.Cache != nil
	if cacheable {
		if res, ok := r.Cache.Get(fp); ok {
			if r.Check {
				if aerr := r.auditCached(cfg, res); aerr != nil {
					r.count(func(s *Stats) { s.AuditFailures++ }, "lab_audit_failures")
					r.logJob("audit failure", cfg.App.Name, "err", aerr)
					return core.Result{}, aerr
				}
				r.count(func(s *Stats) { s.Audited++ }, "lab_audited")
				r.logJob("audited", cfg.App.Name, "source", "cache")
			}
			r.count(func(s *Stats) { s.Hits++ }, "lab_cache_hits")
			r.logJob("cache hit", cfg.App.Name, "fingerprint", fp)
			return res, nil
		}
		r.count(func(s *Stats) { s.Misses++ }, "lab_cache_misses")
		r.logJob("cache miss", cfg.App.Name, "fingerprint", fp)
	}

	// Remote execution: ship fingerprintable jobs to the fleet. The executor
	// declines jobs it cannot reconstruct remotely, and any remote failure
	// falls through to local simulation — the fleet is an accelerator, not a
	// dependency.
	if printable && r.Remote != nil {
		res, ok, rerr := r.Remote.Execute(job)
		switch {
		case rerr != nil:
			r.count(func(s *Stats) { s.RemoteErrors++ }, "lab_remote_errors")
			r.logJob("remote error", cfg.App.Name, "err", rerr)
		case ok:
			if r.Check {
				// A remote result is audited exactly like a cache hit: re-simulate
				// locally with the auditor attached and require byte equality.
				if aerr := r.auditCached(cfg, res); aerr != nil {
					r.count(func(s *Stats) { s.AuditFailures++ }, "lab_audit_failures")
					r.logJob("audit failure", cfg.App.Name, "err", aerr)
					return core.Result{}, aerr
				}
				r.count(func(s *Stats) { s.Audited++ }, "lab_audited")
				r.logJob("audited", cfg.App.Name, "source", "remote")
			}
			r.count(func(s *Stats) { s.Remote++ }, "lab_remote")
			r.logJob("remote", cfg.App.Name, "fingerprint", fp)
			if cacheable {
				if perr := r.Cache.Put(fp, cfg.App.Name, job.Salt, res); perr == nil {
					r.count(func(s *Stats) { s.Stored++ }, "lab_stored")
					r.logJob("stored", cfg.App.Name, "fingerprint", fp)
				}
			}
			return res, nil
		}
	}

	// A fork-accelerated job simulates its continuation from the shared
	// prefix snapshot instead of from time zero. The prefix is acquired once
	// (singleflight across workers) before the attempt loop, so a retry
	// re-runs only the cheap continuation.
	run := runScratch
	if job.Fork != nil {
		var ferr error
		if run, ferr = r.prefixRun(job.Fork); ferr != nil {
			r.count(func(s *Stats) { s.Failures++ }, "lab_failures")
			r.logJob("job failed", cfg.App.Name, "err", ferr)
			return core.Result{}, ferr
		}
	}

	var err error
	for attempt := 0; attempt <= r.retries(); attempt++ {
		if attempt > 0 {
			r.count(func(s *Stats) { s.Retries++ }, "lab_retries")
			r.logJob("retry", cfg.App.Name, "attempt", attempt, "err", err)
		}
		// A fresh auditor per attempt: one auditor instance observes one run.
		acfg := cfg
		var aud *check.Auditor
		if r.Check && acfg.Check == nil {
			aud = check.New()
			acfg.Check = aud
		}
		var res core.Result
		res, err = r.attempt(acfg, run)
		if err != nil {
			continue
		}
		if aud != nil {
			if aerr := aud.Err(); aerr != nil {
				// Violations are deterministic, so retrying cannot help.
				r.count(func(s *Stats) { s.AuditFailures++ }, "lab_audit_failures")
				r.logJob("audit failure", cfg.App.Name, "err", aerr)
				return core.Result{}, fmt.Errorf("lab: job %q failed audit: %w", cfg.App.Name, aerr)
			}
			r.count(func(s *Stats) { s.Audited++ }, "lab_audited")
			r.logJob("audited", cfg.App.Name, "source", "fresh")
		}
		if job.Fork != nil {
			r.count(func(s *Stats) { s.Forks++ }, "lab_forks")
			if r.Log != nil { // see logFork: boxing the fork time allocates
				r.logJob("forked", cfg.App.Name, "at", job.Fork.At)
			}
		}
		r.count(func(s *Stats) { s.Simulated++ }, "lab_simulations")
		r.logJob("simulated", cfg.App.Name, "attempt", attempt+1)
		if cacheable {
			if perr := r.Cache.Put(fp, cfg.App.Name, job.Salt, res); perr == nil {
				r.count(func(s *Stats) { s.Stored++ }, "lab_stored")
				r.logJob("stored", cfg.App.Name, "fingerprint", fp)
			}
		}
		return res, nil
	}
	r.count(func(s *Stats) { s.Failures++ }, "lab_failures")
	r.logJob("job failed", cfg.App.Name, "err", err)
	return core.Result{}, err
}

// auditCached re-simulates a cache hit with an auditor attached and requires
// the cached result to equal the fresh one byte for byte (Go float64 JSON
// round-trips exactly, so marshaling both is an exact comparison). This is
// the defense against a silently wrong number being memoized and re-served
// forever: any divergence between the cache blob and today's simulator —
// violation, drift, or corruption — surfaces as an error.
func (r *Runner) auditCached(cfg core.Config, cached core.Result) error {
	aud := check.New()
	cfg.Check = aud
	fresh, err := r.attempt(cfg, runScratch)
	if err != nil {
		return err
	}
	if aerr := aud.Err(); aerr != nil {
		return fmt.Errorf("lab: job %q failed audit: %w", cfg.App.Name, aerr)
	}
	a, aerr := json.Marshal(cached)
	b, berr := json.Marshal(fresh)
	if aerr != nil || berr != nil {
		return fmt.Errorf("lab: job %q: marshal for audit compare: %v / %v", cfg.App.Name, aerr, berr)
	}
	if !bytes.Equal(a, b) {
		// Name exactly what moved rather than reporting an opaque byte
		// mismatch: the structural diff walks both results field by field.
		ds := delta.Diff(cached, fresh, delta.Tolerance{})
		return fmt.Errorf("lab: job %q cached result disagrees with fresh audited simulation; %d field(s) differ (cached -> fresh):\n%s",
			cfg.App.Name, len(ds), delta.Summarize(ds, 8))
	}
	return nil
}

type outcome struct {
	res core.Result
	err error
}

// runScratch is the default attempt body: a full from-scratch simulation.
func runScratch(cfg core.Config) (core.Result, error) { return core.Run(cfg), nil }

// attempt runs one simulation — run(cfg) — with panic recovery and the
// optional wall-clock timeout.
func (r *Runner) attempt(cfg core.Config, run func(core.Config) (core.Result, error)) (core.Result, error) {
	ch := make(chan outcome, 1) // buffered: an abandoned attempt must not leak
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("lab: job %q panicked: %v", cfg.App.Name, p)}
			}
		}()
		res, err := run(cfg)
		ch <- outcome{res: res, err: err}
	}()
	if r.Timeout <= 0 {
		o := <-ch
		return o.res, o.err
	}
	t := time.NewTimer(r.Timeout)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-t.C:
		return core.Result{}, fmt.Errorf("lab: job %q exceeded timeout %v", cfg.App.Name, r.Timeout)
	}
}
