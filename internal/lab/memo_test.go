package lab

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/workload"
)

func repeatJobs(cfg core.Config, n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Config: cfg}
	}
	return jobs
}

// TestMemoSharesIdenticalJobs: identical jobs racing on a worker pool
// simulate once; every other one is an in-process hit holding its own copy.
func TestMemoSharesIdenticalJobs(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	want := core.Run(cfg)

	r := &Runner{Workers: 4, Cache: cache}
	results, err := r.RunAll(repeatJobs(cfg, 8))
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Jobs != 8 || s.Simulated != 1 || s.Hits != 7 || s.Shared != 7 || s.Misses != 1 || s.Stored != 1 {
		t.Fatalf("stats = %+v, want 1 simulated, 7 hits all shared, 1 miss, 1 stored", s)
	}
	for i, res := range results {
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("job %d: result differs from a direct run", i)
		}
		for j := 0; j < i; j++ {
			if &res.LittleResidency[0] == &results[j].LittleResidency[0] || &res.TaskStats[0] == &results[j].TaskStats[0] {
				t.Fatalf("jobs %d and %d share result memory", j, i)
			}
		}
	}
	// Mutating the handed-out results, the leader's included, must not
	// reach the memo.
	for _, res := range results {
		res.LittleResidency[0] = -1
	}
	again, err := r.Run(Job{Config: cfg})
	if err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("memo served a mutated result (err %v)", err)
	}

	// A new runner on the warm cache: one disk hit, the rest in-process.
	warm := &Runner{Workers: 4, Cache: cache}
	if _, err := warm.RunAll(repeatJobs(cfg, 8)); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Simulated != 0 || s.Hits != 8 || s.Shared != 7 || s.Misses != 0 {
		t.Fatalf("warm stats = %+v, want 8 hits, 7 of them shared, nothing simulated", s)
	}
}

// TestMemoForkJobs: fork jobs memoize like any other; a repeat neither
// resumes nor touches the prefix tier.
func TestMemoForkJobs(t *testing.T) {
	_, jobs := forkSweepJobs(t, 2)
	r := New(1, nil)
	if _, err := r.RunAll([]Job{jobs[0], jobs[1], jobs[1]}); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Forks != 2 || s.Simulated != 2 || s.Shared != 1 || s.PrefixMisses != 1 || s.PrefixHits != 1 {
		t.Fatalf("stats = %+v, want 2 forks simulated, 1 shared, one prefix built and reused once", s)
	}
}

// flakyConfig is the test config whose workload panics on its first build
// only.
func flakyConfig(t *testing.T) core.Config {
	inner := testApp(t)
	var calls atomic.Int64
	cfg := testConfig(t)
	cfg.App = apps.App{Name: "flaky", Desc: "panics on its first build", Metric: inner.Metric, Build: func(ctx *workload.Ctx) {
		if calls.Add(1) == 1 {
			panic("first build")
		}
		inner.Build(ctx)
	}}
	return cfg
}

// TestMemoFailureNotMemoized: a failed job leaves no entry behind. A later
// identical job simulates, and jobs already waiting on the failed leader
// resolve on their own.
func TestMemoFailureNotMemoized(t *testing.T) {
	cfg := flakyConfig(t)
	r := &Runner{Workers: 1, Retries: -1}
	if _, err := r.Run(Job{Config: cfg}); err == nil {
		t.Fatal("first job should fail: its only attempt panics")
	}
	if _, err := r.Run(Job{Config: cfg}); err != nil {
		t.Fatalf("identical job after a failure: %v", err)
	}
	if s := r.Stats(); s.Failures != 1 || s.Simulated != 1 || s.Shared != 0 {
		t.Fatalf("stats = %+v, want 1 failure, then 1 simulation and no shared hit", s)
	}

	// Concurrently: one leader fails, a waiter takes over, the rest share.
	cfg = flakyConfig(t)
	r = &Runner{Workers: 4, Retries: -1}
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Run(Job{Config: cfg})
		}(i)
	}
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if s := r.Stats(); failed != 1 || s.Failures != 1 || s.Simulated != 1 || s.Shared != 2 {
		t.Fatalf("%d jobs failed, stats = %+v; want 1 failure, 1 simulation, 2 shared", failed, s)
	}
}

// TestMemoBypassedByCheck: audited runs never share a result, so every
// repeat is audited.
func TestMemoBypassedByCheck(t *testing.T) {
	r := &Runner{Workers: 2, Check: true}
	if _, err := r.RunAll(repeatJobs(testConfig(t), 2)); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Audited != 2 || s.Simulated != 2 || s.Shared != 0 {
		t.Fatalf("stats = %+v, want both jobs simulated and audited, none shared", s)
	}
}

// TestMemoCapEvictsOldest: past the cap the oldest entry goes first, and a
// revisit re-resolves it while younger entries still serve.
func TestMemoCapEvictsOldest(t *testing.T) {
	r := &Runner{Workers: 1}
	r.memo.limit = 2
	seeded := func(seed int64) Job {
		cfg := testConfig(t)
		cfg.Seed = seed
		return Job{Config: cfg}
	}
	for _, seed := range []int64{1, 2, 3} {
		if _, err := r.Run(seeded(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.memo.entries); n != 2 {
		t.Fatalf("memo holds %d entries, want the cap of 2", n)
	}
	if _, err := r.Run(seeded(3)); err != nil { // youngest: still resident
		t.Fatal(err)
	}
	if s := r.Stats(); s.Simulated != 3 || s.Shared != 1 {
		t.Fatalf("stats = %+v, want 3 simulated and seed 3 shared", s)
	}
	if _, err := r.Run(seeded(1)); err != nil { // oldest: evicted
		t.Fatal(err)
	}
	if s := r.Stats(); s.Simulated != 4 || s.Shared != 1 {
		t.Fatalf("stats = %+v, want the evicted seed 1 simulated again", s)
	}
}
