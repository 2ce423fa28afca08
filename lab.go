package biglittle

import "biglittle/internal/lab"

// LabJob is one declarative experiment for a lab runner: a fully resolved
// Config plus optional fingerprint salt, a per-job Prepare hook, and an
// optional fork spec for snapshot acceleration.
type LabJob = lab.Job

// LabForkSpec names the shared warmed prefix of a fork-accelerated LabJob:
// the base config to run and the fork time. Jobs sharing a (Base, At) share
// one prefix simulation (see DESIGN.md §9).
type LabForkSpec = lab.ForkSpec

// LabCache is the content-addressed result store backing warm re-runs.
type LabCache = lab.Cache

// NewLabRunner returns the experiment orchestrator with the given worker
// count (<=0 for GOMAXPROCS) and cache (nil to disable memoization). It
// executes LabJobs on a bounded worker pool and memoizes results in a
// content-addressed on-disk cache, so warm re-runs of the same
// configuration skip simulation. Set one as ExperimentOptions.Runner to
// parallelize and cache the Fig*/Table* drivers. Attach a *slog.Logger to
// Log for structured sweep progress (per-job transitions, completed/total,
// jobs/sec, ETA — what the experiment commands' -v flag does).
func NewLabRunner(workers int, cache *LabCache) *lab.Runner { return lab.New(workers, cache) }

// OpenLabCache opens (creating if needed) the result cache rooted at dir;
// "" uses the OS equivalent of ~/.cache/biglittle.
func OpenLabCache(dir string) (*LabCache, error) { return lab.Open(dir) }
