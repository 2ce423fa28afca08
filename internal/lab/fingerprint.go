package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/governor"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/sched"
	"biglittle/internal/thermal"
)

// print is the canonical, serializable view of a resolved job config. It is
// marshaled with encoding/json — which sorts map keys — and hashed, so the
// fingerprint is stable across processes and field-by-field explicit: adding
// a Config field without extending print is a (reviewable) cache-correctness
// decision, not a silent behavior change.
type print struct {
	App       string                     `json:"app"`
	Desc      string                     `json:"desc"`
	Metric    apps.Metric                `json:"metric"`
	Salt      string                     `json:"salt,omitempty"`
	Seed      int64                      `json:"seed"`
	Duration  event.Time                 `json:"duration"`
	Cores     platform.CoreConfig        `json:"cores"`
	Sched     sched.Config               `json:"sched"`
	Scheduler core.SchedulerKind         `json:"scheduler"`
	Governor  core.GovernorKind          `json:"governor"`
	Gov       governor.InteractiveConfig `json:"gov"`
	PinnedMHz map[int]int                `json:"pinned_mhz,omitempty"`
	Power     power.Params               `json:"power"`
	Platform  string                     `json:"platform,omitempty"`
	Thermal   *thermal.Params            `json:"thermal,omitempty"`

	// Fork identity: a fork-accelerated job's result depends on the prefix
	// it resumed from (variant knobs apply only from the fork point), so the
	// base config's own fingerprint and the fork time fold into the hash —
	// a forked variant never shares a cache entry with a from-scratch run
	// of the same config.
	ForkBase string     `json:"fork_base,omitempty"`
	ForkAt   event.Time `json:"fork_at,omitempty"`
}

// Fingerprint returns the content hash identifying a job's simulation, and
// whether the job is cacheable at all. Uncacheable jobs are those whose
// config carries live observers or opaque hooks that the cache could not
// replay on a hit:
//
//   - OnSystem may mutate the assembled system arbitrarily;
//   - Telemetry, Profiler, and Xray side effects (events, attribution,
//     decision spans) would be silently skipped if the result came from disk;
//   - a caller-supplied Check auditor must observe a live run to report
//     anything;
//   - a Platform constructor returning an unnamed SoC has no stable identity.
//
// Such jobs still run through the worker pool; they just always simulate.
// (The runner's own Check mode attaches its auditor after fingerprinting, so
// it does not affect cacheability.)
func Fingerprint(job Job) (string, bool) {
	var baseFp string
	if job.Fork != nil {
		var ok bool
		if baseFp, ok = Fingerprint(Job{Config: job.Fork.Base}); !ok {
			return "", false
		}
	}
	return fingerprint(job, baseFp)
}

// fingerprint is Fingerprint with a fork job's base fingerprint supplied by
// the caller, so the runner can reuse the one it memoizes per *ForkSpec
// instead of marshaling the base config again for every job.
func fingerprint(job Job, baseFp string) (string, bool) {
	cfg := job.Config.Normalized()
	if cfg.OnSystem != nil || cfg.Telemetry != nil || cfg.Profiler != nil || cfg.Xray != nil || cfg.Check != nil || cfg.Digest != nil || cfg.OnSnapshot != nil {
		return "", false
	}
	p := print{
		App:       cfg.App.Name,
		Desc:      cfg.App.Desc,
		Metric:    cfg.App.Metric,
		Salt:      job.Salt,
		Seed:      cfg.Seed,
		Duration:  cfg.Duration,
		Cores:     cfg.Cores,
		Sched:     cfg.Sched,
		Scheduler: cfg.Scheduler,
		Governor:  cfg.Governor,
		Gov:       cfg.Gov,
		PinnedMHz: cfg.PinnedMHz,
		Power:     cfg.Power,
		Thermal:   cfg.Thermal,
	}
	if cfg.Platform != nil {
		soc := cfg.Platform()
		if soc == nil || soc.Name == "" {
			return "", false
		}
		p.Platform = soc.Name
	}
	if job.Fork != nil {
		p.ForkBase = baseFp
		p.ForkAt = job.Fork.At
	}
	blob, err := json.Marshal(p)
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), true
}
