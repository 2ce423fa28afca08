package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"biglittle/internal/altsched"
	"biglittle/internal/apps"
	"biglittle/internal/event"
	"biglittle/internal/governor"
	"biglittle/internal/metrics"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
	"biglittle/internal/snapshot"
	"biglittle/internal/thermal"
	"biglittle/internal/workload"
)

// gov is what every governor constructor yields: a startable policy whose
// dynamic state can be captured and restored around a fork.
type gov interface {
	Start()
	governor.Snapshotter
}

// Sim is one assembled simulation with explicit control over its clock: run
// it forward in steps with RunTo, capture a whole-simulation snapshot
// between steps, and Finish to collect the Result. Run is assembly plus
// run-to-end; NewSim/Resume expose the stepping for snapshot/fork
// (DESIGN.md §9), and Assemble/BuildPhase the phase-by-phase workload builds
// of a multi-app session.
type Sim struct {
	cfg      Config
	eng      *event.Engine
	soc      *platform.SoC
	sys      *sched.System
	eas      *altsched.EAS
	gov      gov
	sampler  *metrics.Sampler
	therm    *thermal.Model
	rng      *rand.Rand // one source for every workload built on the sim
	ctx      *workload.Ctx
	finished bool
}

// newSim assembles cfg and builds its app's workload for the whole run.
// rec, when non-nil, interposes workload recording for snapshot capture (or
// replay, when resuming).
func newSim(cfg Config, rec *workload.Recorder) *Sim {
	s := assemble(cfg)
	s.ctx = s.build(cfg.App, cfg.Duration, rec)
	return s
}

// Assemble builds cfg's platform, scheduling and frequency policies, metrics
// sampler, thermal model, and observers, but no workload: the caller adds
// workloads with BuildPhase and advances the clock with RunTo (up to
// cfg.Duration). cfg.App and the snapshot fields are ignored. This is how a
// multi-app session runs its phases on one continuous platform; Finish is
// for single-app runs and must not be called on an assembled Sim.
func Assemble(cfg Config) *Sim {
	return assemble(cfg.Normalized())
}

// assemble wires one simulation in a fixed order — the scheduler, the
// mapping policy, the governor, the sampler, the auditor, the thermal model,
// the digest recorder, then OnSystem — so engine events at equal timestamps
// always fire in the same order. The observers live on the scheduler
// system, where every subsystem reads them.
func assemble(cfg Config) *Sim {
	eng := event.New()
	var soc *platform.SoC
	switch {
	case cfg.Platform != nil:
		soc = cfg.Platform()
	case cfg.Cores.Tiny > 0:
		soc = platform.Exynos5422Tiny()
	default:
		soc = platform.Exynos5422()
	}
	if err := cfg.Cores.Apply(soc); err != nil {
		panic(err) // configurations are validated values; misuse is a bug
	}
	sys := sched.New(eng, soc, cfg.Sched)
	sys.Tel, sys.Prof, sys.Xray = cfg.Telemetry, cfg.Profiler, cfg.Xray
	pw := cfg.Power
	sys.EnergyModel = pw.MarginalMW
	sys.Start()

	sim := &Sim{cfg: cfg, eng: eng, soc: soc, sys: sys}

	switch cfg.Scheduler {
	case EfficiencyBased:
		altsched.NewEfficiency(sys)
	case ParallelismAware:
		altsched.NewParallelism(sys)
	case EAS:
		sim.eas = altsched.NewEAS(sys, cfg.Power)
	}

	switch cfg.Governor {
	case Performance:
		sim.gov = governor.NewPerformance(sys)
	case Powersave:
		sim.gov = governor.NewPowersave(sys)
	case Userspace:
		sim.gov = governor.NewUserspace(sys, cfg.PinnedMHz)
	case Ondemand:
		sim.gov = governor.NewOndemand(sys, cfg.Gov.SampleMs, 80)
	case Conservative:
		sim.gov = governor.NewConservative(sys, cfg.Gov.SampleMs, 80, 35)
	case PAST:
		sim.gov = governor.NewPAST(sys, cfg.Gov.SampleMs)
	default:
		sim.gov = governor.NewInteractive(sys, cfg.Gov)
	}
	sim.gov.Start()

	sim.sampler = metrics.NewSampler(sys, cfg.Power)
	sim.sampler.Start()

	// The auditor attaches directly after the sampler so its sampling events
	// always fire right after the sampler's and both read identical state.
	if cfg.Check != nil {
		cfg.Check.Attach(sys, pw)
	}

	if cfg.Thermal != nil {
		sim.therm = thermal.Attach(sys, cfg.Power, *cfg.Thermal)
		sim.therm.Start()
	}

	// The digest recorder subscribes last among the tick observers so its
	// fold sees the run fully assembled (thermal model included).
	cfg.Digest.Attach(sys, sim.sampler, sim.therm, cfg.Duration)

	if cfg.OnSystem != nil {
		cfg.OnSystem(sys)
	}
	sim.rng = rand.New(rand.NewSource(cfg.Seed))
	return sim
}

// BuildPhase builds app's workload from the current clock, with its
// generators stopping at end. Every phase draws from the sim's one random
// source, so a phase's workload depends on the phases before it. With
// Telemetry set, interaction latencies land in the "latency_ms" histogram.
func (s *Sim) BuildPhase(app apps.App, end event.Time) *workload.Ctx {
	return s.build(app, end, nil)
}

func (s *Sim) build(app apps.App, end event.Time, rec *workload.Recorder) *workload.Ctx {
	ctx := &workload.Ctx{
		Eng:      s.eng,
		Sys:      s.sys,
		Rng:      s.rng,
		Duration: end,
		FPS:      &metrics.FPSTracker{},
		Lat:      &metrics.LatencyTracker{},
		Rec:      rec,
	}
	if tel := s.cfg.Telemetry; tel != nil {
		lat := tel.Histogram("latency_ms")
		ctx.Lat.Observe = func(d event.Time) { lat.Observe(d.Milliseconds()) }
	}
	app.Build(ctx)
	return ctx
}

// EndPhase records a finished workload's frame intervals in the
// "frame_time_ms" telemetry histogram (a no-op without Telemetry).
func (s *Sim) EndPhase(ctx *workload.Ctx) {
	tel := s.cfg.Telemetry
	if tel == nil {
		return
	}
	ft := tel.Histogram("frame_time_ms")
	times := ctx.FPS.Times()
	for i := 1; i < len(times); i++ {
		ft.Observe((times[i] - times[i-1]).Milliseconds())
	}
}

// Sampler returns the sim's metrics sampler.
func (s *Sim) Sampler() *metrics.Sampler { return s.sampler }

// Thermal returns the sim's thermal model (nil without Config.Thermal).
func (s *Sim) Thermal() *thermal.Model { return s.therm }

// NewSim assembles a snapshot-capable simulation: the workload's
// interactions are recorded from the first event, so Snapshot can capture
// the run at any pause point. The config must not carry the observer hooks
// a resume cannot reconstruct (see snapshotCompat).
func NewSim(cfg Config) (*Sim, error) {
	cfg = cfg.Normalized()
	if err := snapshotCompat(cfg); err != nil {
		return nil, err
	}
	return newSim(cfg, workload.NewRecorder()), nil
}

// snapshotCompat rejects config hooks whose state a snapshot cannot capture
// or a resume cannot reconstruct.
func snapshotCompat(cfg Config) error {
	switch {
	case cfg.Check != nil:
		return errors.New("core: snapshot runs cannot carry a Check auditor — it schedules engine events the snapshot cannot re-bind")
	case cfg.Telemetry != nil:
		return errors.New("core: snapshot runs cannot carry Telemetry — collector state is not captured")
	case cfg.Profiler != nil:
		return errors.New("core: snapshot runs cannot carry a Profiler — attribution state is not captured")
	case cfg.Xray != nil:
		return errors.New("core: snapshot runs cannot carry an Xray tracer — trace state is not captured")
	case cfg.OnSystem != nil:
		return errors.New("core: snapshot runs cannot carry an OnSystem hook — arbitrary attachments are not captured")
	}
	return nil
}

// RunTo advances the simulation to t (capped at the configured Duration).
// It may be called repeatedly; the clock never moves backwards.
func (s *Sim) RunTo(t event.Time) {
	if t > s.cfg.Duration {
		t = s.cfg.Duration
	}
	s.eng.Run(t)
}

// Now returns the simulation clock.
func (s *Sim) Now() event.Time { return s.eng.Now() }

// Snapshot captures the complete simulator state at the current clock. The
// capture is a pure read — the simulation continues unperturbed, and a
// continued run produces results byte-identical to one that never paused.
// It fails if any pending engine event belongs to no snapshottable
// subsystem, rather than writing a snapshot that cannot restore.
func (s *Sim) Snapshot() (*snapshot.State, error) {
	rec := s.ctx.Rec
	if !rec.Recording() {
		return nil, errors.New("core: Snapshot needs a recording simulation (use NewSim, not Resume mid-replay)")
	}
	if s.finished {
		return nil, errors.New("core: Snapshot after Finish")
	}
	if s.cfg.Digest != nil && len(s.cfg.Digest.Steps()) > 0 {
		return nil, errors.New("core: cannot snapshot a run with full-rate digest steps recorded — steps are not carried across a fork")
	}
	st := &snapshot.State{
		App:            s.cfg.App.Name,
		Seed:           s.cfg.Seed,
		Cores:          s.cfg.Cores,
		CustomPlatform: s.cfg.Platform != nil,
		SchedKind:      s.cfg.Scheduler.String(),
		GovKind:        s.cfg.Governor.String(),
		Time:           s.eng.Now(),
		Duration:       s.cfg.Duration,
		Engine: snapshot.EngineSnap{
			Now:   s.eng.Now(),
			Seq:   s.eng.Scheduled(),
			Fired: s.eng.Fired(),
		},
		Workload: snapshot.WorkloadSnap{
			Log:      append([]workload.Record(nil), rec.Log()...),
			Pending:  rec.Pending(),
			Threads:  rec.ThreadCount(),
			Frames:   append([]event.Time(nil), s.ctx.FPS.Times()...),
			LatTotal: s.ctx.Lat.Total,
			LatMax:   s.ctx.Lat.Max,
			LatN:     s.ctx.Lat.N,
		},
		Sched:   s.sys.Snapshot(),
		SoC:     s.soc.Snapshot(),
		Gov:     s.gov.Snapshot(),
		Metrics: s.sampler.Snapshot(),
	}
	if s.therm != nil {
		t := s.therm.Snapshot()
		st.Thermal = &t
	}
	if s.eas != nil {
		e := s.eas.Snapshot()
		st.EAS = &e
	}
	if s.cfg.Digest != nil {
		d := s.cfg.Digest.Snapshot()
		st.Delta = &d
	}
	if got, want := st.PendingEvents(), s.eng.Pending(); got != want {
		return nil, fmt.Errorf("core: engine has %d pending events but the snapshot accounts for %d — unsnapshottable events on the queue", want, got)
	}
	return st, nil
}

// compat verifies that cfg can legally continue from st: identity fields
// must match exactly, and the horizon must not precede the capture point.
// Policy knobs (governor tuning, scheduler kind, thermal envelope) may
// differ — that is what a fork sweep varies.
func compat(cfg Config, st *snapshot.State) error {
	switch {
	case cfg.App.Name != st.App:
		return fmt.Errorf("core: resume app %q, snapshot captured %q", cfg.App.Name, st.App)
	case cfg.Seed != st.Seed:
		return fmt.Errorf("core: resume seed %d, snapshot captured %d", cfg.Seed, st.Seed)
	case cfg.Cores != st.Cores:
		return fmt.Errorf("core: resume cores %v, snapshot captured %v", cfg.Cores, st.Cores)
	case (cfg.Platform != nil) != st.CustomPlatform:
		return fmt.Errorf("core: resume and snapshot disagree on custom platform use")
	case cfg.Duration < st.Time:
		return fmt.Errorf("core: resume duration %v precedes the capture point %v", cfg.Duration, st.Time)
	}
	return nil
}

// Resume reconstructs a running simulation from a captured State: the
// workload build is re-run in replay mode to rebuild the closure graph and
// RNG position, the engine is reset to the capture point with every pending
// event re-bound under its original ordering key, and each subsystem's
// state is restored. The returned Sim records from the fork point onwards,
// so it can itself be snapshotted again.
//
// The State is read-only: Resume may be called any number of times on the
// same decoded snapshot (that is how a fork sweep shares one prefix).
func Resume(cfg Config, st *snapshot.State) (sim *Sim, err error) {
	cfg = cfg.Normalized()
	if err := snapshotCompat(cfg); err != nil {
		return nil, err
	}
	if err := compat(cfg, st); err != nil {
		return nil, err
	}
	// Replay re-enters workload closures, which report any mismatch between
	// the log and this binary/config by panicking; surface it as an error.
	defer func() {
		if r := recover(); r != nil {
			de, ok := r.(*workload.DivergenceError)
			if !ok {
				panic(r)
			}
			sim, err = nil, fmt.Errorf("core: resume: %w", de)
		}
	}()
	rec := workload.NewReplayer(st.Workload.Log)
	s := newSim(cfg, rec)
	rec.Replay(s.eng)
	if got := rec.ThreadCount(); got != st.Workload.Threads {
		return nil, fmt.Errorf("core: replayed build created %d threads, snapshot recorded %d", got, st.Workload.Threads)
	}
	s.eng.Reset(st.Engine.Now, st.Engine.Seq, st.Engine.Fired)
	if err := s.soc.Restore(&st.SoC); err != nil {
		return nil, err
	}
	if err := s.sys.Restore(&st.Sched); err != nil {
		return nil, err
	}
	// Policy state transfers only between like kinds; a different governor
	// (the classic fork-sweep case) starts fresh at the fork point instead.
	// Static governors transfer nothing either way — their operating point
	// lives in the SoC snapshot, and re-running Start here would split the
	// busy-accounting interval and break byte-identity.
	if cfg.Governor.String() == st.GovKind {
		if err := s.gov.Restore(&st.Gov); err != nil {
			return nil, err
		}
	} else {
		s.gov.Start()
	}
	if err := s.sampler.Restore(&st.Metrics); err != nil {
		return nil, err
	}
	if s.therm != nil {
		if st.Thermal != nil {
			if err := s.therm.Restore(st.Thermal); err != nil {
				return nil, err
			}
		} else {
			// The capturing run had no thermal model: this fork turns the
			// envelope on at the fork point.
			s.therm.Start()
		}
	}
	if s.eas != nil && st.EAS != nil && cfg.Scheduler.String() == st.SchedKind {
		if err := s.eas.Restore(st.EAS); err != nil {
			return nil, err
		}
	}
	if cfg.Digest != nil && st.Delta != nil {
		if err := cfg.Digest.Restore(st.Delta); err != nil {
			return nil, err
		}
	}
	rec.Resched(s.eng, st.Workload.Pending)
	// Replay rebuilt the performance trackers from the log; cross-check them
	// against the captured copies before trusting the fork.
	if err := checkTrackers(s.ctx, st); err != nil {
		return nil, err
	}
	return s, nil
}

// checkTrackers compares the replay-reconstructed FPS/latency trackers with
// the snapshot's captured copies — a disagreement means the replay was not
// faithful and the fork must not be trusted.
func checkTrackers(ctx *workload.Ctx, st *snapshot.State) error {
	times := ctx.FPS.Times()
	if len(times) != len(st.Workload.Frames) {
		return fmt.Errorf("core: replay reconstructed %d frames, snapshot captured %d", len(times), len(st.Workload.Frames))
	}
	for i := range times {
		if times[i] != st.Workload.Frames[i] {
			return fmt.Errorf("core: replayed frame %d at %v, snapshot captured %v", i, times[i], st.Workload.Frames[i])
		}
	}
	if ctx.Lat.Total != st.Workload.LatTotal || ctx.Lat.Max != st.Workload.LatMax || ctx.Lat.N != st.Workload.LatN {
		return fmt.Errorf("core: replayed latency tracker (n=%d total=%v max=%v) disagrees with snapshot (n=%d total=%v max=%v)",
			ctx.Lat.N, ctx.Lat.Total, ctx.Lat.Max, st.Workload.LatN, st.Workload.LatTotal, st.Workload.LatMax)
	}
	return nil
}

// RunForked runs cfg from scratch to at, captures a snapshot, round-trips
// it through the wire codec, and resumes it to completion — the full fork
// path in one call. The Result is byte-identical to Run(cfg)'s.
func RunForked(cfg Config, at event.Time) (Result, error) {
	cfg = cfg.Normalized()
	sim, err := NewSim(cfg)
	if err != nil {
		return Result{}, err
	}
	sim.RunTo(at)
	st, err := sim.Snapshot()
	if err != nil {
		return Result{}, err
	}
	blob, err := snapshot.Encode(st)
	if err != nil {
		return Result{}, err
	}
	decoded, err := snapshot.Decode(blob)
	if err != nil {
		return Result{}, err
	}
	forked, err := Resume(cfg, decoded)
	if err != nil {
		return Result{}, err
	}
	forked.RunTo(cfg.Duration)
	return forked.Finish(), nil
}

// Finish assembles the Result. It must be called exactly once, after the
// clock has reached the configured Duration.
func (s *Sim) Finish() Result {
	if s.finished {
		panic("core: Finish called twice")
	}
	s.finished = true
	cfg, ctx, sampler, soc, sys, therm := s.cfg, s.ctx, s.sampler, s.soc, s.sys, s.therm
	s.EndPhase(ctx)

	res := Result{
		App:       cfg.App.Name,
		Metric:    cfg.App.Metric,
		Duration:  cfg.Duration,
		Cores:     cfg.Cores,
		Scheduler: cfg.Scheduler,

		TLP:    sampler.TLP(),
		Matrix: sampler.MatrixPct(),

		AvgPowerMW: sampler.AvgPowerMW(),
		EnergyMJ:   sampler.EnergyMJ(),

		Interactions: ctx.Lat.N,
		MeanLatency:  ctx.Lat.Mean(),
		TotalLatency: ctx.Lat.Total,
		WorstLatency: ctx.Lat.Max,

		Frames: ctx.FPS.Count(),
		AvgFPS: ctx.FPS.Avg(cfg.Duration),
		MinFPS: ctx.FPS.Min(cfg.Duration),
	}
	res.Eff = sampler.EffPct()
	res.TinyActivePct = sampler.TinyActivePct()
	res.AvgLittleUtil = sampler.AvgUtil(platform.Little)
	res.AvgBigUtil = sampler.AvgUtil(platform.Big)

	lc := soc.ClusterByType(platform.Little)
	bc := soc.ClusterByType(platform.Big)
	res.LittleFreqs = lc.FreqsMHz
	res.BigFreqs = bc.FreqsMHz
	res.LittleResidency = sampler.ResidencyPct(platform.Little, lc.FreqsMHz)
	res.BigResidency = sampler.ResidencyPct(platform.Big, bc.FreqsMHz)

	for _, t := range sys.Tasks() {
		res.HMPMigrations += t.Migrations
		res.TotalWorkGc += t.TotalWork / 1e9
		res.TaskStats = append(res.TaskStats, TaskStat{
			Name:       t.Name,
			EnergyJ:    t.EnergyMJ / 1000,
			LittleMs:   t.LittleRanNs.Milliseconds(),
			BigMs:      t.BigRanNs.Milliseconds(),
			TinyMs:     t.TinyRanNs.Milliseconds(),
			Migrations: t.Migrations,
		})
	}
	sort.Slice(res.TaskStats, func(i, j int) bool {
		return res.TaskStats[i].EnergyJ > res.TaskStats[j].EnergyJ
	})
	half := cfg.Duration / 2
	res.FPSFirstHalf = float64(ctx.FPS.CountIn(0, half)) / half.Seconds()
	res.FPSSecondHalf = float64(ctx.FPS.CountIn(half, cfg.Duration)) / (cfg.Duration - half).Seconds()
	if therm != nil {
		res.MaxTempC = therm.MaxTempC
		res.ThrottledPct = therm.ThrottledPct(cfg.Duration)
	}
	if cfg.Profiler != nil {
		snap := cfg.Profiler.Snapshot(cfg.Duration)
		res.Profile = &snap
	}
	// Finish after the result is assembled so reconciliation can never
	// perturb what the caller observes.
	if cfg.Check != nil {
		cfg.Check.Finish(cfg.Duration, res.EnergyMJ)
	}
	return res
}
