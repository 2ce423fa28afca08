package biglittle

import "biglittle/internal/fleet"

// FleetOptions configures a coordinator (queue bound, lease TTL,
// attempt budget, coordinator-side cache, telemetry collector).
type FleetOptions = fleet.Options

// FleetClient talks to a coordinator. It implements the lab runner's Remote
// executor interface, so attaching one routes every fingerprintable job in
// a sweep through the fleet while everything else simulates locally.
type FleetClient = fleet.Client

// FleetWorker is one stateless executor: it leases job specs, verifies and
// runs them through its own lab runner (cache and audit mode included), and
// publishes results back with heartbeat renewal for long jobs.
type FleetWorker = fleet.Worker

// NewFleetCoordinator builds the distributed-lab control plane and starts
// its lease reaper; Close stops it. The coordinator serves an HTTP JSON job
// API (Mount) over a bounded pending queue, a lease table with expiry and
// bounded retries, and Prometheus fleet metrics. blserve hosts one;
// stateless blworker processes pull leases from it.
func NewFleetCoordinator(opt FleetOptions) *fleet.Coordinator { return fleet.NewCoordinator(opt) }
