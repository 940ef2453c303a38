//! `fabric_storm`: netsim alone. A k=8 fat-tree (128 hosts) of trimming
//! switches carries a seeded `FlowSchedule::storm` plus a synchronized
//! incast burst at the start of every fabric slice, all sent by the
//! library's `ScheduledSenderApp`s (`FlowSchedule::install`).
//!
//! The simulation advances in fixed sim-time slices, one `run_until` call
//! each; a slice is this workload's step.

use crate::spans;
use std::time::Instant;
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::QueuePolicy;
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::workload::FlowSchedule;
use trimgrad::netsim::FlowId;
use trimgrad_telemetry::fnv1a;

/// Fat-tree arity.
const K: usize = 8;
/// Background flows of the storm.
pub const STORM_FLOWS: usize = 20_000;
/// Largest storm flow, bytes.
const STORM_MAX_BYTES: u64 = 30_000;
/// Sim time of one slice; an incast burst starts at every slice boundary.
const SLICE: SimTime = SimTime(10_000);
/// Slices over which flows start.
pub const SLICES: usize = 400;
/// Senders per incast burst and bytes each sends.
const FAN_IN: usize = 8;
const INCAST_BYTES: u64 = 6_000;
/// Set-ups timed per episode, for a steady `setup_s` median.
const SETUP_REPS: usize = 5;
/// Slices after the last start within which every flow must complete.
const DRAIN_SLICES: usize = 4 * SLICES;

/// Everything one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Wall time of each set-up (topology, schedule, routes, simulator,
    /// install), s.
    pub setup_s: Vec<f64>,
    /// Wall time of each slice's `run_until`, ms.
    pub slice_ms: Vec<f64>,
    /// Flows scheduled / completed.
    pub flows: usize,
    pub completed: usize,
    /// Flow completion times, µs (median and p99 of `Stats::fct_summary`).
    pub fct_us_p50: f64,
    pub fct_us_p99: f64,
    /// FNV-1a over every flow's (id, FCT) in flow order.
    pub digest: u64,
    /// Packet conservation held at the end.
    pub conserved: bool,
    pub events: u64,
    pub sent: u64,
    pub delivered: u64,
    pub trimmed: u64,
    pub dropped: u64,
    pub max_queue_bytes: u64,
    pub arena_high_water: u64,
}

/// The storm plus one incast burst per slice, merged into one schedule.
fn schedule(hosts: &[trimgrad::netsim::NodeId], seed: u64) -> FlowSchedule {
    let horizon = SimTime(SLICE.0 * SLICES as u64);
    let mut sched = FlowSchedule::storm(hosts, STORM_FLOWS, STORM_MAX_BYTES, 1500, horizon, seed);
    // Whole packets only: a short tail packet cannot be trimmed below the
    // switch's stub size, so it would be dropped and its flow never finish.
    for f in &mut sched.flows {
        f.bytes = f.bytes.next_multiple_of(u64::from(f.packet_size));
    }
    for burst in 0..SLICES {
        let incast = FlowSchedule::incast(
            hosts,
            FAN_IN,
            INCAST_BYTES,
            1500,
            seed ^ (burst as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        let base = (STORM_FLOWS + burst * FAN_IN) as u64;
        sched.flows.extend(incast.flows.into_iter().map(|mut f| {
            f.flow = FlowId(base + f.flow.0);
            f.start = SimTime(SLICE.0 * burst as u64);
            f
        }));
    }
    sched.flows.sort_by_key(|f| (f.start, f.flow));
    sched
}

/// Builds the episode's simulator: topology, schedule, routes, then
/// `Simulator` construction and `FlowSchedule::install` (the `netsim.build`
/// span when `span` is set). Returns it with the flow count.
fn set_up(seed: u64, span: bool) -> (Simulator, usize) {
    let (topo, hosts) = Topology::fat_tree(
        K,
        gbps(10.0),
        gbps(10.0),
        SimTime::from_micros(1),
        QueuePolicy::trim_default(),
    );
    let sched = schedule(&hosts, seed);
    let routes = topo.build_routes_towards(&sched.destinations());
    let _build = span.then(|| spans::enter("netsim.build"));
    let mut sim = Simulator::with_routes(topo, routes, seed);
    sched.install(&mut sim);
    (sim, sched.flows.len())
}

/// Runs one episode on `seed`: [`SETUP_REPS`] timed set-ups, then the
/// sliced run of the last one. `first_slice` numbers the episode's spans.
#[must_use]
pub fn run_episode(seed: u64, first_slice: u32) -> Episode {
    spans::set_step(first_slice);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for rep in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(set_up(seed, rep + 1 == SETUP_REPS));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (mut sim, flows) = built.expect("SETUP_REPS is at least 1");
    let mut ep = Episode {
        setup_s,
        flows,
        ..Episode::default()
    };
    let mut slice = 0usize;
    while slice < SLICES || (sim.in_flight() > 0 && slice < SLICES + DRAIN_SLICES) {
        spans::set_step(first_slice + 1 + slice as u32);
        let t0 = Instant::now();
        {
            let _run = spans::enter("netsim.run");
            sim.run_until(SimTime(SLICE.0 * (slice as u64 + 1)));
        }
        ep.slice_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        slice += 1;
    }
    let stats = sim.stats();
    let mut fct_bytes = Vec::with_capacity(flows * 16);
    for (id, rec) in stats.flows() {
        if let Some(fct) = rec.fct() {
            ep.completed += 1;
            fct_bytes.extend_from_slice(&id.0.to_le_bytes());
            fct_bytes.extend_from_slice(&fct.as_nanos().to_le_bytes());
        }
    }
    ep.digest = fnv1a(&fct_bytes);
    if let Some(s) = stats.fct_summary() {
        ep.fct_us_p50 = s.p50.as_nanos() as f64 / 1e3;
        ep.fct_us_p99 = s.p99.as_nanos() as f64 / 1e3;
    }
    ep.conserved = sim.conservation_holds();
    ep.events = sim.events_fired();
    ep.sent = stats.sent_packets();
    ep.delivered = stats.delivered_packets();
    ep.trimmed = stats.trimmed_packets();
    ep.dropped = stats.dropped_total();
    ep.max_queue_bytes = u64::from(stats.max_queue_bytes());
    ep.arena_high_water = sim.arena().high_water();
    ep
}
