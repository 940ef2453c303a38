//! The two training workloads: the Fig 3/4 step with the in-process
//! trimming channel (`train_inproc`), and the same step with its
//! all-reduce run as the library's `RingWorkerApp`s through a fabric of
//! trimming switches (`train_fabric`).
//!
//! Both run the library's `DataParallelTrainer` on `standard_task`,
//! `standard_config` and `MODEL_DIMS`; the benchmark only supplies the
//! `AggregateHook` and times the public calls from outside.

use crate::spans::{self, Callback};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use trimgrad::collective::hooks::{AggregateHook, TrimmableHook};
use trimgrad::collective::ring_netsim::{RingNetConfig, RingWorkerApp};
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::mltrain::parallel::DataParallelTrainer;
use trimgrad::netsim::host::{App, HostApi};
use trimgrad::netsim::packet::{Packet, PacketBody};
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::{FullAction, QueuePolicy};
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::{Routes, Topology};
use trimgrad::netsim::workload::{FlowSchedule, FlowSpec};
use trimgrad::netsim::{FlowId, NodeId};
use trimgrad::Scheme;
use trimgrad_bench::{
    hook_for, standard_config, standard_task, ExpConfig, MODEL_DIMS, TASK_SEED, WORKERS,
};
use trimgrad_telemetry::{fnv1a, Counter};

/// Encoding of both training workloads (the Fig 3/4 `rht`).
pub const SCHEME: Scheme = Scheme::RhtOneBit;
/// Trim probability injected by the in-process channel.
pub const INJECTED_TRIM: f64 = 0.10;
/// Training steps in one episode; every episode of a run replays the same
/// seed from a fresh trainer.
pub const STEPS_PER_EPISODE: usize = 400;
/// Set-ups timed per episode, for a steady `setup_s` median.
pub const SETUP_REPS: usize = 5;
/// Steps averaged into `final_loss`.
const FINAL_LOSS_WINDOW: usize = 20;
/// Row length of the fabric codec: shorter than a ring segment
/// (`6922 / 4` coordinates), so each segment spans four rows.
const FABRIC_ROW_LEN: usize = 512;
/// Sim-time budget of one all-reduce; an exchange still running then fails.
const EXCHANGE_LIMIT: SimTime = SimTime(100_000_000);

/// Which exchange path a training workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `TrimmableHook`'s in-process channel with injected trimming.
    InProcess,
    /// `RingWorkerApp`s on a fresh `Simulator` per step.
    Fabric,
}

/// Netsim counters of one step's simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricCounters {
    /// Events dispatched.
    pub events: u64,
    /// Packets sent / delivered / trimmed / dropped by the fabric.
    pub sent: u64,
    pub delivered: u64,
    pub trimmed: u64,
    pub dropped: u64,
    /// Deepest data queue seen, bytes.
    pub max_queue_bytes: u64,
    /// Peak live packet boxes.
    pub arena_high_water: u64,
}

/// What the hook recorded about the latest exchange. The trainer owns the
/// hook, so the hook and the episode loop share this behind a mutex.
#[derive(Debug, Default)]
struct ExchangeLog {
    grads: Vec<Vec<f32>>,
    views: Vec<Vec<f32>>,
    /// Every worker finished the exchange.
    finished: bool,
    /// Gradient packets trimmed / received so far (cumulative).
    trimmed: u64,
    received: u64,
    rejected_frames: u64,
    /// Simulated all-reduce time of the latest exchange, ns.
    sim_ns: Option<u64>,
    conserved: bool,
    callbacks: u64,
    fabric: FabricCounters,
    /// `collective.rank.*.step_time_ns` buckets, summed (traced runs only).
    protostep_buckets: Vec<u64>,
    protostep_count: u64,
}

type SharedLog = Arc<Mutex<ExchangeLog>>;

fn lock(log: &SharedLog) -> MutexGuard<'_, ExchangeLog> {
    log.lock()
        .expect("exchange log poisoned by a panicking step")
}

/// Copies `grads` and `views` into the log, reusing its buffers.
fn record_vectors(log: &mut ExchangeLog, grads: &[Vec<f32>], views: &[Vec<f32>]) {
    log.grads.resize_with(grads.len(), Vec::new);
    log.views.resize_with(views.len(), Vec::new);
    for (dst, src) in log.grads.iter_mut().zip(grads) {
        dst.clone_from(src);
    }
    for (dst, src) in log.views.iter_mut().zip(views) {
        dst.clone_from(src);
    }
}

/// The library's `TrimmableHook`, logged.
struct InProcessHook {
    inner: TrimmableHook,
    log: SharedLog,
}

impl AggregateHook for InProcessHook {
    fn aggregate(&mut self, grads: &[Vec<f32>], epoch: u32, round: u32) -> Vec<Vec<f32>> {
        let _span = spans::enter("exchange");
        let views = self.inner.aggregate(grads, epoch, round);
        let stats = self.inner.inject_stats();
        let mut log = lock(&self.log);
        record_vectors(&mut log, grads, &views);
        log.finished = true;
        log.trimmed = stats.trimmed;
        log.received = stats.total();
        log.conserved = true;
        views
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The `TrimmableHook` that `hook_for` builds for the Fig 3/4 `rht` run at
/// [`INJECTED_TRIM`], kept concrete so its `inject_stats` stay readable.
fn inprocess_hook(seed: u64) -> TrimmableHook {
    TrimmableHook::new(SCHEME, WORKERS, INJECTED_TRIM, 0.0, 1 << 12, seed ^ 0x7172)
}

fn fig34_config(seed: u64) -> ExpConfig {
    ExpConfig {
        scheme: Some(SCHEME),
        congestion: INJECTED_TRIM,
        seed,
    }
}

/// Checks that [`inprocess_hook`] aggregates bit-identically to the hook
/// `hook_for` returns, on two rounds of seeded gradients.
pub fn inprocess_hook_matches_library(seed: u64) -> bool {
    let mut ours = inprocess_hook(seed);
    let mut library = hook_for(&fig34_config(seed));
    let mut rng = Xoshiro256StarStar::new(seed ^ 0x6B);
    (0..2).all(|round| {
        let grads: Vec<Vec<f32>> = (0..WORKERS)
            .map(|_| (0..5000).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
            .collect();
        ours.aggregate(&grads, 0, round) == library.aggregate(&grads, 0, round)
    })
}

/// The fabric every `train_fabric` step runs on: two racks of four hosts
/// under one spine, all links 10 Gb/s, shallow trimming buffers. The ring
/// alternates racks, so every ring hop crosses a leaf uplink that the
/// cross-traffic hosts (two per rack, sending to the other rack) share.
struct Fabric {
    topo: Topology,
    routes: Routes,
    ring: Vec<NodeId>,
    cross_src: Vec<NodeId>,
    cross_dst: Vec<NodeId>,
}

impl Fabric {
    fn build() -> Self {
        let policy = QueuePolicy {
            data_capacity: 24_000,
            prio_capacity: 1 << 20,
            ecn_threshold: None,
            action: FullAction::Trim { grad_depth: 1 },
        };
        let (topo, hosts) = Topology::leaf_spine(
            2,
            4,
            1,
            gbps(10.0),
            gbps(10.0),
            SimTime::from_micros(1),
            policy,
        );
        let routes = topo.build_routes();
        Self {
            topo,
            routes,
            ring: vec![hosts[0], hosts[4], hosts[1], hosts[5]],
            cross_src: vec![hosts[2], hosts[3], hosts[6], hosts[7]],
            cross_dst: vec![hosts[6], hosts[7], hosts[2], hosts[3]],
        }
    }

    /// Seeded cross-traffic of one step: every cross host sends one flow of
    /// 8–39 full-size packets to the other rack, starting within the first
    /// 60 µs.
    fn cross_traffic(&self, rng: &mut Xoshiro256StarStar) -> FlowSchedule {
        let mut flows: Vec<FlowSpec> = self
            .cross_src
            .iter()
            .zip(&self.cross_dst)
            .enumerate()
            .map(|(i, (&src, &dst))| FlowSpec {
                src,
                dst,
                flow: FlowId(i as u64),
                bytes: 1500 * (8 + rng.next_u64() % 32),
                packet_size: 1500,
                start: SimTime(rng.next_u64() % 60_000),
            })
            .collect();
        flows.sort_by_key(|f| (f.start, f.flow));
        FlowSchedule { flows }
    }
}

/// A `RingWorkerApp` whose callbacks are timed from outside and classified
/// by whether they applied a protocol step (read from the rank's
/// `steps_applied` counter through `HostApi::telemetry`).
struct TimedWorker {
    inner: RingWorkerApp,
    rank: usize,
    steps_applied: Option<Counter>,
    callbacks: u64,
}

impl TimedWorker {
    fn applied(&mut self, api: &HostApi) -> u64 {
        let rank = self.rank;
        self.steps_applied
            .get_or_insert_with(|| {
                api.telemetry()
                    .counter(&format!("collective.rank.{rank}.steps_applied"))
            })
            .get()
    }
}

impl App for TimedWorker {
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }

    fn on_start(&mut self, api: &mut HostApi) {
        self.callbacks += 1;
        let t0 = Instant::now();
        self.inner.on_start(api);
        spans::callback(Callback::Start, t0, Instant::now());
    }

    fn on_packet(&mut self, pkt: Packet, api: &mut HostApi) {
        self.callbacks += 1;
        if !spans::enabled() {
            self.inner.on_packet(pkt, api);
            return;
        }
        let meta = matches!(pkt.body, PacketBody::GradMeta(_));
        let before = self.applied(api);
        let t0 = Instant::now();
        self.inner.on_packet(pkt, api);
        let t1 = Instant::now();
        let kind = if self.applied(api) > before {
            Callback::Apply
        } else if meta {
            Callback::Meta
        } else {
            Callback::Ingest
        };
        spans::callback(kind, t0, t1);
    }
}

/// The fabric exchange: each step installs the library's `RingWorkerApp`s
/// and seeded cross-traffic on a fresh `Simulator` and runs it — the job of
/// `run_ring_allreduce`, except that an unfinished exchange is counted as a
/// failed step (each worker keeps its local gradient) instead of panicking.
struct FabricHook {
    fabric: Fabric,
    seed: u64,
    bytes_sent: u64,
    log: SharedLog,
}

/// The seed of round `round`'s exchange: codec, cross-traffic and fabric.
fn mix(seed: u64, round: u32) -> u64 {
    seed ^ u64::from(round).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl AggregateHook for FabricHook {
    fn aggregate(&mut self, grads: &[Vec<f32>], epoch: u32, round: u32) -> Vec<Vec<f32>> {
        let _span = spans::enter("exchange");
        let step_seed = mix(self.seed, round);
        let w = grads.len();
        let cfg = RingNetConfig {
            scheme: SCHEME,
            row_len: FABRIC_ROW_LEN,
            base_seed: step_seed,
            epoch,
            mtu: 1500,
            hosts: self.fabric.ring.clone(),
            blob_len: grads[0].len(),
            flow_base: 0,
        };
        let (mut sim, cross) = {
            let _build = spans::enter("netsim.build");
            let mut sim = Simulator::with_routes(
                self.fabric.topo.clone(),
                self.fabric.routes.clone(),
                step_seed,
            );
            let cross = self
                .fabric
                .cross_traffic(&mut Xoshiro256StarStar::new(step_seed));
            cross.install(&mut sim);
            for (rank, g) in grads.iter().enumerate() {
                let inner = RingWorkerApp::new(cfg.clone(), rank, g.clone());
                sim.install_app(
                    cfg.hosts[rank],
                    Box::new(TimedWorker {
                        inner,
                        rank,
                        steps_applied: None,
                        callbacks: 0,
                    }),
                );
            }
            (sim, cross)
        };
        {
            let _run = spans::enter("netsim.run");
            sim.run_until(EXCHANGE_LIMIT);
        }
        let mut finished = true;
        let (mut trimmed, mut received, mut rejected, mut callbacks) = (0, 0, 0, 0);
        let mut views = Vec::with_capacity(w);
        for (rank, &host) in cfg.hosts.iter().enumerate() {
            let worker: &TimedWorker = sim
                .app_ref(host)
                .expect("a TimedWorker was installed on every ring host");
            finished &= worker.inner.is_done();
            trimmed += worker.inner.trimmed_received;
            received += worker.inner.packets_received;
            rejected += worker.inner.rejected_frames;
            callbacks += worker.callbacks;
            self.bytes_sent += sim
                .registry()
                .counter(&format!("collective.rank.{rank}.bytes_sent"))
                .get();
            views.push(worker.inner.blob().iter().map(|v| v / w as f32).collect());
        }
        if !finished {
            views = grads.to_vec();
        }
        let is_cross = |f: &FlowId| cross.flows.iter().any(|c| c.flow == *f);
        let sim_ns = sim
            .stats()
            .flows()
            .filter(|(f, _)| !is_cross(f))
            .map(|(_, r)| r.fct().map(SimTime::as_nanos))
            .collect::<Option<Vec<u64>>>()
            .and_then(|fcts| fcts.into_iter().max())
            .filter(|_| finished);
        let stats = sim.stats();
        let fabric = FabricCounters {
            events: sim.events_fired(),
            sent: stats.sent_packets(),
            delivered: stats.delivered_packets(),
            trimmed: stats.trimmed_packets(),
            dropped: stats.dropped_total(),
            max_queue_bytes: u64::from(stats.max_queue_bytes()),
            arena_high_water: sim.arena().high_water(),
        };
        let mut log = lock(&self.log);
        if spans::enabled() {
            let snap = sim.registry().snapshot();
            for rank in 0..w {
                if let Some((count, _, buckets)) =
                    snap.histogram(&format!("collective.rank.{rank}.step_time_ns"))
                {
                    log.protostep_buckets.resize(buckets.len(), 0);
                    for (acc, b) in log.protostep_buckets.iter_mut().zip(buckets) {
                        *acc += b;
                    }
                    log.protostep_count += count;
                }
            }
        }
        record_vectors(&mut log, grads, &views);
        log.finished = finished;
        log.trimmed += trimmed;
        log.received += received;
        log.rejected_frames += rejected;
        log.callbacks += callbacks;
        log.sim_ns = sim_ns;
        log.conserved = sim.conservation_holds();
        log.fabric = fabric;
        views
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    fn name(&self) -> String {
        format!("{}-fabric", SCHEME.name())
    }
}

/// Everything one episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Wall time of each set-up (dataset, trainer, hook, fabric), s.
    pub setup_s: Vec<f64>,
    /// Wall time of each `run_round`, ms.
    pub step_ms: Vec<f64>,
    /// Mean training loss of each step.
    pub losses: Vec<f32>,
    /// Worker 0's test top-1 after the last step.
    pub final_top1: f64,
    /// FNV-1a of worker 0's final parameters.
    pub digest: u64,
    /// Per step and worker: NMSE of the view against the exact mean.
    pub nmse: Vec<f64>,
    /// Steps that failed: the exchange did not finish on every worker or
    /// the loss was not finite.
    pub failed: usize,
    /// Steps whose loss was not finite.
    pub nonfinite: usize,
    /// Steps after which the fabric violated packet conservation.
    pub unconserved: usize,
    /// Gradient packets trimmed / received, and frames rejected.
    pub trimmed: u64,
    pub received: u64,
    pub rejected_frames: u64,
    /// Gradient wire bytes over the episode.
    pub wire_bytes: u64,
    /// Ring `App` callbacks over the episode.
    pub callbacks: u64,
    /// Simulated all-reduce time of each finished fabric step, µs.
    pub sim_step_us: Vec<f64>,
    /// Per-step fabric counters.
    pub fabric: Vec<FabricCounters>,
    /// Summed protocol-step histogram (traced fabric runs).
    pub protostep_buckets: Vec<u64>,
    pub protostep_count: u64,
}

impl Episode {
    /// Mean loss over the last [`FINAL_LOSS_WINDOW`] steps.
    #[must_use]
    pub fn final_loss(&self) -> f64 {
        let tail = &self.losses[self.losses.len().saturating_sub(FINAL_LOSS_WINDOW)..];
        tail.iter().map(|&l| f64::from(l)).sum::<f64>() / tail.len().max(1) as f64
    }
}

/// Builds what a training episode needs: dataset, trainer (model init) and
/// hook, with the fabric's topology and routes on the fabric path.
fn set_up(path: Path, seed: u64) -> (DataParallelTrainer, SharedLog) {
    let (train, test) = standard_task(TASK_SEED);
    let log = SharedLog::default();
    let hook: Box<dyn AggregateHook> = match path {
        Path::InProcess => Box::new(InProcessHook {
            inner: inprocess_hook(seed),
            log: Arc::clone(&log),
        }),
        Path::Fabric => Box::new(FabricHook {
            fabric: Fabric::build(),
            seed,
            bytes_sent: 0,
            log: Arc::clone(&log),
        }),
    };
    let trainer = DataParallelTrainer::new(&MODEL_DIMS, train, test, hook, standard_config(seed));
    (trainer, log)
}

/// Runs one episode: [`SETUP_REPS`] timed set-ups, then
/// [`STEPS_PER_EPISODE`] timed `run_round` calls on the last one, then one
/// evaluation. `first_step` numbers the episode's spans.
#[must_use]
pub fn run_episode(path: Path, seed: u64, first_step: u32) -> Episode {
    let mut ep = Episode::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(set_up(path, seed));
        ep.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (mut trainer, log) = built.expect("SETUP_REPS is at least 1");
    for i in 0..STEPS_PER_EPISODE {
        spans::set_step(first_step + i as u32);
        let t0 = Instant::now();
        let round = {
            let _step = spans::enter("step");
            trainer.run_round()
        };
        ep.step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ep.losses.push(round.loss);
        let finite = round.loss.is_finite();
        ep.nonfinite += usize::from(!finite);
        let entry = lock(&log);
        ep.failed += usize::from(!(finite && entry.finished));
        let exact = exact_mean(&entry.grads);
        ep.nmse.extend(
            entry
                .views
                .iter()
                .map(|v| trimgrad::quant::error::nmse(v, &exact)),
        );
        ep.unconserved += usize::from(!entry.conserved);
        if let Some(ns) = entry.sim_ns {
            ep.sim_step_us.push(ns as f64 / 1e3);
        }
        if path == Path::Fabric {
            ep.fabric.push(entry.fabric);
        }
    }
    let log = lock(&log);
    ep.trimmed = log.trimmed;
    ep.received = log.received;
    ep.rejected_frames = log.rejected_frames;
    ep.callbacks = log.callbacks;
    ep.protostep_buckets.clone_from(&log.protostep_buckets);
    ep.protostep_count = log.protostep_count;
    ep.wire_bytes = trainer.bytes_sent();
    ep.final_top1 = trainer.evaluate().0;
    let params = trainer.params_of_worker0();
    let bytes: Vec<u8> = params.iter().flat_map(|p| p.to_le_bytes()).collect();
    ep.digest = fnv1a(&bytes);
    ep
}

fn exact_mean(grads: &[Vec<f32>]) -> Vec<f32> {
    let w = grads.len() as f32;
    (0..grads[0].len())
        .map(|j| grads.iter().map(|g| g[j]).sum::<f32>() / w)
        .collect()
}
