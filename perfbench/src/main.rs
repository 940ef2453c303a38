//! The trimgrad benchmark: the training step in-process and through the
//! trimming fabric, a fabric-only storm, and a per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_inproc|train_fabric|fabric_storm> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untimed by spans and reports the end-to-end
//! metrics; with `--trace 1` it alternates untraced and traced episodes and
//! reports the per-layer ledger from the traced ones, plus the tracing
//! overhead. Either way it prints a human-readable report, runs the
//! correctness checks, and ends with one JSON line. It exits 1 when a check
//! fails and 2 on bad arguments. See `perfbench/README.md`.

mod probe;
mod spans;
mod stats;
mod storm;
mod train;

use spans::Span;
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker-pool width (`TRIMGRAD_THREADS`) of every workload.
const POOL_WIDTH: usize = 1;
/// Step samples an untraced run collects at least, so that ten lie beyond
/// its p99.
const MIN_STEP_SAMPLES: usize = 1000;
/// Wall time after which a run stops starting episodes, whatever it lacks.
const HARD_CAP_S: f64 = 120.0;

/// End-to-end metrics: name and unit (`BENCHMARK.json` `end_to_end`).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("step_wall_ms_p99", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Unbounded metrics: the step median and throughput, the per-layer
/// ledger, and run outcomes; name and unit (`BENCHMARK.json` `per_layer`).
pub const PER_LAYER: [(&str, &str); 33] = [
    ("steps_per_s", "1/s"),
    ("step_wall_ms_p50", "ms"),
    ("mltrain.compute_ms", "ms"),
    ("collective.exchange_ms", "ms"),
    ("collective.exchange_self_ms", "ms"),
    ("collective.wire_bytes", "bytes"),
    ("collective.trim_frac", "fraction"),
    ("ring.start_ms", "ms"),
    ("ring.ingest_ms", "ms"),
    ("ring.apply_ms", "ms"),
    ("ring.meta_ms", "ms"),
    ("ring.callbacks", "count"),
    ("ring.rejected_frames", "count"),
    ("ring.protostep_sim_us_p50", "sim_us"),
    ("netsim.build_ms", "ms"),
    ("netsim.self_ms", "ms"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.trimmed", "count"),
    ("netsim.dropped", "count"),
    ("netsim.delivery_ratio", "fraction"),
    ("netsim.max_queue_bytes", "bytes"),
    ("netsim.arena_high_water", "count"),
    ("trace.overhead_pct", "%"),
    ("final_loss", "nats"),
    ("final_top1", "fraction"),
    ("grad_nmse", "ratio"),
    ("sim_step_us_p50", "sim_us"),
    ("sim_step_us_p99", "sim_us"),
    ("flows_per_s", "1/s"),
    ("fct_us_p50", "sim_us"),
    ("fct_us_p99", "sim_us"),
    ("fail_frac", "fraction"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig 3/4 step with the in-process trimming channel.
    TrainInproc,
    /// The same step, all-reduce through the trimming fabric.
    TrainFabric,
    /// netsim alone: fat-tree storm plus incast bursts.
    FabricStorm,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::TrainInproc,
        Workload::TrainFabric,
        Workload::FabricStorm,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::TrainInproc => "train_inproc",
            Workload::TrainFabric => "train_fabric",
            Workload::FabricStorm => "fabric_storm",
        }
    }

    /// Bound on the mean `grad_nmse` of the training workloads.
    fn nmse_bound(self) -> f64 {
        match self {
            Workload::TrainInproc => 0.08,
            Workload::TrainFabric => 0.4,
            Workload::FabricStorm => f64::INFINITY,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// One correctness check.
#[derive(Debug, Clone)]
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

#[derive(Debug, Default)]
struct Report {
    metrics: Vec<Metric>,
    checks: Vec<Check>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    /// Records `name` (which must be in [`END_TO_END`] or [`PER_LAYER`]).
    fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric '{name}' is in neither table"));
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().rev().find(|m| m.name == name)
    }

    /// The result line: every metric of `table`, which must all be present
    /// and finite.
    fn json(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut body = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric '{name}' was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric '{name}' is {}", m.value));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                m.value
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}

/// Self time summed per span name over `spans`, plus busy time per name.
fn span_totals(spans: &[Span], selfs: &[u64]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += s.busy_ns;
    }
    out
}

/// Per-name (self, busy) ns of each traced episode. Records one check that
/// every step's self times sum to its duration.
fn ledgers<'a>(
    r: &mut Report,
    episodes: impl Iterator<Item = &'a [Span]>,
) -> Vec<BTreeMap<&'static str, (u64, u64)>> {
    let mut steps = 0;
    let mut first_error = None;
    let mut out = Vec::new();
    for spans in episodes {
        let checked = spans::self_times(spans).and_then(|selfs| {
            steps += spans::check_step_sums(spans, &selfs)?;
            Ok(span_totals(spans, &selfs))
        });
        match checked {
            Ok(totals) => out.push(totals),
            Err(e) => {
                first_error.get_or_insert(e);
                out.push(BTreeMap::new());
            }
        }
    }
    if !out.is_empty() {
        r.check(
            "span self times sum to each step's duration",
            first_error.is_none(),
            first_error.unwrap_or_else(|| format!("{steps} steps")),
        );
    }
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Records `setup_s`, `steps_per_s` and the step-wall percentiles.
/// `check_tail` verifies that ten samples lie beyond the p99.
fn wall_metrics(r: &mut Report, setups: &[f64], step_ms: &[f64], check_tail: bool) {
    r.metric("setup_s", stats::median(setups), setups.len());
    let busy_s = step_ms.iter().sum::<f64>() / 1e3;
    r.metric(
        "steps_per_s",
        stats::ratio(step_ms.len() as f64, busy_s),
        step_ms.len(),
    );
    let sorted = stats::sorted(step_ms);
    r.metric(
        "step_wall_ms_p50",
        stats::quantile_sorted(&sorted, 500),
        step_ms.len(),
    );
    r.metric(
        "step_wall_ms_p99",
        stats::quantile_sorted(&sorted, 990),
        step_ms.len(),
    );
    let n = step_ms.len();
    r.notes.push(format!(
        "tail rule: of {n} steps, {} lie beyond the p99; the highest percentile with >= {} beyond is p{}",
        stats::beyond(n, 990),
        stats::MIN_BEYOND,
        stats::tail_per_mille(n).map_or_else(|| "-".into(), |pm| (pm as f64 / 10.0).to_string())
    ));
    if check_tail {
        r.check(
            "at least ten samples beyond the p99",
            stats::beyond(n, 990) >= stats::MIN_BEYOND,
            format!("{n} samples"),
        );
    }
}

/// Notes each untraced episode's median step time, which shows whether a
/// run's spread comes from within the run or between runs.
fn episode_medians<'a>(r: &mut Report, episodes: impl Iterator<Item = &'a [f64]>) {
    let medians: Vec<String> = episodes
        .map(|ms| format!("{:.4}", stats::median(ms)))
        .collect();
    r.notes
        .push(format!("episode step medians (ms): {}", medians.join(" ")));
}

fn digests_agree(r: &mut Report, digests: &[u64]) {
    let all_same = digests.windows(2).all(|w| w[0] == w[1]);
    r.check(
        "same seed, same digest in every episode",
        digests.len() >= 2 && all_same,
        format!(
            "{} episodes, digest {:016x}",
            digests.len(),
            digests.first().copied().unwrap_or(0)
        ),
    );
}

/// Summarizes the training workloads. `plain` are untraced episodes,
/// `traced` traced ones with their spans.
fn summarize_train(
    r: &mut Report,
    w: Workload,
    plain: &[train::Episode],
    traced: &[(train::Episode, Vec<Span>)],
) {
    let all: Vec<&train::Episode> = plain.iter().chain(traced.iter().map(|(e, _)| e)).collect();
    let steps: usize = all.iter().map(|e| e.step_ms.len()).sum();
    let failed: usize = all.iter().map(|e| e.failed).sum();
    r.attempted = steps as u64;
    r.failed = failed as u64;

    let setups: Vec<f64> = all.iter().flat_map(|e| e.setup_s.iter().copied()).collect();
    let step_ms: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.step_ms.iter().copied())
        .collect();
    wall_metrics(r, &setups, &step_ms, traced.is_empty());
    episode_medians(r, plain.iter().map(|e| e.step_ms.as_slice()));

    // Outcomes repeat exactly for a seed: report the first episode's.
    let first = all[0];
    r.metric("final_loss", first.final_loss(), first.losses.len().min(20));
    r.metric("final_top1", first.final_top1, 1);
    r.metric("grad_nmse", stats::mean(&first.nmse), first.nmse.len());
    let sim = stats::sorted(&first.sim_step_us);
    let (p50, p99) = if sim.is_empty() {
        (0.0, 0.0)
    } else {
        (
            stats::quantile_sorted(&sim, 500),
            stats::quantile_sorted(&sim, 990),
        )
    };
    r.metric("sim_step_us_p50", p50, sim.len());
    r.metric("sim_step_us_p99", p99, sim.len());
    r.metric("flows_per_s", 0.0, 0);
    r.metric("fct_us_p50", 0.0, 0);
    r.metric("fct_us_p99", 0.0, 0);
    r.metric(
        "fail_frac",
        stats::ratio(failed as f64, steps as f64),
        steps,
    );

    let nonfinite: usize = all.iter().map(|e| e.nonfinite).sum();
    r.check(
        "every step's loss is finite",
        nonfinite == 0,
        format!("{nonfinite} non-finite"),
    );
    let grad_nmse = stats::mean(&first.nmse);
    r.check(
        "grad_nmse below the workload's bound",
        grad_nmse < w.nmse_bound(),
        format!("{grad_nmse:.5} < {}", w.nmse_bound()),
    );
    digests_agree(r, &all.iter().map(|e| e.digest).collect::<Vec<_>>());
    if w == Workload::TrainFabric {
        let bad: usize = all.iter().map(|e| e.unconserved).sum();
        r.check(
            "packet conservation after every fabric step",
            bad == 0,
            format!("{bad} of {steps} steps violated it"),
        );
    }

    // Per-layer ledger, per step, from the traced episodes.
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for ledger in ledgers(r, traced.iter().map(|(_, s)| s.as_slice())) {
        for (name, (own, busy)) in ledger {
            let e = totals.entry(name).or_default();
            e.0 += own;
            e.1 += busy;
        }
    }
    let t_eps: Vec<&train::Episode> = traced.iter().map(|(e, _)| e).collect();
    let t_steps: usize = t_eps.iter().map(|e| e.step_ms.len()).sum::<usize>().max(1);
    let per_step = |name: &str, busy: bool| {
        totals.get(name).map_or(0.0, |&(own, all)| {
            ms(if busy { all } else { own }) / t_steps as f64
        })
    };
    r.metric("mltrain.compute_ms", per_step("step", false), t_steps);
    r.metric(
        "collective.exchange_ms",
        per_step("exchange", true),
        t_steps,
    );
    r.metric(
        "collective.exchange_self_ms",
        per_step("exchange", false),
        t_steps,
    );
    r.metric("ring.start_ms", per_step("ring.start", true), t_steps);
    r.metric("ring.ingest_ms", per_step("ring.ingest", true), t_steps);
    r.metric("ring.apply_ms", per_step("ring.apply", true), t_steps);
    r.metric("ring.meta_ms", per_step("ring.meta", true), t_steps);
    r.metric("netsim.build_ms", per_step("netsim.build", true), t_steps);
    let run_self_ms = per_step("netsim.run", false);
    r.metric("netsim.self_ms", run_self_ms, t_steps);

    let sum = |f: &dyn Fn(&train::Episode) -> u64| t_eps.iter().map(|e| f(e)).sum::<u64>();
    let per = |x: u64| x as f64 / t_steps as f64;
    r.metric(
        "collective.wire_bytes",
        per(sum(&|e| e.wire_bytes)),
        t_steps,
    );
    r.metric(
        "collective.trim_frac",
        stats::ratio(sum(&|e| e.trimmed) as f64, sum(&|e| e.received) as f64),
        sum(&|e| e.received) as usize,
    );
    r.metric("ring.callbacks", per(sum(&|e| e.callbacks)), t_steps);
    r.metric(
        "ring.rejected_frames",
        sum(&|e| e.rejected_frames) as f64 / t_eps.len().max(1) as f64,
        t_eps.len(),
    );
    let mut buckets: Vec<u64> = Vec::new();
    let mut count = 0;
    for e in &t_eps {
        buckets.resize(buckets.len().max(e.protostep_buckets.len()), 0);
        for (acc, b) in buckets.iter_mut().zip(&e.protostep_buckets) {
            *acc += b;
        }
        count += e.protostep_count;
    }
    r.metric(
        "ring.protostep_sim_us_p50",
        trimgrad_telemetry::histogram_quantile(count, &buckets, 0.5) / 1e3,
        count as usize,
    );
    let fab = |f: &dyn Fn(&train::FabricCounters) -> u64| {
        t_eps
            .iter()
            .flat_map(|e| e.fabric.iter())
            .map(f)
            .collect::<Vec<u64>>()
    };
    let events: u64 = fab(&|c| c.events).iter().sum();
    r.metric("netsim.events", per(events), t_steps);
    r.metric(
        "netsim.events_per_s",
        stats::ratio(events as f64, run_self_ms * t_steps as f64 / 1e3),
        t_steps,
    );
    r.metric(
        "netsim.trimmed",
        per(fab(&|c| c.trimmed).iter().sum()),
        t_steps,
    );
    r.metric(
        "netsim.dropped",
        per(fab(&|c| c.dropped).iter().sum()),
        t_steps,
    );
    r.metric(
        "netsim.delivery_ratio",
        stats::ratio(
            fab(&|c| c.delivered).iter().sum::<u64>() as f64,
            fab(&|c| c.sent).iter().sum::<u64>() as f64,
        ),
        t_steps,
    );
    let max = |v: Vec<u64>| v.into_iter().max().unwrap_or(0) as f64;
    r.metric(
        "netsim.max_queue_bytes",
        max(fab(&|c| c.max_queue_bytes)),
        t_steps,
    );
    r.metric(
        "netsim.arena_high_water",
        max(fab(&|c| c.arena_high_water)),
        t_steps,
    );

    // Tracing overhead: traced against untraced step p50.
    let traced_ms: Vec<f64> = t_eps
        .iter()
        .flat_map(|e| e.step_ms.iter().copied())
        .collect();
    let overhead = if traced_ms.is_empty() || step_ms.is_empty() {
        0.0
    } else {
        (stats::median(&traced_ms) / stats::median(&step_ms) - 1.0) * 100.0
    };
    r.metric("trace.overhead_pct", overhead, traced_ms.len());
    if !traced.is_empty() {
        let step_mean = stats::mean(&traced_ms);
        let parts = [
            ("mltrain.compute", per_step("step", false)),
            ("exchange (hook self)", per_step("exchange", false)),
            ("netsim.build", per_step("netsim.build", true)),
            ("netsim.self", run_self_ms),
            ("ring.start", per_step("ring.start", true)),
            ("ring.ingest", per_step("ring.ingest", true)),
            ("ring.apply", per_step("ring.apply", true)),
            ("ring.meta", per_step("ring.meta", true)),
        ];
        let split: Vec<String> = parts
            .iter()
            .filter(|(_, v)| *v > 0.0)
            .map(|(n, v)| format!("{n} {v:.4} ms ({:.1}%)", 100.0 * v / step_mean))
            .collect();
        r.notes.push(format!(
            "step split (traced mean {step_mean:.4} ms): {}",
            split.join(", ")
        ));
    }
}

/// Summarizes `fabric_storm`; per-layer numbers are per episode.
fn summarize_storm(
    r: &mut Report,
    plain: &[storm::Episode],
    traced: &[(storm::Episode, Vec<Span>)],
) {
    let all: Vec<&storm::Episode> = plain.iter().chain(traced.iter().map(|(e, _)| e)).collect();
    let flows: usize = all.iter().map(|e| e.flows).sum();
    let incomplete: usize = all.iter().map(|e| e.flows - e.completed).sum();
    r.attempted = flows as u64;
    r.failed = incomplete as u64;

    let setups: Vec<f64> = all.iter().flat_map(|e| e.setup_s.iter().copied()).collect();
    let slice_ms: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.slice_ms.iter().copied())
        .collect();
    wall_metrics(r, &setups, &slice_ms, traced.is_empty());
    episode_medians(r, plain.iter().map(|e| e.slice_ms.as_slice()));
    let flows_per_s = |eps: &[&storm::Episode]| {
        let done: usize = eps.iter().map(|e| e.completed).sum();
        let secs: f64 = eps.iter().flat_map(|e| e.slice_ms.iter()).sum::<f64>() / 1e3;
        stats::ratio(done as f64, secs)
    };
    let plain_refs: Vec<&storm::Episode> = plain.iter().collect();
    r.metric("flows_per_s", flows_per_s(&plain_refs), plain.len());

    let first = all[0];
    r.metric("fct_us_p50", first.fct_us_p50, first.completed);
    r.metric("fct_us_p99", first.fct_us_p99, first.completed);
    r.metric(
        "fail_frac",
        stats::ratio(incomplete as f64, flows as f64),
        flows,
    );
    for name in [
        "final_loss",
        "final_top1",
        "grad_nmse",
        "sim_step_us_p50",
        "sim_step_us_p99",
        "mltrain.compute_ms",
        "collective.exchange_ms",
        "collective.exchange_self_ms",
        "collective.wire_bytes",
        "collective.trim_frac",
        "ring.start_ms",
        "ring.ingest_ms",
        "ring.apply_ms",
        "ring.meta_ms",
        "ring.callbacks",
        "ring.rejected_frames",
        "ring.protostep_sim_us_p50",
    ] {
        r.metric(name, 0.0, 0);
    }

    let unconserved = all.iter().filter(|e| !e.conserved).count();
    r.check(
        "packet conservation at the end of the storm",
        unconserved == 0,
        format!("{unconserved} of {} episodes violated it", all.len()),
    );
    digests_agree(r, &all.iter().map(|e| e.digest).collect::<Vec<_>>());

    let mut build_ms = Vec::new();
    let mut self_ms = Vec::new();
    for totals in ledgers(r, traced.iter().map(|(_, s)| s.as_slice())) {
        build_ms.push(totals.get("netsim.build").map_or(0.0, |t| ms(t.1)));
        self_ms.push(totals.get("netsim.run").map_or(0.0, |t| ms(t.0)));
    }
    let t_eps: Vec<&storm::Episode> = traced.iter().map(|(e, _)| e).collect();
    let n = t_eps.len();
    let mean_of = |f: &dyn Fn(&storm::Episode) -> u64| {
        stats::mean(&t_eps.iter().map(|e| f(e) as f64).collect::<Vec<_>>())
    };
    r.metric("netsim.build_ms", stats::mean(&build_ms), n);
    r.metric("netsim.self_ms", stats::mean(&self_ms), n);
    let events = mean_of(&|e| e.events);
    r.metric("netsim.events", events, n);
    r.metric(
        "netsim.events_per_s",
        stats::ratio(events, stats::mean(&self_ms) / 1e3),
        n,
    );
    r.metric("netsim.trimmed", mean_of(&|e| e.trimmed), n);
    r.metric("netsim.dropped", mean_of(&|e| e.dropped), n);
    r.metric(
        "netsim.delivery_ratio",
        stats::ratio(mean_of(&|e| e.delivered), mean_of(&|e| e.sent)),
        n,
    );
    r.metric("netsim.max_queue_bytes", mean_of(&|e| e.max_queue_bytes), n);
    r.metric(
        "netsim.arena_high_water",
        mean_of(&|e| e.arena_high_water),
        n,
    );
    let overhead = if n == 0 || plain.is_empty() {
        0.0
    } else {
        (flows_per_s(&plain_refs) / flows_per_s(&t_eps) - 1.0) * 100.0
    };
    r.metric("trace.overhead_pct", overhead, n);
}

/// Runs episodes until `seconds` have passed (and, untraced, until there
/// are [`MIN_STEP_SAMPLES`] step samples). Traced runs alternate
/// untraced and traced episodes, untraced first. Records `peak_rss_mb`
/// after the first episode, so that it covers a fixed amount of work.
fn run_episodes<E>(
    r: &mut Report,
    args: &Args,
    mut episode: impl FnMut(u32) -> E,
    samples: impl Fn(&E) -> usize,
) -> (Vec<E>, Vec<(E, Vec<Span>)>) {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for i in 0u32.. {
        let first_step = i * 100_000;
        if args.trace && i % 2 == 1 {
            spans::start();
            let e = episode(first_step);
            traced.push((e, spans::finish()));
        } else {
            plain.push(episode(first_step));
        }
        if i == 0 {
            r.metric("peak_rss_mb", probe::peak_rss_mib().unwrap_or(0.0), 1);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let enough = if args.trace {
            !traced.is_empty()
        } else {
            plain.len() >= 2 && plain.iter().map(&samples).sum::<usize>() >= MIN_STEP_SAMPLES
        };
        if (elapsed >= args.seconds && enough) || elapsed >= HARD_CAP_S {
            break;
        }
    }
    (plain, traced)
}

fn out_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from("perfbench/target"), Into::into);
    target.join("perfbench-out")
}

fn write_spans(r: &mut Report, w: Workload, traced: &[Vec<Span>]) {
    let dir = out_dir();
    let path = dir.join(format!("spans-{}.jsonl", w.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| spans::write_jsonl(&path, traced)) {
        Ok(()) => r.notes.push(format!("spans written to {}", path.display())),
        Err(e) => r.notes.push(format!("spans not written: {e}")),
    }
}

fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let pool = trimgrad_par::WorkerPool::global().threads();
    r.check(
        "worker-pool width fixed by the benchmark",
        pool == POOL_WIDTH,
        format!("TRIMGRAD_THREADS={pool}"),
    );
    r.check(
        "library flight recorder off",
        !trimgrad_trace::Tracer::global().is_enabled(),
        "TRIMGRAD_TRACE unset",
    );
    match args.workload {
        Workload::TrainInproc | Workload::TrainFabric => {
            let path = if args.workload == Workload::TrainInproc {
                r.check(
                    "in-process hook is the one hook_for builds",
                    train::inprocess_hook_matches_library(args.seed),
                    "bit-identical views on seeded gradients",
                );
                train::Path::InProcess
            } else {
                train::Path::Fabric
            };
            let (plain, traced) = run_episodes(
                &mut r,
                args,
                |first| train::run_episode(path, args.seed, first),
                |e| e.step_ms.len(),
            );
            summarize_train(&mut r, args.workload, &plain, &traced);
            if args.trace {
                let spans: Vec<Vec<Span>> = traced.into_iter().map(|(_, s)| s).collect();
                write_spans(&mut r, args.workload, &spans);
            }
        }
        Workload::FabricStorm => {
            let (plain, traced) = run_episodes(
                &mut r,
                args,
                |first| storm::run_episode(args.seed, first),
                |e| e.slice_ms.len(),
            );
            summarize_storm(&mut r, &plain, &traced);
            if args.trace {
                let spans: Vec<Vec<Span>> = traced.into_iter().map(|(_, s)| s).collect();
                write_spans(&mut r, args.workload, &spans);
            }
        }
    }
    r
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--probe") {
        probe::print_probe();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train_inproc|train_fabric|fabric_storm> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Before any library call: the pool width is part of each workload's
    // definition, and the library's own flight recorder stays off.
    std::env::set_var(trimgrad_par::THREADS_ENV, POOL_WIDTH.to_string());
    std::env::remove_var("TRIMGRAD_TRACE");

    let fp = probe::Fingerprint::read(POOL_WIDTH);
    println!(
        "box: nproc={} cpu=\"{}\" pool_width={} commit={}",
        fp.nproc, fp.cpu_model, fp.pool_width, fp.commit
    );
    match probe::calibrate_in_child() {
        Ok(c) => println!(
            "calibration: alu_ns_per_op={:.4} memcpy_gib_s={:.3}",
            c.alu_ns_per_op, c.memcpy_gib_s
        ),
        Err(e) => println!("calibration: unavailable ({e})"),
    }
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let report = run(&args);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in &report.metrics {
        println!(
            "  {:<30} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<30} {:>16} {:<8}",
        "fail_frac (failed/attempted)",
        format!("{}/{}", report.failed, report.attempted),
        ""
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    for c in &report.checks {
        println!(
            "check {}: {} ({})",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    match report.json(table) {
        Ok(line) => {
            println!("{line}");
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests;
