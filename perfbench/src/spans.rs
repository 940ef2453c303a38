//! The benchmark's own span recorder.
//!
//! Spans are opened and closed from the benchmark's files around calls
//! into the library (`run_round`, `aggregate`, `run_until`, `App`
//! callbacks); the library itself is not instrumented. Recording is
//! per-thread and off unless [`start`] was called, in which case [`enter`]
//! costs one thread-local borrow and two clock reads.
//!
//! Per-packet `App` callbacks are far too many to keep one span each, so
//! they are aggregated per parent span and [`Callback`] kind: one span whose
//! `busy_ns` is the sum of the callbacks' durations and whose `calls` counts
//! them. A span's *self time* is its busy time minus its children's busy
//! time, so the self times of a step's spans sum to the step's duration.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `step`, `exchange`, `netsim.run`, `ring.ingest`.
    pub name: &'static str,
    /// Start, in ns since the recorder started.
    pub start_ns: u64,
    /// End, in ns since the recorder started.
    pub end_ns: u64,
    /// Time the span covers: `end − start` for a single span, the summed
    /// callback durations for an aggregated one.
    pub busy_ns: u64,
    /// Callbacks aggregated into this span (1 for a single span).
    pub calls: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The step (or fabric slice) the span belongs to.
    pub step: u32,
}

/// The kinds an `App` callback of a ring worker is classified into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// `on_start`: encode and packetize the first segment.
    Start,
    /// `on_packet` on a gradient frame that applied no protocol step.
    Ingest,
    /// `on_packet` that applied at least one protocol step.
    Apply,
    /// `on_packet` on a row-metadata packet that applied no step.
    Meta,
}

impl Callback {
    const ALL: [Callback; 4] = [
        Callback::Start,
        Callback::Ingest,
        Callback::Apply,
        Callback::Meta,
    ];

    /// The span name of this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Callback::Start => "ring.start",
            Callback::Ingest => "ring.ingest",
            Callback::Apply => "ring.apply",
            Callback::Meta => "ring.meta",
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    calls: u64,
    busy_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

#[derive(Debug)]
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u32,
    /// Callback aggregates of the innermost open span, flushed as its
    /// children when it closes.
    pending: [Agg; 4],
    pending_parent: Option<usize>,
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn flush_pending(&mut self) {
        let parent = self.pending_parent.take();
        for (kind, agg) in Callback::ALL.iter().zip(&mut self.pending) {
            if agg.calls > 0 {
                self.spans.push(Span {
                    name: kind.name(),
                    start_ns: agg.first_ns,
                    end_ns: agg.last_ns,
                    busy_ns: agg.busy_ns,
                    calls: agg.calls,
                    parent,
                    step: self.step,
                });
            }
            *agg = Agg::default();
        }
    }
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Switches recording on for this thread, discarding earlier spans.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
            pending: [Agg::default(); 4],
            pending_parent: None,
        });
    });
}

/// Switches recording off and returns every span recorded since [`start`].
pub fn finish() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Whether recording is on.
#[must_use]
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().is_some())
}

/// Sets the step id stamped on spans opened from now on.
pub fn set_step(step: u32) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.step = step;
        }
    });
}

/// An open span; closes on drop.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    Guard(REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let start_ns = rec.ns(Instant::now());
        let idx = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
            parent: rec.open.last().copied(),
            step: rec.step,
        });
        rec.open.push(idx);
        Some(idx)
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else { return };
            let end_ns = rec.ns(Instant::now());
            if rec.pending_parent == Some(idx) {
                rec.flush_pending();
            }
            let span = &mut rec.spans[idx];
            span.end_ns = end_ns;
            span.busy_ns = end_ns - span.start_ns;
            if rec.open.last() == Some(&idx) {
                rec.open.pop();
            }
        });
    }
}

/// Records one `App` callback of `kind` that ran from `t0` to `t1`,
/// aggregated under the innermost open span.
pub fn callback(kind: Callback, t0: Instant, t1: Instant) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return };
        let parent = rec.open.last().copied();
        if rec.pending_parent != parent {
            rec.flush_pending();
            rec.pending_parent = parent;
        }
        let (a, b) = (rec.ns(t0), rec.ns(t1));
        let agg = &mut rec.pending[kind as usize];
        if agg.calls == 0 {
            agg.first_ns = a;
        }
        agg.calls += 1;
        agg.busy_ns += b - a;
        agg.last_ns = b;
    });
}

/// Self time of every span: its busy time minus its children's.
///
/// # Errors
///
/// When a span's children cover more time than the span itself.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut child_busy = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_busy[p] += s.busy_ns;
        }
    }
    spans
        .iter()
        .zip(child_busy)
        .map(|(s, c)| {
            s.busy_ns.checked_sub(c).ok_or_else(|| {
                format!(
                    "children of span '{}' cover {c} ns > {} ns",
                    s.name, s.busy_ns
                )
            })
        })
        .collect()
}

/// Checks, for every step, that the self times of the step's spans sum to
/// the busy time of the step's root spans, and that every child belongs to
/// its parent's step. Returns the number of steps checked.
///
/// # Errors
///
/// The first step whose ledger does not add up.
pub fn check_step_sums(spans: &[Span], selfs: &[u64]) -> Result<usize, String> {
    let mut per_step: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        let e = per_step.entry(s.step).or_default();
        e.0 += own;
        match s.parent {
            None => e.1 += s.busy_ns,
            Some(p) if spans[p].step != s.step => {
                return Err(format!(
                    "span '{}' of step {} has a parent in step {}",
                    s.name, s.step, spans[p].step
                ))
            }
            Some(_) => {}
        }
    }
    for (step, (selfs, roots)) in &per_step {
        if selfs != roots {
            return Err(format!(
                "step {step}: self times sum to {selfs} ns, root spans last {roots} ns"
            ));
        }
    }
    Ok(per_step.len())
}

/// Writes the spans of every traced episode to `path` as JSON lines, one
/// span per line; `id` and `parent` index the episode's spans.
///
/// # Errors
///
/// I/O errors.
pub fn write_jsonl(path: &std::path::Path, episodes: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (episode, spans) in episodes.iter().enumerate() {
        let selfs = self_times(spans).unwrap_or_else(|_| vec![0; spans.len()]);
        for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"episode\":{episode},\"id\":{i},\"name\":\"{}\",\"step\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"self_ns\":{own},\
                 \"calls\":{},\"parent\":{parent}}}",
                s.name, s.step, s.start_ns, s.end_ns, s.busy_ns, s.calls
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, step: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            calls: 1,
            parent,
            step,
        }
    }

    #[test]
    fn nested_self_times_telescope() {
        // step [0,100) > exchange [10,90) > run [20,80) > ingest busy 30
        let mut ingest = span("ring.ingest", 25, 75, Some(2), 0);
        ingest.busy_ns = 30;
        ingest.calls = 12;
        let spans = vec![
            span("step", 0, 100, None, 0),
            span("exchange", 10, 90, Some(0), 0),
            span("netsim.run", 20, 80, Some(1), 0),
            ingest,
        ];
        let selfs = self_times(&spans).unwrap();
        assert_eq!(selfs, vec![20, 20, 30, 30]);
        assert_eq!(selfs.iter().sum::<u64>(), 100);
        assert_eq!(check_step_sums(&spans, &selfs), Ok(1));
    }

    #[test]
    fn sibling_children_both_subtract() {
        let spans = vec![
            span("exchange", 0, 50, None, 3),
            span("netsim.build", 0, 10, Some(0), 3),
            span("netsim.run", 10, 45, Some(0), 3),
            span("step", 60, 70, None, 4),
        ];
        let selfs = self_times(&spans).unwrap();
        assert_eq!(selfs, vec![5, 10, 35, 10]);
        assert_eq!(check_step_sums(&spans, &selfs), Ok(2));
    }

    #[test]
    fn overfull_children_and_cross_step_parents_are_errors() {
        let spans = vec![
            span("run", 0, 10, None, 0),
            span("ring.apply", 0, 11, Some(0), 0),
        ];
        assert!(self_times(&spans).is_err());
        let spans = vec![
            span("step", 0, 10, None, 0),
            span("exchange", 1, 2, Some(0), 1),
        ];
        let selfs = self_times(&spans).unwrap();
        assert!(check_step_sums(&spans, &selfs).is_err());
    }

    #[test]
    fn recorder_nests_and_aggregates_callbacks() {
        assert!(!enabled());
        drop(enter("ignored"));
        start();
        set_step(7);
        {
            let _step = enter("step");
            let _run = enter("netsim.run");
            for kind in [Callback::Ingest, Callback::Ingest, Callback::Apply] {
                let t0 = Instant::now();
                callback(kind, t0, Instant::now());
            }
        }
        let spans = finish();
        assert!(!enabled());
        let names: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.calls, s.step))
            .collect();
        assert_eq!(
            names,
            vec![
                ("step", None, 1, 7),
                ("netsim.run", Some(0), 1, 7),
                ("ring.ingest", Some(1), 2, 7),
                ("ring.apply", Some(1), 1, 7),
            ]
        );
        let selfs = self_times(&spans).unwrap();
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].busy_ns);
        assert_eq!(check_step_sums(&spans, &selfs), Ok(1));
    }
}
