//! In-memory span recording for the traced runs, written out as Chrome
//! trace-event JSON when a run ends.
//!
//! Spans are recorded only by this benchmark, around its calls into the
//! program's public functions: setup phases, router runs, per-iteration
//! spans (from `Router::run_with`'s progress hook) and per-worker oracle
//! calls (from [`TracedOracle`], a forwarding `SteinerOracle`). The
//! program itself is not instrumented.

use crate::Args;
use cds_baselines::{prim_dijkstra, shallow_light, PlaneCostModel, SlParams};
use cds_core::SolveStats;
use cds_router::{OracleRequest, OracleWorkspace, SteinerOracle};
use cds_rsmt::rsmt_topology;
use cds_topo::{EmbeddedTree, RoutedForest};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub run: u32,
    pub tid: u32,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

/// Span store shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static TID: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Reserves a span id before the span's bounds are known, so that
    /// children can name it as their parent while it is still open.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        run: u32,
        start_us: f64,
        end_us: f64,
    ) {
        let tid = TID.with(|t| *t);
        let span = Span { id, parent, name, run, tid, start_us, end_us };
        self.spans.lock().expect("span store poisoned by a panicking recorder").push(span);
    }

    /// Runs `f(span id)` inside a new span; returns its result and the
    /// span's duration in seconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        run: u32,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = self.reserve();
        let start = self.now_us();
        let out = f(id);
        let end = self.now_us();
        self.record(id, parent, name, run, start, end);
        (out, (end - start) * 1e-6)
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned by a panicking recorder").clone()
    }

    /// Chrome trace-event JSON ("X" complete events; `pid` is the run
    /// id, `tid` the recording thread).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}{sep}",
                s.name,
                s.run,
                s.tid,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                parent
            );
        }
        out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    /// Writes the traced run's spans as Chrome trace-event JSON into the
    /// benchmark's output directory.
    pub fn write(&self, args: &Args) -> Result<(), String> {
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, self.chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace: {} ({} spans)", path.display(), self.spans().len());
        Ok(())
    }
}

/// Length of the union of `intervals` (any order), in the intervals' unit.
pub fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of `span` in seconds: its duration minus the part of it
/// that its children (spans naming it as parent) cover.
pub fn self_time_s(span: &Span, all: &[Span]) -> f64 {
    let mut kids: Vec<(f64, f64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(s, e)| e > s)
        .collect();
    span.dur_s() - union_len(&mut kids) * 1e-6
}

/// Which plane topology a baseline oracle builds, so the traced replay
/// can time topology construction apart from the embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneTopo {
    L1,
    Sl,
    Pd,
}

/// Work counters summed over every call a [`TracedOracle`] forwarded.
#[derive(Debug, Default)]
pub struct CallCounters {
    pub calls: AtomicUsize,
    pub settled: AtomicU64,
    pub topo_ns: AtomicU64,
}

/// A forwarding oracle that records one span per call. `route` and
/// `route_into` both forward, so the router keeps its arena path and
/// its `SolveStats`; `name` and `uses_budgets` forward so the dirty-net
/// scheduler sees the wrapped oracle's answers.
pub struct TracedOracle {
    pub inner: &'static dyn SteinerOracle,
    pub tracer: Arc<Tracer>,
    pub span_name: &'static str,
    pub run: u32,
    /// Span id that calls are recorded under (the router's current
    /// iteration span, or the replay pass). Relaxed loads and stores: the
    /// id publishes no other data, and it changes only between
    /// iterations, while no oracle call runs.
    pub parent: Arc<AtomicU64>,
    pub counters: Arc<CallCounters>,
    /// When set, each call also rebuilds the plane topology on the same
    /// request, timed outside the call's span.
    pub topo: Option<PlaneTopo>,
}

impl TracedOracle {
    fn traced<T>(&self, req: &OracleRequest<'_>, call: impl FnOnce() -> T) -> T {
        if let Some(kind) = self.topo {
            let t = Instant::now();
            std::hint::black_box(plane_topology(kind, req));
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.counters.topo_ns.fetch_add(ns, Ordering::Relaxed);
        }
        let parent = self.parent.load(Ordering::Relaxed);
        let id = self.tracer.reserve();
        let start = self.tracer.now_us();
        let out = call();
        let end = self.tracer.now_us();
        self.tracer.record(id, Some(parent), self.span_name, self.run, start, end);
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// The topology the L1/SL/PD oracles embed, built the way they build it.
fn plane_topology(kind: PlaneTopo, req: &OracleRequest<'_>) -> cds_topo::Topology {
    let model = PlaneCostModel {
        cost_per_unit: req.surface.min_cost_per_gcell(),
        delay_per_unit: req.surface.min_delay_per_gcell(),
        bif: req.bif,
    };
    match kind {
        PlaneTopo::L1 => rsmt_topology(req.root, req.sinks, 5).binarize(),
        PlaneTopo::Sl => shallow_light(
            req.root,
            req.sinks,
            req.weights,
            req.budgets,
            &model,
            &SlParams::default(),
        ),
        PlaneTopo::Pd => prim_dijkstra(req.root, req.sinks, req.weights, &model),
    }
}

impl SteinerOracle for TracedOracle {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn uses_budgets(&self) -> bool {
        self.inner.uses_budgets()
    }

    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree {
        self.traced(req, || self.inner.route(req, ws))
    }

    fn route_into(
        &self,
        req: &OracleRequest<'_>,
        ws: &mut OracleWorkspace,
        forest: &mut RoutedForest,
        slot: usize,
    ) -> SolveStats {
        let stats = self.traced(req, || self.inner.route_into(req, ws, forest, slot));
        self.counters.settled.fetch_add(stats.settled as u64, Ordering::Relaxed);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_gaps() {
        let mut v = vec![(5.0, 7.0), (0.0, 2.0), (1.0, 3.0), (6.0, 6.5)];
        assert_eq!(union_len(&mut v), 5.0);
        assert_eq!(union_len(&mut []), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_part_once() {
        let mk = |id, parent, s, e| Span {
            id,
            parent,
            name: "x",
            run: 0,
            tid: 0,
            start_us: s,
            end_us: e,
        };
        let root = mk(1, None, 0.0, 10e6);
        let spans = vec![
            root.clone(),
            mk(2, Some(1), 1e6, 4e6),
            mk(3, Some(1), 2e6, 5e6),
            mk(4, Some(2), 1e6, 2e6),
        ];
        assert!((self_time_s(&root, &spans) - 6.0).abs() < 1e-9);
    }
}
