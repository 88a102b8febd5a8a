//! Incremental timing analysis: re-propagate only the cones of changed
//! arcs.
//!
//! [`TimingGraph::analyze`] rebuilds adjacency and walks the whole DAG
//! on every call — correct, but wasteful inside a rip-up & re-route
//! loop where a late iteration retimes only the handful of nets the
//! dirty-net scheduler actually rerouted. [`IncrementalSta`] is the
//! fast path behind it: it caches the topological order and CSR
//! adjacency once, keeps the last [`TimingReport`], and on
//! [`refresh`](IncrementalSta::refresh) re-propagates arrival times
//! through the *forward* cone and required times through the *backward*
//! cone of the arcs whose delay actually changed, stopping as soon as a
//! recomputed value is bit-identical to the cached one.
//!
//! # Exactness contract
//!
//! `refresh` is specified to be **bit-identical** to a fresh
//! [`TimingGraph::analyze`] over the same delays: every node it touches
//! is recomputed with the same reduction (same predecessor order, same
//! `max`/`min` sequence) the full pass uses, and propagation stops only
//! where the recomputed value has the same bits as the cached one — in
//! which case every downstream recomputation would reproduce its cached
//! value too. The router times every iteration through this engine,
//! in both its incremental and full-reroute schedules, and relies on
//! this for both to match a full analysis; `tests` pin it on
//! randomized DAGs and update sequences.
//!
//! # Examples
//!
//! ```
//! use cds_sta::{IncrementalSta, TimingGraph};
//!
//! let mut tg = TimingGraph::new(2);
//! let arc = tg.add_arc(0, 1, 10.0);
//! tg.set_input(0, 0.0);
//! tg.set_required(1, 12.0);
//! let mut sta = IncrementalSta::new(&tg);
//! assert_eq!(sta.report().ws, 2.0);
//! sta.set_arc_delay(arc, 15.0);
//! assert_eq!(sta.refresh().ws, -3.0);
//! ```

use crate::{ArcId, TimingGraph, TimingNodeId, TimingReport};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A timing engine that owns a DAG snapshot and refreshes its report
/// incrementally as arc delays change.
///
/// Construction takes one full [`TimingGraph::analyze`] pass; after
/// that, [`set_arc_delay`](Self::set_arc_delay) +
/// [`refresh`](Self::refresh) touch only the affected cones. The
/// structure of the DAG (arcs, inputs, endpoints) is frozen at
/// construction — only delays may change.
#[derive(Debug, Clone)]
pub struct IncrementalSta {
    num_nodes: usize,
    /// Per-arc `(from, to)`.
    arc_ends: Vec<(TimingNodeId, TimingNodeId)>,
    /// Per-arc delay (the mutable part of the DAG).
    delay: Vec<f64>,
    /// Topological position of each node.
    pos: Vec<u32>,
    /// CSR in-adjacency: for node `v`, `(pred, arc)` pairs in arc
    /// insertion order — the same order `analyze` reduces in.
    in_start: Vec<u32>,
    in_list: Vec<(TimingNodeId, ArcId)>,
    /// CSR out-adjacency, same ordering guarantee.
    out_start: Vec<u32>,
    out_list: Vec<(TimingNodeId, ArcId)>,
    /// Per-node declared arrival (max over declared inputs; `-inf` when
    /// the node is not an input).
    input_at: Vec<f64>,
    /// Per-node declared required (min over declarations; `+inf` when
    /// the node is not an endpoint).
    required_rat: Vec<f64>,
    /// Endpoint declarations in declaration order (with duplicates),
    /// matching `analyze`'s TNS accumulation order.
    endpoints: Vec<TimingNodeId>,
    report: TimingReport,
    /// Arcs whose delay changed since the last refresh.
    dirty: Vec<ArcId>,
    /// Scratch: nodes currently queued in a propagation heap.
    queued: Vec<bool>,
    /// Nodes recomputed by the last refresh (forward + backward cones).
    last_retimed: usize,
    /// Nodes recomputed across all refreshes.
    total_retimed: u64,
}

impl IncrementalSta {
    /// Builds the engine from a timing graph (one full analysis).
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn new(tg: &TimingGraph) -> Self {
        let n = tg.num_nodes();
        let order = tg.topo_order();
        let mut pos = vec![0u32; n];
        for (p, &v) in order.iter().enumerate() {
            pos[v as usize] = p as u32;
        }
        // counting-sort CSR keeps per-node neighbor order equal to arc
        // insertion order — the order analyze() reduces in
        let mut in_start = vec![0u32; n + 1];
        let mut out_start = vec![0u32; n + 1];
        for &(from, to, _) in &tg.arcs {
            in_start[to as usize + 1] += 1;
            out_start[from as usize + 1] += 1;
        }
        for v in 0..n {
            in_start[v + 1] += in_start[v];
            out_start[v + 1] += out_start[v];
        }
        let mut in_list = vec![(0u32, 0u32); tg.arcs.len()];
        let mut out_list = vec![(0u32, 0u32); tg.arcs.len()];
        let mut in_cur = in_start.clone();
        let mut out_cur = out_start.clone();
        for (a, &(from, to, _)) in tg.arcs.iter().enumerate() {
            in_list[in_cur[to as usize] as usize] = (from, a as ArcId);
            in_cur[to as usize] += 1;
            out_list[out_cur[from as usize] as usize] = (to, a as ArcId);
            out_cur[from as usize] += 1;
        }
        let mut input_at = vec![f64::NEG_INFINITY; n];
        for &(v, t) in &tg.inputs {
            input_at[v as usize] = input_at[v as usize].max(t);
        }
        let mut required_rat = vec![f64::INFINITY; n];
        for &(v, t) in &tg.required {
            required_rat[v as usize] = required_rat[v as usize].min(t);
        }
        IncrementalSta {
            num_nodes: n,
            arc_ends: tg.arcs.iter().map(|&(from, to, _)| (from, to)).collect(),
            delay: tg.arcs.iter().map(|&(_, _, d)| d).collect(),
            pos,
            in_start,
            in_list,
            out_start,
            out_list,
            input_at,
            required_rat,
            endpoints: tg.required.iter().map(|&(v, _)| v).collect(),
            report: tg.analyze(),
            dirty: Vec::new(),
            queued: vec![false; n],
            last_retimed: 0,
            total_retimed: 0,
        }
    }

    /// The report as of the last [`refresh`](Self::refresh) (or
    /// construction). Call `refresh` first if delays changed.
    pub fn report(&self) -> &TimingReport {
        &self.report
    }

    /// Updates an arc's delay. No-op (not even marked dirty) when the
    /// new delay is bit-identical to the current one.
    pub fn set_arc_delay(&mut self, arc: ArcId, delay: f64) {
        if self.delay[arc as usize].to_bits() != delay.to_bits() {
            self.delay[arc as usize] = delay;
            self.dirty.push(arc);
        }
    }

    /// Bulk [`set_arc_delay`](Self::set_arc_delay): one arc per delay,
    /// in order — how the router feeds a ripped net's contiguous
    /// sink-delay span straight from the routed forest (bit-unchanged
    /// delays are still not even marked dirty).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn set_arc_delays(&mut self, arcs: &[ArcId], delays: &[f64]) {
        assert_eq!(arcs.len(), delays.len(), "one delay per arc");
        for (&arc, &d) in arcs.iter().zip(delays) {
            self.set_arc_delay(arc, d);
        }
    }

    /// Number of pending dirty arcs.
    pub fn dirty_arcs(&self) -> usize {
        self.dirty.len()
    }

    /// Nodes recomputed by the last refresh.
    pub fn last_retimed(&self) -> usize {
        self.last_retimed
    }

    /// Nodes recomputed across all refreshes (the work counter the
    /// router's stats report).
    pub fn total_retimed(&self) -> u64 {
        self.total_retimed
    }

    fn in_arcs(&self, v: usize) -> &[(TimingNodeId, ArcId)] {
        &self.in_list[self.in_start[v] as usize..self.in_start[v + 1] as usize]
    }

    fn out_arcs(&self, v: usize) -> &[(TimingNodeId, ArcId)] {
        &self.out_list[self.out_start[v] as usize..self.out_start[v + 1] as usize]
    }

    /// Exactly `analyze`'s per-node arrival reduction.
    fn recompute_at(&self, v: usize) -> f64 {
        let mut at = self.input_at[v];
        for &(from, a) in self.in_arcs(v) {
            let fat = self.report.at[from as usize];
            if fat.is_finite() {
                at = at.max(fat + self.delay[a as usize]);
            }
        }
        at
    }

    /// Exactly `analyze`'s per-node required reduction.
    fn recompute_rat(&self, v: usize) -> f64 {
        let mut rat = self.required_rat[v];
        for &(to, a) in self.out_arcs(v) {
            let trat = self.report.rat[to as usize];
            if trat.is_finite() {
                rat = rat.min(trat - self.delay[a as usize]);
            }
        }
        rat
    }

    /// Re-propagates the cones of all dirty arcs and returns the
    /// updated report. Bit-identical to a fresh
    /// [`TimingGraph::analyze`] over the same delays (see the module
    /// docs).
    pub fn refresh(&mut self) -> &TimingReport {
        self.last_retimed = 0;
        if self.dirty.is_empty() {
            return &self.report;
        }

        // Forward cone: recompute arrivals in ascending topological
        // order starting at the heads of dirty arcs. Heap order
        // guarantees a node is popped only after every changed
        // predecessor was processed, so one full recompute per node
        // suffices and reproduces analyze()'s reduction exactly.
        let mut heap: BinaryHeap<Reverse<(u32, TimingNodeId)>> = BinaryHeap::new();
        for i in 0..self.dirty.len() {
            let (_, to) = self.arc_ends[self.dirty[i] as usize];
            if !self.queued[to as usize] {
                self.queued[to as usize] = true;
                heap.push(Reverse((self.pos[to as usize], to)));
            }
        }
        while let Some(Reverse((_, v))) = heap.pop() {
            let v = v as usize;
            self.queued[v] = false;
            self.last_retimed += 1;
            let new_at = self.recompute_at(v);
            if new_at.to_bits() != self.report.at[v].to_bits() {
                self.report.at[v] = new_at;
                for i in self.out_start[v] as usize..self.out_start[v + 1] as usize {
                    let (to, _) = self.out_list[i];
                    if !self.queued[to as usize] {
                        self.queued[to as usize] = true;
                        heap.push(Reverse((self.pos[to as usize], to)));
                    }
                }
            }
        }

        // Backward cone: recompute requireds in descending topological
        // order starting at the tails of dirty arcs.
        let mut heap: BinaryHeap<(u32, TimingNodeId)> = BinaryHeap::new();
        for i in 0..self.dirty.len() {
            let (from, _) = self.arc_ends[self.dirty[i] as usize];
            if !self.queued[from as usize] {
                self.queued[from as usize] = true;
                heap.push((self.pos[from as usize], from));
            }
        }
        while let Some((_, v)) = heap.pop() {
            let v = v as usize;
            self.queued[v] = false;
            self.last_retimed += 1;
            let new_rat = self.recompute_rat(v);
            if new_rat.to_bits() != self.report.rat[v].to_bits() {
                self.report.rat[v] = new_rat;
                for i in self.in_start[v] as usize..self.in_start[v + 1] as usize {
                    let (from, _) = self.in_list[i];
                    if !self.queued[from as usize] {
                        self.queued[from as usize] = true;
                        heap.push((self.pos[from as usize], from));
                    }
                }
            }
        }
        self.dirty.clear();
        self.total_retimed += self.last_retimed as u64;

        // Slack, WS and TNS are cheap full scans in the same order
        // analyze() uses — O(nodes), no edge work.
        let mut ws = f64::INFINITY;
        for v in 0..self.num_nodes {
            let (at, rat) = (self.report.at[v], self.report.rat[v]);
            self.report.slack[v] =
                if at.is_finite() && rat.is_finite() { rat - at } else { f64::INFINITY };
            if self.report.slack[v] < ws {
                ws = self.report.slack[v];
            }
        }
        self.report.ws = if ws.is_finite() { ws } else { 0.0 };
        let mut tns = 0.0;
        for &v in &self.endpoints {
            let s = self.report.slack[v as usize];
            if s.is_finite() && s < 0.0 {
                tns += s;
            }
        }
        self.report.tns = tns;
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_reports_bit_identical(a: &TimingReport, b: &TimingReport, ctx: &str) {
        assert_eq!(a.ws.to_bits(), b.ws.to_bits(), "{ctx}: ws");
        assert_eq!(a.tns.to_bits(), b.tns.to_bits(), "{ctx}: tns");
        for v in 0..a.at.len() {
            assert_eq!(a.at[v].to_bits(), b.at[v].to_bits(), "{ctx}: at[{v}]");
            assert_eq!(a.rat[v].to_bits(), b.rat[v].to_bits(), "{ctx}: rat[{v}]");
            assert_eq!(a.slack[v].to_bits(), b.slack[v].to_bits(), "{ctx}: slack[{v}]");
        }
    }

    /// A deterministic pseudo-random layered DAG shaped like the
    /// router's timing graphs (chains with fan-out), plus its arc list.
    fn random_dag(seed: u64, nodes: usize) -> TimingGraph {
        let mut tg = TimingGraph::new(nodes);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for v in 1..nodes as u32 {
            // 1-3 predecessors from earlier nodes keeps it acyclic
            let preds = 1 + (next() % 3) as usize;
            for _ in 0..preds.min(v as usize) {
                let from = (next() % v as u64) as u32;
                let d = (next() % 500) as f64 / 10.0;
                tg.add_arc(from, v, d);
            }
        }
        for v in 0..nodes as u32 {
            if next() % 5 == 0 {
                tg.set_input(v, (next() % 100) as f64 / 10.0);
            }
            if next() % 4 == 0 {
                tg.set_required(v, (next() % 3000) as f64 / 10.0);
            }
        }
        tg
    }

    #[test]
    fn fresh_engine_matches_analyze() {
        for seed in [1, 7, 42] {
            let tg = random_dag(seed, 80);
            let sta = IncrementalSta::new(&tg);
            assert_reports_bit_identical(sta.report(), &tg.analyze(), &format!("seed {seed}"));
        }
    }

    #[test]
    fn refresh_matches_full_analyze_over_random_update_sequences() {
        for seed in [3u64, 19, 1234] {
            let mut tg = random_dag(seed, 120);
            let arcs = tg.arcs.len();
            let mut sta = IncrementalSta::new(&tg);
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for round in 0..30 {
                // change a small batch of arcs (sometimes to the same value)
                for _ in 0..1 + next() % 6 {
                    let a = (next() % arcs as u64) as ArcId;
                    let d = if next() % 4 == 0 {
                        tg.arcs[a as usize].2 // no-op update
                    } else {
                        (next() % 800) as f64 / 16.0
                    };
                    tg.set_arc_delay(a, d);
                    sta.set_arc_delay(a, d);
                }
                let inc = sta.refresh().clone();
                assert_reports_bit_identical(
                    &inc,
                    &tg.analyze(),
                    &format!("seed {seed} round {round}"),
                );
            }
        }
    }

    #[test]
    fn noop_updates_retime_nothing() {
        let tg = random_dag(5, 60);
        let mut sta = IncrementalSta::new(&tg);
        for a in 0..tg.arcs.len() as ArcId {
            let d = tg.arcs[a as usize].2;
            sta.set_arc_delay(a, d);
        }
        assert_eq!(sta.dirty_arcs(), 0);
        sta.refresh();
        assert_eq!(sta.last_retimed(), 0);
    }

    #[test]
    fn localized_change_touches_a_small_cone() {
        // a long chain: changing the last arc must not re-propagate the
        // whole graph forward
        let n = 200;
        let mut tg = TimingGraph::new(n);
        let mut arcs = Vec::new();
        for v in 0..n as u32 - 1 {
            arcs.push(tg.add_arc(v, v + 1, 1.0));
        }
        tg.set_input(0, 0.0);
        tg.set_required(n as u32 - 1, 500.0);
        let mut sta = IncrementalSta::new(&tg);
        let last = *arcs.last().unwrap();
        sta.set_arc_delay(last, 2.0);
        sta.refresh();
        // forward cone: one node; backward cone: the whole chain (rat
        // shifts), so just bound it by the obvious worst case
        assert!(sta.last_retimed() <= n + 1, "retimed {}", sta.last_retimed());
        tg.set_arc_delay(last, 2.0);
        assert_reports_bit_identical(sta.report(), &tg.analyze(), "chain");
        // a second refresh with nothing dirty is free
        sta.refresh();
        assert_eq!(sta.last_retimed(), 0);
    }
}
