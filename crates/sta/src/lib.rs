#![forbid(unsafe_code)]
//! Static timing analysis (lite) for the timing-constrained router.
//!
//! The router's Lagrangean loop needs slacks: worst slack (WS) and total
//! negative slack (TNS) are the headline numbers of Tables IV/V, and
//! per-sink slacks drive the delay weights `w(t)` of the cost-distance
//! subproblem. This is a standard arrival/required propagation over a
//! timing DAG whose arc delays the router updates after every routing
//! iteration. [`analyze`](TimingGraph::analyze) is the full reference
//! pass; [`IncrementalSta`] is the bit-identical fast path behind it,
//! re-propagating only the cones of arcs whose delay changed — what
//! the router times every iteration with.
//!
//! # Examples
//!
//! ```
//! use cds_sta::TimingGraph;
//!
//! // in --arc(10ps)--> out, required at 12ps: slack +2
//! let mut tg = TimingGraph::new(2);
//! tg.add_arc(0, 1, 10.0);
//! tg.set_input(0, 0.0);
//! tg.set_required(1, 12.0);
//! let rep = tg.analyze();
//! assert_eq!(rep.slack[1], 2.0);
//! assert_eq!(rep.ws, 2.0);
//! assert_eq!(rep.tns, 0.0);
//! ```

mod incremental;

pub use incremental::IncrementalSta;

/// Dense timing node id.
pub type TimingNodeId = u32;
/// Dense timing arc id.
pub type ArcId = u32;

/// A timing DAG with mutable arc delays.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    num_nodes: usize,
    pub(crate) arcs: Vec<(TimingNodeId, TimingNodeId, f64)>,
    pub(crate) inputs: Vec<(TimingNodeId, f64)>,
    pub(crate) required: Vec<(TimingNodeId, f64)>,
}

/// The result of [`TimingGraph::analyze`].
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Arrival time per node (`-inf` if unreachable from any input).
    pub at: Vec<f64>,
    /// Required time per node (`+inf` if unconstrained).
    pub rat: Vec<f64>,
    /// `rat − at` per node (`+inf` where unconstrained/unreached).
    pub slack: Vec<f64>,
    /// Worst (minimum) slack over all constrained nodes; 0 when nothing
    /// is constrained.
    pub ws: f64,
    /// Total negative slack: sum of negative slacks over *endpoints*
    /// (nodes with an explicit required time).
    pub tns: f64,
}

impl TimingGraph {
    /// An empty DAG over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        TimingGraph { num_nodes, arcs: Vec::new(), inputs: Vec::new(), required: Vec::new() }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Adds a timing arc with the given delay; returns its id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints.
    pub fn add_arc(&mut self, from: TimingNodeId, to: TimingNodeId, delay: f64) -> ArcId {
        assert!((from as usize) < self.num_nodes && (to as usize) < self.num_nodes);
        self.arcs.push((from, to, delay));
        (self.arcs.len() - 1) as ArcId
    }

    /// Updates an arc's delay (the router does this every iteration).
    pub fn set_arc_delay(&mut self, arc: ArcId, delay: f64) {
        self.arcs[arc as usize].2 = delay;
    }

    /// Bulk [`set_arc_delay`](Self::set_arc_delay): one arc per delay,
    /// in order — how the router feeds a net's contiguous sink-delay
    /// span straight from the routed forest.
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

    /// Declares a primary input with the given arrival time.
    pub fn set_input(&mut self, node: TimingNodeId, at: f64) {
        self.inputs.push((node, at));
    }

    /// Declares an endpoint with the given required arrival time.
    pub fn set_required(&mut self, node: TimingNodeId, rat: f64) {
        self.required.push((node, rat));
    }

    /// Topological order of the DAG (Kahn).
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub(crate) fn topo_order(&self) -> Vec<TimingNodeId> {
        let mut indeg = vec![0usize; self.num_nodes];
        for &(_, to, _) in &self.arcs {
            indeg[to as usize] += 1;
        }
        let mut queue: Vec<TimingNodeId> =
            (0..self.num_nodes as TimingNodeId).filter(|&v| indeg[v as usize] == 0).collect();
        let mut out_adj: Vec<Vec<(TimingNodeId, f64)>> = vec![Vec::new(); self.num_nodes];
        for &(from, to, d) in &self.arcs {
            out_adj[from as usize].push((to, d));
        }
        let mut order = Vec::with_capacity(self.num_nodes);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            for &(w, _) in &out_adj[v as usize] {
                indeg[w as usize] -= 1;
                if indeg[w as usize] == 0 {
                    queue.push(w);
                }
            }
        }
        assert_eq!(order.len(), self.num_nodes, "timing graph has a cycle");
        order
    }

    /// Propagates arrivals and requireds; returns the report.
    pub fn analyze(&self) -> TimingReport {
        let order = self.topo_order();
        let mut at = vec![f64::NEG_INFINITY; self.num_nodes];
        for &(v, t) in &self.inputs {
            at[v as usize] = at[v as usize].max(t);
        }
        // nodes with no incoming arcs and no declared input stay at
        // -inf (unreached); the router declares all chain heads
        // explicitly.
        let mut out_adj: Vec<Vec<(TimingNodeId, f64)>> = vec![Vec::new(); self.num_nodes];
        let mut in_adj: Vec<Vec<(TimingNodeId, f64)>> = vec![Vec::new(); self.num_nodes];
        for &(from, to, d) in &self.arcs {
            out_adj[from as usize].push((to, d));
            in_adj[to as usize].push((from, d));
        }
        for &v in &order {
            for &(from, d) in &in_adj[v as usize] {
                if at[from as usize].is_finite() {
                    at[v as usize] = at[v as usize].max(at[from as usize] + d);
                }
            }
        }
        let mut rat = vec![f64::INFINITY; self.num_nodes];
        for &(v, t) in &self.required {
            rat[v as usize] = rat[v as usize].min(t);
        }
        for &v in order.iter().rev() {
            for &(to, d) in &out_adj[v as usize] {
                if rat[to as usize].is_finite() {
                    rat[v as usize] = rat[v as usize].min(rat[to as usize] - d);
                }
            }
        }
        let mut slack = vec![f64::INFINITY; self.num_nodes];
        let mut ws = f64::INFINITY;
        for v in 0..self.num_nodes {
            if at[v].is_finite() && rat[v].is_finite() {
                slack[v] = rat[v] - at[v];
                ws = ws.min(slack[v]);
            }
        }
        if !ws.is_finite() {
            ws = 0.0;
        }
        let mut tns = 0.0;
        for &(v, _) in &self.required {
            let s = slack[v as usize];
            if s.is_finite() && s < 0.0 {
                tns += s;
            }
        }
        TimingReport { at, rat, slack, ws, tns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// chain: 0 →(5) 1 →(5) 2, with a side branch 1 →(20) 3
    fn diamondish() -> TimingGraph {
        let mut tg = TimingGraph::new(4);
        tg.add_arc(0, 1, 5.0);
        tg.add_arc(1, 2, 5.0);
        tg.add_arc(1, 3, 20.0);
        tg.set_input(0, 0.0);
        tg.set_required(2, 8.0);
        tg.set_required(3, 20.0);
        tg
    }

    #[test]
    fn arrivals_take_longest_path() {
        let rep = diamondish().analyze();
        assert_eq!(rep.at[2], 10.0);
        assert_eq!(rep.at[3], 25.0);
    }

    #[test]
    fn ws_and_tns() {
        let rep = diamondish().analyze();
        // endpoint slacks: node2 = 8-10 = -2, node3 = 20-25 = -5;
        // internal slacks are no worse than -5
        assert_eq!(rep.ws, -5.0);
        assert_eq!(rep.tns, -7.0, "endpoint slacks -2 + -5");
    }

    #[test]
    fn required_propagates_backwards() {
        let rep = diamondish().analyze();
        // rat[1] = min(8-5, 20-20) = 0 → slack = 0 - 5 = -5? at[1] = 5 → -5… wait
        assert_eq!(rep.rat[1], 0.0);
        assert_eq!(rep.slack[1], -5.0);
        assert_eq!(rep.rat[0], -5.0);
    }

    #[test]
    fn delay_update_changes_slack() {
        let mut tg = TimingGraph::new(2);
        let a = tg.add_arc(0, 1, 10.0);
        tg.set_input(0, 0.0);
        tg.set_required(1, 10.0);
        assert_eq!(tg.analyze().ws, 0.0);
        tg.set_arc_delay(a, 13.0);
        assert_eq!(tg.analyze().ws, -3.0);
        assert_eq!(tg.analyze().tns, -3.0);
    }

    #[test]
    fn unconstrained_graph_has_zero_ws() {
        let mut tg = TimingGraph::new(3);
        tg.add_arc(0, 1, 1.0);
        tg.set_input(0, 0.0);
        let rep = tg.analyze();
        assert_eq!(rep.ws, 0.0);
        assert_eq!(rep.tns, 0.0);
        assert!(rep.slack[1].is_infinite());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_panics() {
        let mut tg = TimingGraph::new(2);
        tg.add_arc(0, 1, 1.0);
        tg.add_arc(1, 0, 1.0);
        let _ = tg.analyze();
    }

    #[test]
    fn tns_counts_endpoints_not_internal_nodes() {
        // two endpoints behind a shared late node must both count
        let mut tg = TimingGraph::new(4);
        tg.add_arc(0, 1, 10.0);
        tg.add_arc(1, 2, 0.0);
        tg.add_arc(1, 3, 0.0);
        tg.set_input(0, 0.0);
        tg.set_required(2, 6.0);
        tg.set_required(3, 8.0);
        let rep = tg.analyze();
        assert_eq!(rep.tns, -4.0 + -2.0);
        assert_eq!(rep.ws, -4.0);
    }
}
