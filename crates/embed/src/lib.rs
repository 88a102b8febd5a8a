#![forbid(unsafe_code)]
//! Optimal embedding of a Steiner topology into the routing graph.
//!
//! The baselines of §IV-A compute a topology in the plane and then embed
//! it "optimally into the global routing graph minimizing the
//! cost-distance objective (1) using a Dijkstra-style embedding as
//! described in \[13\]". That embedding is what this crate implements.
//!
//! # The DP
//!
//! The objective decomposes over arcs: if `W_a` is the total sink delay
//! weight below arc `a`, then
//!
//! ```text
//! cost(T) = Σ_a [ c(path_a) + W_a·d(path_a) ] + Σ_branches β(W_x, W_y)
//! ```
//!
//! because every sink's delay accumulates `d` along its root path, and the
//! λ-split penalties of Eq. (2) at a branching depend only on subtree
//! weights. The branch penalties are constants, so for a *fixed* topology
//! the optimal embedding is a bottom-up dynamic program: for each topology
//! node `v` compute the label vector
//!
//! ```text
//! L_v(x) = Σ_{children c} min_y [ L_c(y) + dist_{c + W_c·d}(x, y) ]
//! ```
//!
//! where each inner minimization is one multi-source Dijkstra seeded with
//! `L_c` (the "propagate" step — this is why layer and wire-type selection
//! falls out for free: the Dijkstra chooses among parallel edges).
//! `L_root(π(r))` plus the constant penalties is the optimum; paths are
//! recovered from the Dijkstra parent pointers.
//!
//! # The engine
//!
//! [`EmbedWorkspace::load_window`] walks the backend's `neighbors_into`
//! once per window vertex and stores every arc — target, global edge
//! id, cost, delay — in a compact table, in neighbor order. Each pull then
//! fills its arc lengths `c + W·d` in one sequential pass and runs its
//! Dijkstra over the table alone, in place on the node's label slab,
//! recording one `u32` arc index per vertex in the node's pull-tree
//! row. Two
//! kinds of pull are skipped or cut short, with no change to any tree:
//!
//! * **No-op pulls.** A Steiner node with one child has the same arc
//!   weight as that child, whose label is already a fixpoint of the
//!   pull, so every vertex would stay its own seed: the node takes its
//!   child's label and an empty arc. A childless Steiner node is
//!   labelled 0 everywhere, with the same outcome. [`Topology::binarize`]
//!   gives every root such a single-child Steiner twin.
//! * **The root's pull.** The root reads its child's label at `π(r)`
//!   only, so a pull reached from the root through single-child nodes
//!   stops once `π(r)` settles; every vertex on the recovered path
//!   settled earlier under the same heap sequence.
//!
//! Every pull keeps the exact heap-operation sequence of a plain
//! multi-source Dijkstra seeded in vertex order, so ties resolve as
//! before and trees are bit-identical to the per-node reference DP kept
//! in this crate's tests.
//!
//! # Examples
//!
//! ```
//! use cds_embed::{embed_topology, EmbedEnv};
//! use cds_graph::GridSpec;
//! use cds_topo::{BifurcationConfig, Topology};
//! use cds_geom::Point;
//!
//! let grid = GridSpec::uniform(4, 4, 2).build();
//! let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
//!
//! let mut topo = Topology::new(Point::new(0, 0));
//! let s = topo.add_steiner(Point::new(2, 2), topo.root());
//! topo.add_sink(0, Point::new(3, 0), s);
//! topo.add_sink(1, Point::new(0, 3), s);
//!
//! let env = EmbedEnv {
//!     graph: grid.graph(),
//!     cost: &c,
//!     delay: &d,
//!     bif: BifurcationConfig::ZERO,
//! };
//! let root = grid.vertex_at(Point::new(0, 0));
//! let sinks = [grid.vertex_at(Point::new(3, 0)), grid.vertex_at(Point::new(0, 3))];
//! let tree = embed_topology(&env, &topo, root, &sinks, &[1.0, 1.0]);
//! tree.validate(grid.graph(), 2).unwrap();
//! ```

use cds_graph::{EdgeId, Graph, SteinerGraph, VertexId};
use cds_heap::IndexedBinaryHeap;
use cds_topo::penalty::beta;
use cds_topo::{BifurcationConfig, EmbeddedTree, NodeId, NodeKind, Topology};

/// Everything the embedding needs to know about the routing graph state.
///
/// Generic over the [`SteinerGraph`] backend (default: a materialized
/// [`Graph`]); the router embeds directly over its zero-copy window
/// views.
pub struct EmbedEnv<'a, G: ?Sized = Graph> {
    /// The routing graph backend.
    pub graph: &'a G,
    /// Current congestion cost per edge (`c`).
    pub cost: &'a [f64],
    /// Delay per edge (`d`).
    pub delay: &'a [f64],
    /// Bifurcation penalty configuration.
    pub bif: BifurcationConfig,
}

impl<G: ?Sized> Clone for EmbedEnv<'_, G> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<G: ?Sized> Copy for EmbedEnv<'_, G> {}

impl<G: ?Sized> std::fmt::Debug for EmbedEnv<'_, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbedEnv").field("bif", &self.bif).finish_non_exhaustive()
    }
}

/// Optimally embeds `topo` into the graph, returning the embedded tree.
///
/// `topo` must be [bifurcation compatible](Topology::is_bifurcation_compatible)
/// (call [`Topology::binarize`] first); its node positions are ignored —
/// only the *shape* matters. `root_vertex` and `sink_vertices` fix the
/// terminals; `weights` is indexed by sink index.
///
/// The returned tree reproduces the topology shape node-for-node, with
/// each arc carrying its optimal path. This is a one-shot wrapper over a
/// fresh [`EmbedWorkspace`]; callers that embed many topologies over one
/// window hold one.
///
/// # Panics
///
/// Panics if the topology is not bifurcation compatible, if a sink index
/// exceeds `weights`/`sink_vertices`, or if some terminal is unreachable.
pub fn embed_topology<G: SteinerGraph + ?Sized>(
    env: &EmbedEnv<'_, G>,
    topo: &Topology,
    root_vertex: VertexId,
    sink_vertices: &[VertexId],
    weights: &[f64],
) -> EmbeddedTree {
    let mut ws = EmbedWorkspace::new();
    ws.load_window(env);
    ws.embed(topo, root_vertex, sink_vertices, weights)
}

/// Pull-tree entry of a vertex that is its own seed (or unreached).
const NO_ARC: u32 = u32::MAX;

/// A loaded window as a compact arc table: the arcs of vertex `v` are
/// `first[v]..first[v + 1]`, in the backend's neighbor order, each with
/// its target, its edge id, and that edge's cost and delay.
#[derive(Debug, Default)]
struct ArcTable {
    first: Vec<u32>,
    head: Vec<VertexId>,
    edge: Vec<EdgeId>,
    cost: Vec<f64>,
    delay: Vec<f64>,
}

impl ArcTable {
    /// The vertex whose arc list holds arc `a`.
    fn tail(&self, a: usize) -> VertexId {
        (self.first.partition_point(|&f| f as usize <= a) - 1) as VertexId
    }
}

/// Reusable scratch of the embedding DP: the loaded window's arc table,
/// the pulls' arc lengths and the Dijkstra heap.
///
/// [`load_window`](Self::load_window) once, then [`embed`](Self::embed)
/// any number of topologies over it. The pulls allocate nothing; each
/// embedding allocates one pull-tree row per pull and a small pool of
/// label slabs, and frees them when it returns. The output does not
/// depend on the workspace's history.
///
/// ```
/// use cds_embed::{EmbedEnv, EmbedWorkspace};
/// use cds_geom::Point;
/// use cds_graph::GridSpec;
/// use cds_topo::{BifurcationConfig, Topology};
///
/// let grid = GridSpec::uniform(4, 4, 2).build();
/// let (c, d) = (grid.graph().base_costs(), grid.graph().delays());
/// let env = EmbedEnv { graph: grid.graph(), cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
/// let mut ws = EmbedWorkspace::new();
/// ws.load_window(&env);
/// let mut topo = Topology::new(Point::new(0, 0));
/// topo.add_sink(0, Point::new(3, 3), topo.root());
/// let (root, sink) = (grid.vertex_at(Point::new(0, 0)), grid.vertex_at(Point::new(3, 3)));
/// for w in [0.5, 2.0] {
///     ws.embed(&topo, root, &[sink], &[w]).validate(grid.graph(), 1).unwrap();
/// }
/// ```
#[derive(Debug, Default)]
pub struct EmbedWorkspace {
    /// Vertex count of the loaded window.
    n: usize,
    arcs: ArcTable,
    /// Arc lengths `cost + W·delay` of the current pull.
    len: Vec<f64>,
    heap: IndexedBinaryHeap,
    /// Vertex ids the heap can hold.
    heap_ids: usize,
    nbrs: Vec<(VertexId, EdgeId)>,
}

impl EmbedWorkspace {
    /// An empty workspace; buffers grow on first use and stay warm.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads the window of `env`: walks `neighbors_into` once per
    /// vertex and stores every arc with its target, edge id, cost and
    /// delay. Every [`embed`](Self::embed) until the next `load_window`
    /// runs over this table.
    ///
    /// # Panics
    ///
    /// Panics if the window has `u32::MAX` arcs or more.
    pub fn load_window<G: SteinerGraph + ?Sized>(&mut self, env: &EmbedEnv<'_, G>) {
        let n = env.graph.num_vertices();
        let a = &mut self.arcs;
        a.first.clear();
        a.head.clear();
        a.edge.clear();
        a.cost.clear();
        a.delay.clear();
        a.first.push(0);
        for v in 0..n as VertexId {
            env.graph.neighbors_into(v, &mut self.nbrs);
            for &(w, e) in &self.nbrs {
                a.head.push(w);
                a.edge.push(e);
                a.cost.push(env.cost[e as usize]);
                a.delay.push(env.delay[e as usize]);
            }
            assert!(a.head.len() < NO_ARC as usize, "window arc count exceeds u32 ids");
            a.first.push(a.head.len() as u32);
        }
        self.n = n;
        if self.heap_ids < n {
            self.heap = IndexedBinaryHeap::new(n);
            self.heap_ids = n;
        }
    }

    /// Optimally embeds `topo` into the loaded window; same contract
    /// and result as [`embed_topology`] over the loaded `env`.
    ///
    /// # Panics
    ///
    /// As [`embed_topology`].
    pub fn embed(
        &mut self,
        topo: &Topology,
        root_vertex: VertexId,
        sink_vertices: &[VertexId],
        weights: &[f64],
    ) -> EmbeddedTree {
        assert!(
            topo.is_bifurcation_compatible(),
            "embed requires a bifurcation-compatible topology"
        );
        let n = self.n;
        let root = topo.root();
        let order = topo.dfs_order();
        let sub_w = topo.subtree_weights(weights);

        // Sinks and branchings pull; Steiner nodes with at most one
        // child skip their pull. Each pull records its tree in a row.
        let mut trees: Vec<Option<Vec<u32>>> = (0..topo.num_nodes() as NodeId)
            .map(|v| {
                let branches = topo.children(v).len() > 1;
                let pulls =
                    v != root && (matches!(topo.node_kind(v), NodeKind::Sink(_)) || branches);
                pulls.then(|| vec![NO_ARC; n])
            })
            .collect();
        let mut labels: Vec<Vec<f64>> = vec![Vec::new(); topo.num_nodes()];
        let mut pool: Vec<Vec<f64>> = Vec::new();
        let slab = |pool: &mut Vec<Vec<f64>>, fill: f64| {
            let mut s = pool.pop().unwrap_or_default();
            s.clear();
            s.resize(n, fill);
            s
        };

        for &v in order.iter().rev() {
            if v == root {
                // The root's label is never read: its child's pull is
                // read at π(r) alone.
                pool.extend(
                    topo.children(v).iter().map(|&c| std::mem::take(&mut labels[c as usize])),
                );
                continue;
            }
            let mut label = match (topo.node_kind(v), topo.children(v)) {
                (NodeKind::Sink(s), _) => {
                    let mut l = slab(&mut pool, f64::INFINITY);
                    l[sink_vertices[s] as usize] = 0.0;
                    l
                }
                (_, []) => {
                    // A childless Steiner node is 0 everywhere, and its
                    // pull would keep every vertex its own seed. Filling
                    // the lengths keeps that pull's edge check.
                    self.fill_lengths(sub_w[v as usize]);
                    slab(&mut pool, 0.0)
                }
                // One child: the same arc weight as the child, whose
                // label is already a fixpoint of this pull — pass it up.
                (_, &[c]) => std::mem::take(&mut labels[c as usize]),
                (_, &[c1, c2]) => {
                    let mut lv = std::mem::take(&mut labels[c1 as usize]);
                    let m = std::mem::take(&mut labels[c2 as usize]);
                    for (x, &y) in lv.iter_mut().zip(&m) {
                        *x = 0.0 + *x + y;
                    }
                    pool.push(m);
                    lv
                }
                // INVARIANT: the compatibility assert above caps every non-sink node at two children.
                _ => unreachable!("bifurcation-compatible nodes have at most two children"),
            };
            if let Some(tree) = trees[v as usize].as_mut() {
                let stop = read_only_at_root(topo, v).then_some(root_vertex);
                self.pull(v, sub_w[v as usize], &mut label, tree, stop);
            }
            labels[v as usize] = label;
        }

        // Top-down recovery: walk each pull tree from the parent's chosen
        // vertex back to the seed. Arcs lead away from the seed, so the
        // walk emits edges in parent_vertex → seed order — exactly the
        // arc direction we store. A skipped pull lands on its parent's
        // vertex with an empty arc.
        let mut out = EmbeddedTree::new(root_vertex);
        let mut placed = vec![(out.root(), root_vertex); topo.num_nodes()];
        for &v in &order {
            // Only the root has no parent; dfs_order is root-first, so
            // `p` was placed before `v`.
            let Some(p) = topo.parent(v) else { continue };
            let (out_parent, mut cur) = placed[p as usize];
            let mut edges = Vec::new();
            if let Some(tree) = &trees[v as usize] {
                while tree[cur as usize] != NO_ARC {
                    let a = tree[cur as usize] as usize;
                    edges.push(self.arcs.edge[a]);
                    cur = self.arcs.tail(a);
                }
            }
            let id = out.add_node(topo.node_kind(v), cur, out_parent, edges);
            placed[v as usize] = (id, cur);
        }
        out
    }

    /// Fills `len` with `cost + w·delay` per arc, checking each length.
    fn fill_lengths(&mut self, w: f64) {
        let a = &self.arcs;
        self.len.clear();
        self.len.extend(a.cost.iter().zip(&a.delay).map(|(&c, &d)| {
            let le = c + w * d;
            assert!(le >= 0.0 && !le.is_nan(), "invalid edge length");
            le
        }));
    }

    /// Pulls node `v`'s label `dist` through one multi-source Dijkstra
    /// under the metric `cost + w·delay`, in place: `dist` becomes
    /// `min_y [L_v(y) + dist(·, y)]`, and `parent` the arc each vertex
    /// was last relaxed over. With `stop`, the search ends once that
    /// vertex settles, as the pull is only ever read there.
    fn pull(
        &mut self,
        v: NodeId,
        w: f64,
        dist: &mut [f64],
        parent: &mut [u32],
        stop: Option<VertexId>,
    ) {
        let mut seeded = false;
        for (x, &d) in dist.iter().enumerate() {
            if d.is_finite() {
                assert!(d >= 0.0, "negative source offset");
                self.heap.push(x as VertexId, d);
                seeded = true;
            }
        }
        assert!(seeded, "subtree of node {v} is unreachable");
        self.fill_lengths(w);
        let Self { arcs, len, heap, .. } = self;
        while let Some((x, dx)) = heap.pop() {
            if Some(x) == stop {
                heap.clear();
                break;
            }
            let (lo, hi) = (arcs.first[x as usize] as usize, arcs.first[x as usize + 1] as usize);
            for (a, (&y, &le)) in (lo..hi).zip(arcs.head[lo..hi].iter().zip(&len[lo..hi])) {
                let cand = dx + le;
                if cand < dist[y as usize] {
                    dist[y as usize] = cand;
                    parent[y as usize] = a as u32;
                    heap.push(y, cand);
                }
            }
        }
    }
}

/// Whether `v`'s label is read only at the root's vertex: its parent is
/// the root, or a single-child node whose own label is.
fn read_only_at_root(topo: &Topology, v: NodeId) -> bool {
    let mut p = topo.parent(v);
    while let Some(q) = p {
        if q == topo.root() {
            return true;
        }
        if topo.children(q).len() != 1 {
            return false;
        }
        p = topo.parent(q);
    }
    false
}

/// The optimal objective value of embedding `topo` — identical to
/// evaluating the tree returned by [`embed_topology`].
pub fn embed_value<G: SteinerGraph + ?Sized>(
    env: &EmbedEnv<'_, G>,
    topo: &Topology,
    root_vertex: VertexId,
    sink_vertices: &[VertexId],
    weights: &[f64],
) -> f64 {
    let tree = embed_topology(env, topo, root_vertex, sink_vertices, weights);
    tree.evaluate(env.cost, env.delay, weights, &env.bif).total
}

/// Sum of the constant λ-penalty costs of a topology:
/// `Σ_{binary nodes} β(W_left, W_right)`.
pub fn topology_penalty_cost(topo: &Topology, weights: &[f64], bif: &BifurcationConfig) -> f64 {
    let sub_w = topo.subtree_weights(weights);
    (0..topo.num_nodes() as NodeId)
        .filter(|&v| topo.children(v).len() == 2)
        .map(|v| {
            let kids = topo.children(v);
            beta(sub_w[kids[0] as usize], sub_w[kids[1] as usize], bif)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_geom::Point;
    use cds_graph::dijkstra::{shortest_paths, Parent, SpTree};
    use cds_graph::{EdgeAttrs, GraphBuilder, GridGraph, GridSpec, WindowView, WireTypeSpec};
    use proptest::prelude::*;

    /// The per-node DP the engine replaced, kept as its reference: every
    /// node (childless and single-child ones too) pulls its full label
    /// through an exhaustive `shortest_paths`, and paths come from the
    /// resulting forests.
    fn reference_embed<G: SteinerGraph + ?Sized>(
        env: &EmbedEnv<'_, G>,
        topo: &Topology,
        root_vertex: VertexId,
        sink_vertices: &[VertexId],
        weights: &[f64],
    ) -> EmbeddedTree {
        assert!(topo.is_bifurcation_compatible());
        let n = env.graph.num_vertices();
        let order = topo.dfs_order();
        let sub_w = topo.subtree_weights(weights);
        let mut labels: Vec<Option<Vec<f64>>> = vec![None; topo.num_nodes()];
        let mut pull_trees: Vec<Option<SpTree>> = vec![None; topo.num_nodes()];
        for &v in order.iter().rev() {
            let mut lv = vec![0.0f64; n];
            let mut any_inf = vec![false; n];
            match topo.node_kind(v) {
                NodeKind::Sink(s) => {
                    lv = vec![f64::INFINITY; n];
                    lv[sink_vertices[s] as usize] = 0.0;
                }
                NodeKind::Root | NodeKind::Steiner => {
                    for &c in topo.children(v) {
                        let m = labels[c as usize].as_ref().unwrap();
                        for x in 0..n {
                            if m[x].is_infinite() {
                                any_inf[x] = true;
                            } else {
                                lv[x] += m[x];
                            }
                        }
                    }
                    for x in 0..n {
                        if any_inf[x] {
                            lv[x] = f64::INFINITY;
                        }
                    }
                }
            }
            if v != topo.root() {
                let w_arc = sub_w[v as usize];
                let sources: Vec<(VertexId, f64)> = lv
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.is_finite())
                    .map(|(x, &d)| (x as VertexId, d))
                    .collect();
                assert!(!sources.is_empty(), "subtree of node {v} is unreachable");
                let sp = shortest_paths(env.graph, &sources, |e| {
                    env.cost[e as usize] + w_arc * env.delay[e as usize]
                });
                labels[v as usize] = Some(sp.dist.clone());
                pull_trees[v as usize] = Some(sp);
            } else {
                labels[v as usize] = Some(lv);
            }
        }
        let mut out = EmbeddedTree::new(root_vertex);
        let mut map: Vec<Option<(NodeId, VertexId)>> = vec![None; topo.num_nodes()];
        map[topo.root() as usize] = Some((out.root(), root_vertex));
        for &v in &order {
            if v == topo.root() {
                continue;
            }
            let p = topo.parent(v).unwrap();
            let (out_parent, parent_vertex) = map[p as usize].unwrap();
            let sp = pull_trees[v as usize].as_ref().unwrap();
            let mut edges = Vec::new();
            let mut cur = parent_vertex;
            while let Parent::Edge { from, edge } = sp.parent[cur as usize] {
                edges.push(edge);
                cur = from;
            }
            let out_id = out.add_node(topo.node_kind(v), cur, out_parent, edges);
            map[v as usize] = Some((out_id, cur));
        }
        out
    }

    /// Node-for-node identity: kinds, vertices, parents and edge lists.
    fn assert_same_tree(got: &EmbeddedTree, want: &EmbeddedTree, what: &str) {
        assert_eq!(got.num_nodes(), want.num_nodes(), "{what}: node count");
        for v in 0..want.num_nodes() as NodeId {
            assert_eq!(got.node_kind(v), want.node_kind(v), "{what}: kind of {v}");
            assert_eq!(got.vertex(v), want.vertex(v), "{what}: vertex of {v}");
            assert_eq!(got.parent(v), want.parent(v), "{what}: parent of {v}");
            assert_eq!(got.path(v), want.path(v), "{what}: path of {v}");
        }
    }

    /// SplitMix64: the random instances below derive from one drawn seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick(&mut self, pool: &[f64]) -> f64 {
            pool[self.below(pool.len())]
        }
    }

    /// A small grid (two or three layers, so every window is connected),
    /// with a second (parallel) wire type on layer 0 half of the time.
    fn random_grid(rng: &mut Mix) -> GridGraph {
        let mut spec = GridSpec::uniform(
            2 + rng.below(7) as u32,
            2 + rng.below(7) as u32,
            2 + rng.below(2) as u8,
        );
        if rng.below(2) == 0 {
            spec.layers[0].wire_types.push(WireTypeSpec {
                cost_per_gcell: 2.0,
                delay_per_gcell: 0.5,
                capacity: 5.0,
            });
        }
        spec.build()
    }

    /// A random bifurcation-compatible topology on `k` sinks, with
    /// Steiner nodes left childless or single-child at random.
    fn random_topology(rng: &mut Mix, k: usize) -> Topology {
        let mut t = Topology::new(Point::new(0, 0));
        // one entry per free child slot: the root has one, Steiner nodes two
        let mut open = vec![t.root()];
        let (mut sinks, mut steiners) = (0, rng.below(k + 3));
        while sinks < k || steiners > 0 {
            let parent = open.swap_remove(rng.below(open.len()));
            let last_slot = open.is_empty() && k - sinks + steiners > 1;
            if last_slot || (steiners > 0 && (sinks == k || rng.below(2) == 0)) {
                let s = t.add_steiner(Point::new(0, 0), parent);
                open.extend([s, s]);
                steiners = steiners.saturating_sub(1);
            } else {
                t.add_sink(sinks, Point::new(0, 0), parent);
                sinks += 1;
            }
        }
        t
    }

    /// A random pin of a `nx × ny × nl` window: on the border, at
    /// `root` (if given), or anywhere.
    fn random_pin(
        rng: &mut Mix,
        (nx, ny, nl): (u32, u32, u32),
        root: Option<VertexId>,
    ) -> VertexId {
        let (mut x, mut y) = (rng.below(nx as usize) as u32, rng.below(ny as usize) as u32);
        let layer = rng.below(nl as usize) as u32;
        match (rng.below(4), root) {
            (0, Some(r)) => return r,
            (1, _) => x = [0, nx - 1][rng.below(2)],
            (2, _) => y = [0, ny - 1][rng.below(2)],
            _ => {}
        }
        (layer * ny + y) * nx + x
    }

    /// One random instance on a window view of a random grid: the
    /// engine (through `ws`, and through a fresh workspace) against the
    /// reference DP.
    fn check_random_instance(seed: u64, ws: &mut EmbedWorkspace) {
        let mut rng = Mix(seed);
        let grid = random_grid(&mut rng);
        let g = grid.graph();
        // prices and delays from tiny pools, zeros included: ties everywhere
        let cost: Vec<f64> = (0..g.num_edges()).map(|_| rng.pick(&[0.0, 0.5, 1.0, 2.0])).collect();
        let delay: Vec<f64> = (0..g.num_edges()).map(|_| rng.pick(&[0.0, 1.0, 1.5])).collect();
        let (nx, ny) = (grid.spec().nx, grid.spec().ny);
        let (x0, y0) = (rng.below(nx as usize) as u32, rng.below(ny as usize) as u32);
        let (x1, y1) = (x0 + rng.below(nx as usize) as u32, y0 + rng.below(ny as usize) as u32);
        let view = WindowView::new(&grid, x0, y0, x1, y1);
        let (wx, wy) = view.dims();
        let dims = (wx, wy, grid.spec().layers.len() as u32);
        let env =
            EmbedEnv { graph: &view, cost: &cost, delay: &delay, bif: BifurcationConfig::ZERO };
        ws.load_window(&env);
        // two topologies per load, as the exact enumerator embeds many
        for _ in 0..2 {
            let k = 1 + rng.below(6);
            let topo = random_topology(&mut rng, k);
            let root = random_pin(&mut rng, dims, None);
            let sinks: Vec<VertexId> =
                (0..k).map(|_| random_pin(&mut rng, dims, Some(root))).collect();
            let weights: Vec<f64> = (0..k).map(|_| rng.pick(&[0.0, 0.0, 0.25, 1.0, 3.0])).collect();
            let want = reference_embed(&env, &topo, root, &sinks, &weights);
            let warm = ws.embed(&topo, root, &sinks, &weights);
            assert_same_tree(&warm, &want, &format!("seed {seed}, warm"));
            let fresh = embed_topology(&env, &topo, root, &sinks, &weights);
            assert_same_tree(&fresh, &want, &format!("seed {seed}, fresh"));
            warm.validate(&view, k).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The engine reproduces the reference DP bit for bit on random
        /// windows, prices, weights (zeros included) and topologies
        /// (childless and single-child Steiner nodes, pins on the border
        /// or at π(r)).
        #[test]
        fn engine_matches_the_reference_dp(seed in 0u64..u64::MAX) {
            check_random_instance(seed, &mut EmbedWorkspace::new());
        }
    }

    #[test]
    fn warm_workspace_matches_fresh_over_a_stream() {
        // one workspace through windows that grow and shrink
        let mut ws = EmbedWorkspace::new();
        for seed in 0..120 {
            check_random_instance(seed * 7919, &mut ws);
        }
    }

    #[test]
    fn childless_steiner_node_lands_on_its_parent() {
        // root → s → {sink 0, c}, where c (as SlOracle may emit) has no
        // children: c's label is 0 everywhere, so c lands on s's vertex
        // with an empty arc and the rest embeds as if c were absent.
        let grid = GridSpec::uniform(5, 4, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let mut with = Topology::new(Point::new(0, 0));
        let s = with.add_steiner(Point::new(0, 0), with.root());
        with.add_sink(0, Point::new(0, 0), s);
        let childless = with.add_steiner(Point::new(0, 0), s);
        let mut without = Topology::new(Point::new(0, 0));
        let s2 = without.add_steiner(Point::new(0, 0), without.root());
        without.add_sink(0, Point::new(0, 0), s2);
        let (root, sink) = (grid.vertex_at(Point::new(0, 0)), grid.vertex_at(Point::new(4, 3)));

        let tree = embed_topology(&env, &with, root, &[sink], &[2.0]);
        assert_same_tree(&tree, &reference_embed(&env, &with, root, &[sink], &[2.0]), "childless");
        tree.validate(g, 1).unwrap();
        assert_eq!(tree.vertex(childless), tree.vertex(s));
        assert!(tree.path(childless).edges.is_empty());
        let base = embed_topology(&env, &without, root, &[sink], &[2.0]);
        for v in 0..base.num_nodes() as NodeId {
            assert_eq!(tree.vertex(v), base.vertex(v));
            assert_eq!(tree.path(v), base.path(v));
        }
    }

    fn two_sink_topo() -> Topology {
        let mut t = Topology::new(Point::new(0, 0));
        let s = t.add_steiner(Point::new(0, 0), t.root());
        t.add_sink(0, Point::new(0, 0), s);
        t.add_sink(1, Point::new(0, 0), s);
        t
    }

    #[test]
    fn single_sink_is_shortest_path() {
        let grid = GridSpec::uniform(5, 5, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let mut topo = Topology::new(Point::new(0, 0));
        topo.add_sink(0, Point::new(4, 4), topo.root());
        let root = grid.vertex_at(Point::new(0, 0));
        let sink = grid.vertex_at(Point::new(4, 4));
        let w = [3.0];
        let tree = embed_topology(&env, &topo, root, &[sink], &w);
        tree.validate(g, 1).unwrap();
        let ev = tree.evaluate(&c, &d, &w, &BifurcationConfig::ZERO);
        // reference: plain Dijkstra with combined metric c + w·d
        let sp = cds_graph::dijkstra::shortest_distances(g, &[(root, 0.0)], |e| {
            c[e as usize] + 3.0 * d[e as usize]
        });
        assert!((ev.total - sp[sink as usize]).abs() < 1e-9);
    }

    #[test]
    fn steiner_point_is_chosen_optimally() {
        // Star: r(0) -- 1 -- 2 -- {3, 4}; the optimal Steiner node is
        // vertex 2, sharing the 0-1-2 trunk.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(1, 2, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(2, 3, EdgeAttrs::wire(1.0, 1.0));
        b.add_edge(2, 4, EdgeAttrs::wire(1.0, 1.0));
        let g = b.build();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: &g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let topo = two_sink_topo();
        let tree = embed_topology(&env, &topo, 0, &[3, 4], &[1.0, 1.0]);
        tree.validate(&g, 2).unwrap();
        let ev = tree.evaluate(&c, &d, &[1.0, 1.0], &BifurcationConfig::ZERO);
        // connection = 4 edges, delays: both sinks at distance 3, weight 1
        assert!((ev.connection_cost - 4.0).abs() < 1e-9);
        assert!((ev.delay_cost - 6.0).abs() < 1e-9);
        // the Steiner node must have landed on vertex 2
        let steiner_vertices: Vec<_> = (0..tree.num_nodes() as u32)
            .filter(|&v| tree.node_kind(v) == NodeKind::Steiner)
            .map(|v| tree.vertex(v))
            .collect();
        assert_eq!(steiner_vertices, vec![2]);
    }

    #[test]
    fn weights_steer_delay_allocation() {
        let grid = GridSpec::uniform(6, 6, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let topo = two_sink_topo();
        let root = grid.vertex_at(Point::new(0, 0));
        let s_a = grid.vertex_at(Point::new(5, 0));
        let s_b = grid.vertex_at(Point::new(0, 5));
        let heavy = embed_topology(&env, &topo, root, &[s_a, s_b], &[50.0, 1.0]);
        let ev_h = heavy.evaluate(&c, &d, &[50.0, 1.0], &BifurcationConfig::ZERO);
        let light = embed_topology(&env, &topo, root, &[s_a, s_b], &[1.0, 50.0]);
        let ev_l = light.evaluate(&c, &d, &[1.0, 50.0], &BifurcationConfig::ZERO);
        // raising a sink's weight must never increase its achieved delay
        assert!(ev_h.sink_delays[0] <= ev_l.sink_delays[0] + 1e-9);
        assert!(ev_l.sink_delays[1] <= ev_h.sink_delays[1] + 1e-9);
    }

    #[test]
    fn embedding_shares_the_trunk() {
        // Two sinks in the same direction: the tree must share the trunk,
        // beating two independent shortest paths in connection cost.
        let grid = GridSpec::uniform(8, 3, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif: BifurcationConfig::ZERO };
        let topo = two_sink_topo();
        let root = grid.vertex_at(Point::new(0, 0));
        let a = grid.vertex_at(Point::new(7, 0));
        let bb = grid.vertex_at(Point::new(7, 2));
        let tree = embed_topology(&env, &topo, root, &[a, bb], &[0.001, 0.001]);
        let ev = tree.evaluate(&c, &d, &[0.001, 0.001], &BifurcationConfig::ZERO);
        let star_cost = 7.0 + 7.0 + 2.0 + 2.0; // two trunks + dogleg + vias
        assert!(ev.connection_cost < star_cost);
    }

    #[test]
    fn penalty_constant_matches_beta_sum() {
        let topo = two_sink_topo();
        let bif = BifurcationConfig::new(10.0, 0.25);
        let w = [4.0, 1.0];
        let want = cds_topo::penalty::beta(4.0, 1.0, &bif);
        assert!((topology_penalty_cost(&topo, &w, &bif) - want).abs() < 1e-12);
    }

    #[test]
    fn embedded_value_includes_penalties() {
        let grid = GridSpec::uniform(4, 4, 2).build();
        let g = grid.graph();
        let (c, d) = (g.base_costs(), g.delays());
        let bif = BifurcationConfig::new(5.0, 0.25);
        let env = EmbedEnv { graph: g, cost: &c, delay: &d, bif };
        let topo = two_sink_topo();
        let root = grid.vertex_at(Point::new(0, 0));
        let sinks = [grid.vertex_at(Point::new(3, 0)), grid.vertex_at(Point::new(0, 3))];
        let w = [2.0, 1.0];
        let with = embed_value(&env, &topo, root, &sinks, &w);
        let env0 = EmbedEnv { bif: BifurcationConfig::ZERO, ..env };
        let without = embed_value(&env0, &topo, root, &sinks, &w);
        assert!(with > without, "penalties must increase the objective");
    }
}
