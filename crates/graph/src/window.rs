//! Windowed subgrids for per-net routing.
//!
//! Routers do not run net-level Steiner searches over the whole chip:
//! each net is routed inside a bounding-box window (plus margin) of the
//! global grid. Two window backends exist:
//!
//! * [`WindowView`] — the zero-copy backend: a
//!   [`SteinerGraph`]/[`RoutingSurface`] that routes directly over the
//!   global grid, restricted to the window. Vertex ids are window-local
//!   and dense; edge ids are *global*, so the global price and delay
//!   arrays index directly and nothing is materialized or sliced per
//!   net. This is what [`Router::run`](../cds_router/struct.Router.html)
//!   uses.
//! * [`GridWindow`] — the materialized backend: builds the
//!   sub-[`GridGraph`] for a window and maps its edge ids back to the
//!   global graph so that prices can be sliced in and usage accumulated
//!   out. No router path uses it: it is the reference the view backend
//!   is checked against in tests (solving over a `WindowView` is
//!   bit-identical to solving over the corresponding `GridWindow`).

use crate::graph::{EdgeAttrs, EdgeId, EdgeKind, Endpoints, VertexId};
use crate::grid::{GridGraph, GridSpec, VertexCoord};
use crate::steiner::{RoutingSurface, SteinerGraph};
use cds_geom::Point;

/// The inclusive window bounds `(x0, y0, x1, y1)` around a set of
/// planar points (global grid coordinates) with the given margin,
/// clamped to an `nx × ny` grid.
///
/// This is the single source of truth for per-net routing-window
/// extents: [`WindowView::around`], [`GridWindow::around`], and the
/// router's dirty-net drift certificate (which must cover *exactly*
/// the window a net routes in) all derive their bounds here.
///
/// # Panics
///
/// Panics if `points` is empty or contains a negative coordinate.
pub fn window_bounds(points: &[Point], margin: u32, nx: u32, ny: u32) -> (u32, u32, u32, u32) {
    assert!(!points.is_empty(), "window of no points");
    let (mut x0, mut y0, mut x1, mut y1) = (u32::MAX, u32::MAX, 0u32, 0u32);
    for p in points {
        assert!(p.x >= 0 && p.y >= 0, "negative gcell coordinate");
        x0 = x0.min(p.x as u32);
        y0 = y0.min(p.y as u32);
        x1 = x1.max(p.x as u32);
        y1 = y1.max(p.y as u32);
    }
    (
        x0.saturating_sub(margin),
        y0.saturating_sub(margin),
        (x1 + margin).min(nx - 1),
        (y1 + margin).min(ny - 1),
    )
}

/// Sentinel for "no edge in this slot".
const NO_EDGE: EdgeId = EdgeId::MAX;

/// Precomputed lookup from (endpoints, flavour) to global edge id.
/// Build once per chip; shared by all windows.
///
/// Dense by construction instead of hashed: every grid layer routes a
/// single preferred direction, so a global edge is uniquely addressed
/// by its **lower endpoint** plus a small slot — the wire type for wire
/// edges, or one extra slot for the via up. The lookup is a flat
/// `Vec<EdgeId>` indexed by `vertex · stride + slot`: no hashing, no
/// iteration-order hazard (the old `HashMap` keyed on endpoint pairs
/// was only ever probed, but a dense array makes order-independence
/// true by construction and is what `cds-lint`'s
/// `no-hash-on-solve-path` rule expects of this crate).
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    /// `slots[v · stride + slot]`, [`NO_EDGE`] where absent.
    slots: Vec<EdgeId>,
    /// Slots per vertex: max wire types over all layers, plus the via.
    stride: usize,
}

impl EdgeIndex {
    /// Indexes all edges of `grid`.
    ///
    /// # Panics
    ///
    /// Panics if two edges share a (lower endpoint, slot) address —
    /// impossible for grids built by [`GridSpec::build`], which emits
    /// one edge per (vertex, wire type) in the layer direction and one
    /// via up.
    pub fn new(grid: &GridGraph) -> Self {
        let g = grid.graph();
        let wire_types = grid.spec().layers.iter().map(|l| l.wire_types.len()).max().unwrap_or(0);
        let stride = wire_types + 1; // + the via slot
        let mut slots = vec![NO_EDGE; g.num_vertices() * stride];
        for e in g.edge_ids() {
            let ep = g.endpoints(e);
            let a = g.edge(e);
            let idx = slot_index(ep.u, ep.v, a.kind, a.wire_type, stride, wire_types);
            assert_eq!(slots[idx], NO_EDGE, "edge slot collision at edge {e}");
            slots[idx] = e;
        }
        EdgeIndex { slots, stride }
    }

    /// The global edge with the given endpoints and flavour, if one
    /// exists. Endpoint order does not matter.
    pub fn lookup(
        &self,
        grid: &GridGraph,
        u: VertexId,
        v: VertexId,
        kind: EdgeKind,
        wire_type: u8,
    ) -> Option<EdgeId> {
        let wire_types = self.stride - 1;
        if kind != EdgeKind::Via && usize::from(wire_type) >= wire_types {
            return None;
        }
        let idx = slot_index(u, v, kind, wire_type, self.stride, wire_types);
        let e = *self.slots.get(idx)?;
        if e == NO_EDGE {
            return None;
        }
        // the slot address ignores the upper endpoint; confirm the
        // candidate actually connects the queried pair
        let ep = grid.graph().endpoints(e);
        ((ep.u == u && ep.v == v) || (ep.u == v && ep.v == u)).then_some(e)
    }
}

/// Flat slot address of the edge `(u, v)` with the given flavour: the
/// lower endpoint picks the vertex row, the flavour picks the slot
/// (wire type, or the last slot for vias).
fn slot_index(
    u: VertexId,
    v: VertexId,
    kind: EdgeKind,
    wire_type: u8,
    stride: usize,
    wire_types: usize,
) -> usize {
    let lo = u.min(v) as usize;
    let slot = if kind == EdgeKind::Via { wire_types } else { usize::from(wire_type) };
    lo * stride + slot
}

/// A rectangular window of a [`GridGraph`]: a self-contained sub-grid
/// plus translations to/from the global graph.
#[derive(Debug, Clone)]
pub struct GridWindow {
    /// The sub-grid (all layers, clipped x/y range).
    pub grid: GridGraph,
    /// Window origin in global gcell coordinates.
    pub x0: u32,
    /// Window origin in global gcell coordinates.
    pub y0: u32,
    /// For each window edge id, the corresponding global edge id.
    pub to_global_edge: Vec<EdgeId>,
}

impl GridWindow {
    /// Builds the window `[x0..=x1] × [y0..=y1]` (inclusive, clamped to
    /// the grid) of `grid`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty after clamping.
    pub fn build(grid: &GridGraph, index: &EdgeIndex, x0: u32, y0: u32, x1: u32, y1: u32) -> Self {
        let spec = grid.spec();
        let x1 = x1.min(spec.nx - 1);
        let y1 = y1.min(spec.ny - 1);
        assert!(x0 <= x1 && y0 <= y1, "empty window");
        let sub_spec = GridSpec {
            nx: x1 - x0 + 1,
            ny: y1 - y0 + 1,
            layers: spec.layers.clone(),
            via_cost: spec.via_cost,
            via_delay: spec.via_delay,
            via_capacity: spec.via_capacity,
            gcell_um: spec.gcell_um,
        };
        let sub = sub_spec.build();
        // translate each window edge to its global id
        let sg = sub.graph();
        let mut to_global_edge = Vec::with_capacity(sg.num_edges());
        for e in sg.edge_ids() {
            let ep = sg.endpoints(e);
            let a = sg.edge(e);
            let cu = sub.coord(ep.u);
            let cv = sub.coord(ep.v);
            let gu = grid.vertex(cu.x + x0, cu.y + y0, cu.layer);
            let gv = grid.vertex(cv.x + x0, cv.y + y0, cv.layer);
            let global = index
                .lookup(grid, gu, gv, a.kind, a.wire_type)
                // INVARIANT: window vertices are grid cells inside the clip rect, so every window edge is a copy of a global edge the index contains.
                .expect("window edge exists globally");
            to_global_edge.push(global);
        }
        GridWindow { grid: sub, x0, y0, to_global_edge }
    }

    /// Window around a set of planar points with the given margin.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or has out-of-grid coordinates.
    pub fn around(grid: &GridGraph, index: &EdgeIndex, points: &[Point], margin: u32) -> Self {
        let spec = grid.spec();
        let (x0, y0, x1, y1) = window_bounds(points, margin, spec.nx, spec.ny);
        GridWindow::build(grid, index, x0, y0, x1, y1)
    }

    /// Translates a global planar point into the window.
    pub fn localize(&self, p: Point) -> Point {
        Point::new(p.x - self.x0 as i32, p.y - self.y0 as i32)
    }

    /// Slices a global per-edge array into window edge order.
    pub fn slice<T: Copy>(&self, global: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        self.slice_into(global, &mut out);
        out
    }

    /// [`slice`](Self::slice) into a caller-owned buffer (cleared
    /// first), so per-net slicing in a routing loop reuses one warm
    /// allocation per worker instead of building a fresh `Vec` per net.
    pub fn slice_into<T: Copy>(&self, global: &[T], out: &mut Vec<T>) {
        out.clear();
        out.extend(self.to_global_edge.iter().map(|&e| global[e as usize]));
    }
}

/// A zero-copy rectangular window of a [`GridGraph`]: routes over the
/// global grid without materializing a sub-graph.
///
/// Local vertex ids are dense, laid out exactly like the vertex ids of
/// the [`GridGraph`] a [`GridWindow`] of the same bounds would build
/// (`(layer · ny + y) · nx + x` in window coordinates), so per-solve
/// label slabs stay window-sized. Edge ids are the *global* edge ids,
/// so the chip-wide price/delay arrays index directly — no per-net
/// slicing — and routed edges come out in global ids with no
/// translation step.
///
/// ```
/// use cds_graph::{GridSpec, SteinerGraph, WindowView};
/// let grid = GridSpec::uniform(8, 6, 2).build();
/// let view = WindowView::new(&grid, 2, 1, 5, 4);
/// assert_eq!(view.num_vertices(), 4 * 4 * 2);
/// assert_eq!(view.edge_bound(), grid.graph().num_edges());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WindowView<'a> {
    grid: &'a GridGraph,
    x0: u32,
    y0: u32,
    nx: u32,
    ny: u32,
}

impl<'a> WindowView<'a> {
    /// The view of `[x0..=x1] × [y0..=y1]` (inclusive, clamped to the
    /// grid), all layers.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty after clamping.
    pub fn new(grid: &'a GridGraph, x0: u32, y0: u32, x1: u32, y1: u32) -> Self {
        let spec = grid.spec();
        let x1 = x1.min(spec.nx - 1);
        let y1 = y1.min(spec.ny - 1);
        assert!(x0 <= x1 && y0 <= y1, "empty window");
        WindowView { grid, x0, y0, nx: x1 - x0 + 1, ny: y1 - y0 + 1 }
    }

    /// View around a set of planar points (global coordinates) with the
    /// given margin — the same bounds [`GridWindow::around`] would use.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or has out-of-grid coordinates.
    pub fn around(grid: &'a GridGraph, points: &[Point], margin: u32) -> Self {
        let spec = grid.spec();
        let (x0, y0, x1, y1) = window_bounds(points, margin, spec.nx, spec.ny);
        WindowView::new(grid, x0, y0, x1, y1)
    }

    /// The global grid this view windows.
    pub fn grid(&self) -> &'a GridGraph {
        self.grid
    }

    /// Window origin in global gcell coordinates.
    pub fn origin(&self) -> (u32, u32) {
        (self.x0, self.y0)
    }

    /// Window extent `(nx, ny)` in gcells.
    pub fn dims(&self) -> (u32, u32) {
        (self.nx, self.ny)
    }

    /// Window coordinates of a local vertex id.
    pub fn coord(&self, v: VertexId) -> VertexCoord {
        let per_layer = self.nx * self.ny;
        VertexCoord { x: v % self.nx, y: (v / self.nx) % self.ny, layer: (v / per_layer) as u8 }
    }

    /// The global vertex id of local vertex `v`.
    pub fn to_global_vertex(&self, v: VertexId) -> VertexId {
        let c = self.coord(v);
        self.grid.vertex(c.x + self.x0, c.y + self.y0, c.layer)
    }

    /// The local vertex id of global vertex `g`, if it lies inside the
    /// window.
    pub fn to_local_vertex(&self, g: VertexId) -> Option<VertexId> {
        let c = self.grid.coord(g);
        let (x, y) = (c.x.wrapping_sub(self.x0), c.y.wrapping_sub(self.y0));
        if x < self.nx && y < self.ny {
            Some((c.layer as u32 * self.ny + y) * self.nx + x)
        } else {
            None
        }
    }
}

impl SteinerGraph for WindowView<'_> {
    fn num_vertices(&self) -> usize {
        self.nx as usize * self.ny as usize * self.grid.spec().layers.len()
    }

    fn edge_bound(&self) -> usize {
        self.grid.graph().num_edges()
    }

    /// Endpoints as *local* vertex ids.
    ///
    /// # Panics
    ///
    /// Panics if `e` does not lie inside the window — views only ever
    /// see edges discovered through their own neighbor enumeration.
    fn endpoints(&self, e: EdgeId) -> Endpoints {
        let ep = self.grid.graph().endpoints(e);
        Endpoints {
            // INVARIANT: e came from a window adjacency list, which only holds edges with both endpoints inside the window.
            u: self.to_local_vertex(ep.u).expect("edge endpoint inside the window"),
            // INVARIANT: same as u: window adjacency never stores a half-outside edge.
            v: self.to_local_vertex(ep.v).expect("edge endpoint inside the window"),
        }
    }

    fn edge_attrs(&self, e: EdgeId) -> EdgeAttrs {
        *self.grid.graph().edge(e)
    }

    /// Window-restricted neighbors, in ascending global edge id order —
    /// order-isomorphic to the CSR adjacency of the materialized window
    /// grid, which keeps the two backends bit-identical.
    ///
    /// This is the solver's per-settle inner call, so it avoids the
    /// generic `to_local_vertex` per neighbor: a grid edge steps
    /// exactly one of x/y/layer, which the global-id delta classifies
    /// with comparisons alone — no per-neighbor divisions.
    fn neighbors_into(&self, v: VertexId, out: &mut Vec<(VertexId, EdgeId)>) {
        out.clear();
        let (lnx, lny) = (self.nx, self.ny);
        let lplane = lnx * lny;
        let x = v % lnx;
        let y = (v / lnx) % lny;
        let layer = v / lplane;
        let spec = self.grid.spec();
        let gnx = spec.nx;
        let gplane = gnx * spec.ny;
        let g = (layer * spec.ny + (y + self.y0)) * gnx + (x + self.x0);
        for &(w, e) in self.grid.graph().neighbors(g) {
            let lw = if w == g + 1 {
                if x + 1 < lnx {
                    v + 1
                } else {
                    continue;
                }
            } else if w == g.wrapping_sub(1) {
                if x > 0 {
                    v - 1
                } else {
                    continue;
                }
            } else if w == g + gnx {
                if y + 1 < lny {
                    v + lnx
                } else {
                    continue;
                }
            } else if w == g.wrapping_sub(gnx) {
                if y > 0 {
                    v - lnx
                } else {
                    continue;
                }
            } else if w == g + gplane {
                // vias keep their (x, y), so they always stay inside
                v + lplane
            } else {
                debug_assert_eq!(w, g - gplane, "unclassified grid edge delta");
                v - lplane
            };
            out.push((lw, e));
        }
    }
}

impl RoutingSurface for WindowView<'_> {
    fn plane_dims(&self) -> (u32, u32) {
        (self.nx, self.ny)
    }

    fn vertex_at(&self, p: Point) -> VertexId {
        assert!(p.x >= 0 && p.y >= 0, "negative window coordinate");
        let (x, y) = (p.x as u32, p.y as u32);
        assert!(x < self.nx && y < self.ny, "point outside the window");
        y * self.nx + x
    }

    fn localize(&self, p: Point) -> Point {
        Point::new(p.x - self.x0 as i32, p.y - self.y0 as i32)
    }

    fn min_cost_per_gcell(&self) -> f64 {
        self.grid.min_cost_per_gcell()
    }

    fn min_delay_per_gcell(&self) -> f64 {
        self.grid.min_delay_per_gcell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;

    #[test]
    fn window_edges_map_to_matching_global_edges() {
        let grid = GridSpec::uniform(8, 6, 3).build();
        let index = EdgeIndex::new(&grid);
        let w = GridWindow::build(&grid, &index, 2, 1, 5, 4);
        assert_eq!(w.grid.spec().nx, 4);
        assert_eq!(w.grid.spec().ny, 4);
        let sg = w.grid.graph();
        let gg = grid.graph();
        for e in sg.edge_ids() {
            let global = w.to_global_edge[e as usize];
            let (sa, ga) = (sg.edge(e), gg.edge(global));
            assert_eq!(sa.kind, ga.kind);
            assert_eq!(sa.layer, ga.layer);
            assert_eq!(sa.wire_type, ga.wire_type);
            // endpoints correspond under translation
            let sep = sg.endpoints(e);
            let (cu, cv) = (w.grid.coord(sep.u), w.grid.coord(sep.v));
            let gu = grid.vertex(cu.x + 2, cu.y + 1, cu.layer);
            let gv = grid.vertex(cv.x + 2, cv.y + 1, cv.layer);
            let gep = gg.endpoints(global);
            assert!(
                (gep.u == gu && gep.v == gv) || (gep.u == gv && gep.v == gu),
                "edge {e} endpoints mismatch"
            );
        }
    }

    #[test]
    fn edge_index_round_trips_every_edge() {
        // every global edge — parallel wire types included — resolves
        // through the dense lookup, in either endpoint order
        let mut spec = GridSpec::uniform(5, 4, 3);
        spec.layers[1].wire_types.push(crate::grid::WireTypeSpec {
            cost_per_gcell: 2.0,
            delay_per_gcell: 0.25,
            capacity: 3.0,
        });
        let grid = spec.build();
        let index = EdgeIndex::new(&grid);
        let g = grid.graph();
        for e in g.edge_ids() {
            let ep = g.endpoints(e);
            let a = g.edge(e);
            assert_eq!(index.lookup(&grid, ep.u, ep.v, a.kind, a.wire_type), Some(e));
            assert_eq!(index.lookup(&grid, ep.v, ep.u, a.kind, a.wire_type), Some(e));
        }
        // misses: non-adjacent pair, absent wire type, wrong kind
        let (u, v) = (grid.vertex(0, 0, 0), grid.vertex(3, 3, 0));
        assert_eq!(index.lookup(&grid, u, v, EdgeKind::Wire, 0), None);
        let e0 = g.edge_ids().next().expect("edges exist");
        let ep = g.endpoints(e0);
        assert_eq!(index.lookup(&grid, ep.u, ep.v, EdgeKind::Wire, 9), None);
        assert_eq!(index.lookup(&grid, ep.u, ep.v, EdgeKind::Via, 0), None);
    }

    #[test]
    fn around_clamps_to_grid() {
        let grid = GridSpec::uniform(5, 5, 2).build();
        let index = EdgeIndex::new(&grid);
        let w = GridWindow::around(&grid, &index, &[Point::new(0, 0), Point::new(4, 4)], 10);
        assert_eq!(w.grid.spec().nx, 5);
        assert_eq!(w.grid.spec().ny, 5);
        assert_eq!(w.x0, 0);
    }

    #[test]
    fn view_matches_materialized_window_structure() {
        // The zero-copy view and the materialized window must agree:
        // same vertex id layout, and for every vertex the same neighbor
        // sequence under the local→global edge translation.
        let grid = GridSpec::uniform(9, 7, 3).build();
        let index = EdgeIndex::new(&grid);
        for (x0, y0, x1, y1) in [(2, 1, 6, 5), (0, 0, 8, 6), (3, 3, 3, 3), (7, 0, 20, 2)] {
            let w = GridWindow::build(&grid, &index, x0, y0, x1, y1);
            let v = WindowView::new(&grid, x0, y0, x1, y1);
            let sg = w.grid.graph();
            assert_eq!(v.num_vertices(), sg.num_vertices());
            assert_eq!(v.dims(), (w.grid.spec().nx, w.grid.spec().ny));
            let mut nbrs = Vec::new();
            for lv in 0..sg.num_vertices() as VertexId {
                v.neighbors_into(lv, &mut nbrs);
                let want: Vec<(VertexId, EdgeId)> = sg
                    .neighbors(lv)
                    .iter()
                    .map(|&(wv, we)| (wv, w.to_global_edge[we as usize]))
                    .collect();
                assert_eq!(nbrs, want, "window ({x0},{y0})-({x1},{y1}) vertex {lv}");
                for &(_, e) in &nbrs {
                    let ep = v.endpoints(e);
                    assert!(ep.u == lv || ep.v == lv, "endpoints map back into the window");
                }
            }
        }
    }

    #[test]
    fn view_around_matches_window_around() {
        let grid = GridSpec::uniform(10, 10, 2).build();
        let index = EdgeIndex::new(&grid);
        let pts = [Point::new(2, 3), Point::new(7, 5)];
        let w = GridWindow::around(&grid, &index, &pts, 2);
        let v = WindowView::around(&grid, &pts, 2);
        assert_eq!(v.origin(), (w.x0, w.y0));
        assert_eq!(v.dims(), (w.grid.spec().nx, w.grid.spec().ny));
        assert_eq!(v.localize(Point::new(4, 4)), w.localize(Point::new(4, 4)));
        let p = v.localize(pts[0]);
        assert_eq!(v.vertex_at(p), w.grid.vertex_at(p));
    }

    #[test]
    fn view_vertex_roundtrip_and_attrs() {
        let grid = GridSpec::uniform(6, 6, 2).build();
        let v = WindowView::new(&grid, 1, 2, 4, 5);
        for lv in 0..v.num_vertices() as VertexId {
            let g = v.to_global_vertex(lv);
            assert_eq!(v.to_local_vertex(g), Some(lv));
        }
        // vertices outside the window do not map
        assert_eq!(v.to_local_vertex(grid.vertex(0, 0, 0)), None);
        assert_eq!(v.to_local_vertex(grid.vertex(5, 5, 1)), None);
        // edge attrs come straight from the global graph
        let mut nbrs = Vec::new();
        v.neighbors_into(0, &mut nbrs);
        for &(_, e) in &nbrs {
            assert_eq!(v.edge_attrs(e), *grid.graph().edge(e));
        }
    }

    #[test]
    fn slice_into_reuses_buffer() {
        let grid = GridSpec::uniform(6, 6, 2).build();
        let index = EdgeIndex::new(&grid);
        let w = GridWindow::build(&grid, &index, 1, 1, 4, 4);
        let global: Vec<f64> = (0..grid.graph().num_edges()).map(|i| i as f64).collect();
        let mut buf = vec![0.0; 3];
        w.slice_into(&global, &mut buf);
        assert_eq!(buf, w.slice(&global));
    }

    #[test]
    fn localize_and_slice() {
        let grid = GridSpec::uniform(6, 6, 2).build();
        let index = EdgeIndex::new(&grid);
        let w = GridWindow::build(&grid, &index, 1, 2, 4, 5);
        assert_eq!(w.localize(Point::new(3, 4)), Point::new(2, 2));
        let global: Vec<f64> = (0..grid.graph().num_edges()).map(|i| i as f64).collect();
        let local = w.slice(&global);
        for (le, &v) in local.iter().enumerate() {
            assert_eq!(v, w.to_global_edge[le] as f64);
        }
    }
}
