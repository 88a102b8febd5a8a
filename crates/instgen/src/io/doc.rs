//! The `cdst/1` chip document format.
//!
//! A chip document is everything a routing run needs, in one versioned,
//! line-oriented text file: the grid (dimensions, layers, wire types,
//! per-edge capacity overrides), the technology the delay model is
//! calibrated from, the workload (nets and timing chains), optional
//! per-net delay weights and budgets (the post-route instance archive),
//! router configuration overrides, and optional solver-level `request`
//! records for archiving raw cost-distance request streams. `cds-cli`
//! reads and writes this format, and the pinned experiment chips live
//! under `tests/fixtures/` as chip documents.
//!
//! # Grammar
//!
//! One record per line; blank lines and `#` comments are ignored
//! anywhere. Floats use shortest-round-trip (`{:?}`) formatting, so
//! every value survives write → parse bit-identically. Records must
//! appear in section order (header, preamble, grid, layers, capacity
//! overrides, nets, chains, weights/budgets, requests):
//!
//! ```text
//! cdst/1
//! chip <name>
//! tech <num_layers>
//! celldelay <ps>
//! config <key> <value>                                  (0+)
//! grid <nx> <ny> <nlayers> <via_cost> <via_delay> <via_capacity> <gcell_um>
//! layer <H|V> : <cost> <delay> <capacity> [...]         (exactly nlayers)
//! ecap <edge_id> <capacity>                             (0+, ids strictly increasing)
//! net <root_x> <root_y> : [<x> <y> ...]                 (0+)
//! chain <rat_ps> : <net>[/<cont_sink>] ...              (0+)
//! weights <net> : <w> ...                               (0+, net ids strictly increasing)
//! budgets <net> : <b> ...                               (0+, net ids strictly increasing)
//! request <seed> <dbif> <eta> : <x> <y> <l> : <x> <y> <l> ... : <w> ...
//! ```
//!
//! A `cdst/2` document may additionally end with a `state` section — a
//! mid-run checkpoint of the rip-up loop (see [`StateSection`]) that
//! `cds-cli route --resume` restores bit-identically:
//!
//! ```text
//! state iter <completed_iterations>                     (first state record)
//! state stats : <rerouted> ...                          (one count per iteration)
//! state counters <dirty x6> <recounts> <retimed> <kernel x5>
//! state usage <offset> : <u> ...                        (chunks of 16, offsets must chain)
//! state hist <offset> : <h> ...
//! state prices <offset> : <p> ...
//! state net <id> <routed> <drift> : <w> ... : <b>|- : <w_ref> ... : <b_ref>|-
//! state tree <id> <wl> <vias> : <kind vertex parent plen> ... : <edge> ... : <delay> ...
//! ```
//!
//! `state net` records must cover every net in order; `state tree`
//! records cover exactly the routed nets, strictly increasing. A
//! truncated or tampered state section is rejected with the offending
//! line number (chunk offsets must chain; the end-of-document check
//! requires full ledgers and net coverage).
//!
//! `ecap` records override the capacity of single edges of the graph
//! the grid spec builds (macro depletion, harvested congestion maps);
//! edge ids refer to the deterministic build order of
//! [`GridSpec::build`]. `config` records are opaque `key value` pairs
//! interpreted by `cds_router::RouterConfig::set_knob`. The delay model
//! is rebuilt from `tech` via
//! [`Technology::five_nm_like`](cds_delay::Technology::five_nm_like)
//! calibrated at the grid's `gcell_um`, which reproduces the generator's
//! model exactly.
//!
//! # Totality and round-trip contract
//!
//! [`chip_doc_to_string`] validates before emitting; every string it
//! returns is accepted by [`parse_chip_doc`], and
//! `parse_chip_doc(chip_doc_to_string(d)?) == d` with every float
//! bit-identical (enforced by proptest in `tests/chipdoc.rs`). The one
//! excluded value is NaN, which cannot round-trip bit-exactly through
//! any decimal text; the writer rejects it with a typed error. The
//! parser is streaming — it reads from any [`BufRead`] one line at a
//! time and never materializes more than one record — and every parse
//! error carries the 1-based line number it occurred on.
//!
//! # Examples
//!
//! ```
//! use cds_instgen::io::doc::{chip_doc_to_string, parse_chip_doc, ChipDoc};
//! use cds_instgen::ChipSpec;
//!
//! let chip = ChipSpec::small_test(1).generate();
//! let doc = ChipDoc::from_chip(&chip).unwrap();
//! let text = chip_doc_to_string(&doc).unwrap();
//! let parsed = parse_chip_doc(&text).unwrap();
//! assert_eq!(parsed, doc);
//! let rebuilt = parsed.build_chip();
//! assert_eq!(rebuilt.nets, chip.nets);
//! ```

use super::{parse_chain_record, parse_net_record, ParseWorkloadError};
use crate::{Chain, Chip, Net};
use cds_delay::Technology;
use cds_geom::Point;
use cds_graph::{Direction, EdgeId, GridGraph, GridSpec, LayerSpec, WireTypeSpec};
use std::fmt::Write as _;
use std::io::BufRead;

/// The version header every stateless chip document starts with.
pub const FORMAT_VERSION: &str = "cdst/1";

/// The version header of documents carrying a `state` section (mid-run
/// checkpoints). `cdst/2` is a strict superset of `cdst/1`: every
/// `cdst/1` document parses unchanged under either header, and the
/// `state` records described below are the only addition.
pub const FORMAT_VERSION_STATE: &str = "cdst/2";

/// Per-net scheduler and Lagrangean state at a checkpoint, one record
/// per net in net order. Arities are validated against the net's sink
/// count on both read and write.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateNet {
    /// Whether the dirty tracker has seen this net routed (always true
    /// after iteration 0 completes, but serialized for totality).
    pub routed: bool,
    /// Accumulated window price drift since the net last routed.
    pub drift: f64,
    /// Current per-sink delay weights.
    pub weights: Vec<f64>,
    /// Current per-sink delay budgets (`None` before the first STA).
    pub budgets: Option<Vec<f64>>,
    /// Weights snapshot from the net's last actual route (the dirty
    /// tracker's reference): one per sink on a routed net, none on a
    /// net never routed.
    pub weight_ref: Vec<f64>,
    /// Budgets snapshot from the net's last actual route.
    pub budget_ref: Option<Vec<f64>>,
}

/// One routed tree at a checkpoint: node structure (attachment order),
/// per-node path edges, per-sink delays, and the summary scalars.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateTree {
    /// Node kinds in attachment order: `-1` root, `-2` Steiner,
    /// `>= 0` the sink index. Node 0 is always the root.
    pub kinds: Vec<i64>,
    /// Grid vertex of each node.
    pub vertices: Vec<u32>,
    /// Parent node of each node (attachment order guarantees
    /// `parent < node`); entry 0 is unused and serialized as 0.
    pub parents: Vec<u32>,
    /// Number of path edges from each node to its parent (0 for the
    /// root).
    pub path_len: Vec<u32>,
    /// Concatenated parent-path edge ids, `path_len[v]` per node.
    pub path_edges: Vec<u32>,
    /// Per-sink routed delays (arity = the net's sink count).
    pub sink_delays: Vec<f64>,
    /// Routed wirelength in gcells.
    pub wirelength_gcells: f64,
    /// Via count.
    pub vias: u64,
}

/// Deterministic work counters of the completed iterations, serialized
/// so a resumed run's cumulative statistics continue seamlessly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateStats {
    /// Nets rerouted per completed iteration (length = the checkpoint's
    /// iteration counter).
    pub rerouted_per_iter: Vec<usize>,
    /// Dirty-cause tallies: fresh, overflow, timing, price, weight,
    /// budget.
    pub dirty: [usize; 6],
    /// Exact usage-ledger recounts performed.
    pub usage_recounts: usize,
    /// STA nodes re-timed so far.
    pub sta_nodes_retimed: usize,
    /// Kernel op-counters: settled, pushed, popped, decreased,
    /// bucket scans.
    pub kernel: [u64; 5],
}

/// The `cdst/2` `state` section: everything the rip-up loop needs to
/// resume after `iteration` completed iterations and reproduce the
/// uninterrupted run's checksum bit-for-bit. Ledger lengths are
/// validated against the document's grid, per-net arities against its
/// nets — on both read and write, so checkpoints stay round-trip-total.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateSection {
    /// Completed rip-up iterations (≥ 1; a checkpoint is only written
    /// after an iteration completes).
    pub iteration: usize,
    /// Per-edge usage ledger (length = the grid's edge count).
    pub usage: Vec<f64>,
    /// Exponentially blended usage history the price schedule reads.
    pub usage_hist: Vec<f64>,
    /// Prices of the last completed iteration — the dirty tracker's
    /// drift reference (length = the grid's edge count).
    pub prices: Vec<f64>,
    /// Per-net scheduler/weight state, exactly one per net, in order.
    pub nets: Vec<StateNet>,
    /// Routed trees `(net id, tree)`, strictly increasing by net id;
    /// exactly the nets with `routed` set carry a tree.
    pub trees: Vec<(usize, StateTree)>,
    /// Work counters of the completed iterations.
    pub stats: StateStats,
}

/// One archived solver-level request: a raw cost-distance instance on
/// the document's grid (root, sinks and their layers, delay weights,
/// bifurcation penalty, seed). Used to archive request streams that are
/// not chip workloads — e.g. the pinned 120-request determinism stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// RNG seed of the solve.
    pub seed: u64,
    /// Bifurcation penalty `d_bif` (ps); 0 disables penalties.
    pub dbif: f64,
    /// Shielding limit η in `[0, 1/2]`.
    pub eta: f64,
    /// Root `(x, y, layer)`.
    pub root: (u32, u32, u8),
    /// Sinks `(x, y, layer)`, at least one.
    pub sinks: Vec<(u32, u32, u8)>,
    /// Delay weight per sink (same arity as `sinks`).
    pub weights: Vec<f64>,
}

/// An in-memory chip document: the parsed form of a `cdst/1` file and
/// the value the writer serializes. See the module docs for the
/// grammar; [`build_chip`](ChipDoc::build_chip) turns it into a
/// routable [`Chip`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChipDoc {
    /// Chip name (one whitespace-free token).
    pub name: String,
    /// Metal layer count the delay model is calibrated for (≥ 2).
    pub tech_layers: u8,
    /// Fixed cell delay between chain stages (ps).
    pub cell_delay_ps: f64,
    /// Router configuration overrides, in document order (opaque
    /// `key value` pairs for `RouterConfig::set_knob`).
    pub config: Vec<(String, String)>,
    /// The grid description.
    pub grid: GridSpec,
    /// Per-edge capacity overrides `(edge id, capacity)` on the graph
    /// built from `grid`, strictly increasing by edge id.
    pub ecap: Vec<(EdgeId, f64)>,
    /// The nets.
    pub nets: Vec<Net>,
    /// The timing chains.
    pub chains: Vec<Chain>,
    /// Per-net delay weights `(net, weight per sink)`, strictly
    /// increasing by net id (the harvest archive).
    pub weights: Vec<(usize, Vec<f64>)>,
    /// Per-net delay budgets `(net, budget per sink)`, strictly
    /// increasing by net id.
    pub budgets: Vec<(usize, Vec<f64>)>,
    /// Archived solver-level requests.
    pub requests: Vec<RequestRecord>,
    /// Mid-run checkpoint state. `Some` makes this a `cdst/2` document
    /// (the writer switches headers); `cds-cli route --resume` restores
    /// it.
    pub state: Option<StateSection>,
}

/// Error from serializing a value the format cannot represent (NaN
/// floats, multi-token names, pins outside the grid, a grid whose
/// non-capacity edge attributes differ from its spec, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocWriteError {
    /// What cannot be represented, and where.
    pub message: String,
}

impl std::fmt::Display for DocWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot serialize chip document: {}", self.message)
    }
}

impl std::error::Error for DocWriteError {}

fn werr(message: impl Into<String>) -> DocWriteError {
    DocWriteError { message: message.into() }
}

fn perr(line: usize, message: impl Into<String>) -> ParseWorkloadError {
    ParseWorkloadError { line, message: message.into() }
}

/// Number of edges [`GridSpec::build`] creates, without building: per
/// layer, one wire edge per wire type across every gcell boundary in
/// the preferred direction, plus one via per gcell up to the next
/// layer. Lets the streaming parser range-check `ecap` records.
pub fn spec_num_edges(spec: &GridSpec) -> usize {
    let (nx, ny) = (spec.nx as usize, spec.ny as usize);
    let mut edges = 0usize;
    for (l, layer) in spec.layers.iter().enumerate() {
        let boundaries = match layer.dir {
            Direction::Horizontal => (nx - 1) * ny,
            Direction::Vertical => nx * (ny - 1),
        };
        edges += boundaries * layer.wire_types.len();
        if l + 1 < spec.layers.len() {
            edges += nx * ny;
        }
    }
    edges
}

impl ChipDoc {
    /// Captures a [`Chip`] as a document with empty workload extras
    /// (no config overrides, weights, budgets, or requests).
    ///
    /// # Errors
    ///
    /// Returns [`DocWriteError`] when the chip is not representable:
    /// its delay model is not `five_nm_like(tech).calibrate(gcell_um)`,
    /// or its graph differs from the spec's build in anything other
    /// than edge capacities.
    pub fn from_chip(chip: &Chip) -> Result<Self, DocWriteError> {
        let spec = chip.grid.spec().clone();
        let tech_layers =
            u8::try_from(chip.delay_model.num_layers()).map_err(|_| werr("too many layers"))?;
        if tech_layers < 2 {
            return Err(werr("delay model needs at least 2 layers"));
        }
        let rebuilt = Technology::five_nm_like(tech_layers).calibrate(spec.gcell_um);
        if rebuilt != chip.delay_model {
            return Err(werr(
                "delay model is not reproducible from `tech` + gcell pitch; \
                 cdst/1 stores the model by construction, not by value",
            ));
        }
        // diff the actual graph against the spec's pristine build: only
        // capacity may differ (macro depletion), and those diffs become
        // ecap records
        let pristine = spec.clone().build();
        let (pg, cg) = (pristine.graph(), chip.grid.graph());
        if pg.num_edges() != cg.num_edges() {
            return Err(werr("graph edge count differs from the spec's build"));
        }
        let mut ecap = Vec::new();
        for e in 0..pg.num_edges() as EdgeId {
            let (p, c) = (pg.edge(e), cg.edge(e));
            if pg.endpoints(e) != cg.endpoints(e) {
                return Err(werr(format!("edge {e}: endpoints differ from the spec's build")));
            }
            let same_static = p.base_cost.to_bits() == c.base_cost.to_bits()
                && p.delay.to_bits() == c.delay.to_bits()
                && p.length.to_bits() == c.length.to_bits()
                && p.kind == c.kind
                && p.layer == c.layer
                && p.wire_type == c.wire_type;
            if !same_static {
                return Err(werr(format!(
                    "edge {e}: non-capacity attributes differ from the spec's build \
                     (only capacity overrides are representable)"
                )));
            }
            if p.capacity.to_bits() != c.capacity.to_bits() {
                ecap.push((e, c.capacity));
            }
        }
        let doc = ChipDoc {
            name: chip.name.clone(),
            tech_layers,
            cell_delay_ps: chip.cell_delay_ps,
            config: Vec::new(),
            grid: spec,
            ecap,
            nets: chip.nets.clone(),
            chains: chip.chains.clone(),
            weights: Vec::new(),
            budgets: Vec::new(),
            requests: Vec::new(),
            state: None,
        };
        validate_doc(&doc).map_err(werr)?;
        Ok(doc)
    }

    /// Builds the routable chip: pristine grid from the spec, `ecap`
    /// overrides applied, delay model calibrated from `tech`.
    ///
    /// # Panics
    ///
    /// Panics only on documents that bypassed parse/write validation
    /// (e.g. a hand-built `ChipDoc` with out-of-range `ecap` ids).
    pub fn build_chip(&self) -> Chip {
        let mut grid = self.grid.clone().build();
        let num_edges = grid.graph().num_edges();
        for &(e, cap) in &self.ecap {
            assert!((e as usize) < num_edges, "ecap edge id out of range");
            grid.set_edge_capacity(e, cap);
        }
        let delay_model = Technology::five_nm_like(self.tech_layers).calibrate(self.grid.gcell_um);
        Chip {
            name: self.name.clone(),
            grid,
            delay_model,
            nets: self.nets.clone(),
            chains: self.chains.clone(),
            cell_delay_ps: self.cell_delay_ps,
        }
    }
}

/// Whether `v` is one whitespace-free printable token the line format
/// can carry losslessly.
fn is_token(v: &str) -> bool {
    !v.is_empty() && !v.contains(char::is_whitespace) && !v.contains('#')
}

fn finite_or_err(v: f64, what: &str) -> Result<(), String> {
    if v.is_nan() {
        return Err(format!("{what} is NaN, which cannot round-trip through text"));
    }
    Ok(())
}

/// Full write-time validation: everything the parser would reject (or
/// that would not round-trip bit-identically) is refused here, which is
/// what makes the writer total.
fn validate_doc(doc: &ChipDoc) -> Result<(), String> {
    if !is_token(&doc.name) {
        return Err(format!(
            "chip name {:?} must be one non-empty whitespace-free token without '#'",
            doc.name
        ));
    }
    if doc.tech_layers < 2 {
        return Err("tech needs at least 2 layers".into());
    }
    finite_or_err(doc.cell_delay_ps, "celldelay")?;
    for (k, v) in &doc.config {
        if !is_token(k) || !is_token(v) {
            return Err(format!("config pair {k:?} {v:?} must be two whitespace-free tokens"));
        }
    }
    let spec = &doc.grid;
    if spec.nx == 0 || spec.ny == 0 {
        return Err("grid must have at least one gcell".into());
    }
    if spec.layers.is_empty() {
        return Err("grid must have at least one layer".into());
    }
    if spec.gcell_um.is_nan() || spec.gcell_um <= 0.0 {
        return Err("gcell pitch must be positive".into());
    }
    for v in [spec.via_cost, spec.via_delay, spec.via_capacity] {
        finite_or_err(v, "grid via parameter")?;
    }
    for (l, layer) in spec.layers.iter().enumerate() {
        if layer.wire_types.is_empty() {
            return Err(format!("layer {l} has no wire types"));
        }
        for wt in &layer.wire_types {
            for v in [wt.cost_per_gcell, wt.delay_per_gcell, wt.capacity] {
                finite_or_err(v, "wire type parameter")?;
            }
        }
    }
    let num_edges = spec_num_edges(spec);
    let mut prev_edge = None;
    for &(e, cap) in &doc.ecap {
        if (e as usize) >= num_edges {
            return Err(format!("ecap edge {e} out of range (grid has {num_edges} edges)"));
        }
        if prev_edge.is_some_and(|p| e <= p) {
            return Err("ecap edge ids must be strictly increasing".into());
        }
        prev_edge = Some(e);
        finite_or_err(cap, "ecap capacity")?;
    }
    let in_grid =
        |p: Point| p.x >= 0 && p.y >= 0 && (p.x as u32) < spec.nx && (p.y as u32) < spec.ny;
    for (i, net) in doc.nets.iter().enumerate() {
        for &p in std::iter::once(&net.root).chain(&net.sinks) {
            if !in_grid(p) {
                return Err(format!("net {i} pin ({}, {}) outside the grid", p.x, p.y));
            }
        }
    }
    for (i, chain) in doc.chains.iter().enumerate() {
        finite_or_err(chain.rat_ps, "chain RAT")?;
        if chain.links.is_empty() {
            return Err(format!("chain {i} is empty"));
        }
        // INVARIANT: the empty-links case returned an error just above.
        if chain.links.last().expect("nonempty").cont_sink.is_some() {
            return Err(format!("chain {i}: last link must not continue"));
        }
        for link in &chain.links {
            if link.net >= doc.nets.len() {
                return Err(format!("chain {i} references unknown net {}", link.net));
            }
            if let Some(s) = link.cont_sink {
                if s >= doc.nets[link.net].sinks.len() {
                    return Err(format!("chain {i}: net {} has no sink {s}", link.net));
                }
            }
        }
    }
    for (label, list) in [("weights", &doc.weights), ("budgets", &doc.budgets)] {
        let mut prev = None;
        for (net, values) in list {
            if *net >= doc.nets.len() {
                return Err(format!("{label} for unknown net {net}"));
            }
            if prev.is_some_and(|p| *net <= p) {
                return Err(format!("{label} net ids must be strictly increasing"));
            }
            prev = Some(*net);
            if values.len() != doc.nets[*net].sinks.len() {
                return Err(format!(
                    "{label} for net {net}: {} values for {} sinks",
                    values.len(),
                    doc.nets[*net].sinks.len()
                ));
            }
            for &v in values {
                finite_or_err(v, label)?;
            }
        }
    }
    for (i, req) in doc.requests.iter().enumerate() {
        if req.dbif.is_nan() || req.dbif < 0.0 {
            return Err(format!("request {i}: dbif must be non-negative"));
        }
        if !(0.0..=0.5).contains(&req.eta) {
            return Err(format!("request {i}: eta must lie in [0, 1/2]"));
        }
        if req.sinks.is_empty() {
            return Err(format!("request {i} has no sinks"));
        }
        if req.weights.len() != req.sinks.len() {
            return Err(format!("request {i}: weight count differs from sink count"));
        }
        for &w in &req.weights {
            finite_or_err(w, "request weight")?;
        }
        let nl = spec.layers.len();
        for &(x, y, l) in std::iter::once(&req.root).chain(&req.sinks) {
            if x >= spec.nx || y >= spec.ny || (l as usize) >= nl {
                return Err(format!("request {i}: pin ({x}, {y}, {l}) outside the grid"));
            }
        }
    }
    if let Some(state) = &doc.state {
        let num_vertices = spec.nx as usize * spec.ny as usize * spec.layers.len();
        validate_state(state, num_edges, num_vertices, &doc.nets)?;
    }
    Ok(())
}

/// Structural validation of a checkpoint section against its document:
/// ledger lengths match the grid, per-net arities match the nets, trees
/// are well-formed and cover exactly the routed nets. Shared by the
/// writer (totality) and the parser's end-of-document check, so a
/// checkpoint is accepted if and only if it can be re-serialized.
fn validate_state(
    state: &StateSection,
    num_edges: usize,
    num_vertices: usize,
    nets: &[Net],
) -> Result<(), String> {
    if state.iteration == 0 {
        return Err("state iteration counter must be at least 1".into());
    }
    if state.stats.rerouted_per_iter.len() != state.iteration {
        return Err(format!(
            "state stats record {} reroute counts for {} iterations",
            state.stats.rerouted_per_iter.len(),
            state.iteration
        ));
    }
    for (label, ledger) in
        [("usage", &state.usage), ("hist", &state.usage_hist), ("prices", &state.prices)]
    {
        if ledger.len() != num_edges {
            return Err(format!(
                "state {label} has {} values for a grid with {num_edges} edges",
                ledger.len()
            ));
        }
        for &v in ledger.iter() {
            finite_or_err(v, "state ledger value")?;
        }
    }
    if state.nets.len() != nets.len() {
        return Err(format!(
            "state has {} net records for {} nets (one per net required)",
            state.nets.len(),
            nets.len()
        ));
    }
    for (i, n) in state.nets.iter().enumerate() {
        let sinks = nets[i].sinks.len();
        finite_or_err(n.drift, "state net drift")?;
        if n.weights.len() != sinks {
            return Err(format!("state net {i}: {} weights for {sinks} sinks", n.weights.len()));
        }
        check_weight_ref(i, n.routed, sinks, n.weight_ref.len())?;
        for (label, budgets) in [("budgets", &n.budgets), ("reference budgets", &n.budget_ref)] {
            if let Some(b) = budgets {
                if b.len() != sinks {
                    return Err(format!("state net {i}: {} {label} for {sinks} sinks", b.len()));
                }
            }
        }
        for v in n
            .weights
            .iter()
            .chain(n.weight_ref.iter())
            .chain(n.budgets.iter().flatten())
            .chain(n.budget_ref.iter().flatten())
        {
            finite_or_err(*v, "state net value")?;
        }
    }
    let mut prev_tree = None;
    for &(id, ref tree) in &state.trees {
        if prev_tree.is_some_and(|p| id <= p) {
            return Err("state tree net ids must be strictly increasing".into());
        }
        prev_tree = Some(id);
        if id >= nets.len() {
            return Err(format!("state tree for unknown net {id}"));
        }
        if !state.nets[id].routed {
            return Err(format!("state tree for net {id}, which is not marked routed"));
        }
        validate_state_tree(tree, num_vertices, num_edges, nets[id].sinks.len())
            .map_err(|m| format!("state tree for net {id}: {m}"))?;
    }
    let routed = state.nets.iter().filter(|n| n.routed).count();
    if state.trees.len() != routed {
        return Err(format!(
            "state has {} trees for {routed} routed nets (every routed net needs its tree)",
            state.trees.len()
        ));
    }
    Ok(())
}

/// A routed net carries one reference weight per sink (the weights its
/// kept route was routed with); a net never routed carries none.
fn check_weight_ref(id: usize, routed: bool, sinks: usize, got: usize) -> Result<(), String> {
    let want = if routed { sinks } else { 0 };
    if got == want {
        return Ok(());
    }
    let net = if routed { "routed" } else { "unrouted" };
    Err(format!("state net {id}: {got} reference weights on a {net} net with {sinks} sinks"))
}

/// Well-formedness of one checkpoint tree: attachment order, in-range
/// vertices/edges/sink indices, path-edge framing, sink-delay arity.
fn validate_state_tree(
    t: &StateTree,
    num_vertices: usize,
    num_edges: usize,
    num_sinks: usize,
) -> Result<(), String> {
    let n = t.kinds.len();
    if n == 0 {
        return Err("tree has no nodes".into());
    }
    if t.vertices.len() != n || t.parents.len() != n || t.path_len.len() != n {
        return Err("node arrays disagree on the node count".into());
    }
    for (v, &k) in t.kinds.iter().enumerate() {
        if v == 0 {
            if k != -1 {
                return Err("node 0 must be the root (kind -1)".into());
            }
            if t.parents[0] != 0 || t.path_len[0] != 0 {
                return Err("the root has no parent or parent path".into());
            }
        } else {
            if k == -1 {
                return Err(format!("node {v} repeats the root kind"));
            }
            if k != -2 && !(0..num_sinks as i64).contains(&k) {
                return Err(format!("node {v} kind {k} is not a Steiner node or a sink index"));
            }
            if t.parents[v] as usize >= v {
                return Err(format!(
                    "node {v} parent {} breaks attachment order (parent must precede node)",
                    t.parents[v]
                ));
            }
        }
        if t.vertices[v] as usize >= num_vertices {
            return Err(format!("node {v} vertex {} outside the grid", t.vertices[v]));
        }
    }
    let total: u64 = t.path_len.iter().map(|&l| u64::from(l)).sum();
    if total != t.path_edges.len() as u64 {
        return Err(format!(
            "{} path edges for a total path length of {total}",
            t.path_edges.len()
        ));
    }
    for &e in &t.path_edges {
        if e as usize >= num_edges {
            return Err(format!("path edge {e} out of range (grid has {num_edges} edges)"));
        }
    }
    if t.sink_delays.len() != num_sinks {
        return Err(format!("{} sink delays for {num_sinks} sinks", t.sink_delays.len()));
    }
    for &d in &t.sink_delays {
        finite_or_err(d, "sink delay")?;
    }
    finite_or_err(t.wirelength_gcells, "tree wirelength")?;
    Ok(())
}

/// Serializes a chip document. The output is canonical: parsing it
/// recovers the input bit-identically, and re-serializing the parse
/// reproduces the string byte-for-byte.
///
/// # Errors
///
/// Returns [`DocWriteError`] for documents the format cannot represent
/// (see the totality rules in the module docs).
pub fn chip_doc_to_string(doc: &ChipDoc) -> Result<String, DocWriteError> {
    validate_doc(doc).map_err(werr)?;
    let mut out = String::new();
    let header = if doc.state.is_some() { FORMAT_VERSION_STATE } else { FORMAT_VERSION };
    let _ = writeln!(out, "{header}");
    let _ = writeln!(
        out,
        "# chip document: {} nets, {} chains, {} capacity overrides, {} requests",
        doc.nets.len(),
        doc.chains.len(),
        doc.ecap.len(),
        doc.requests.len()
    );
    let _ = writeln!(out, "chip {}", doc.name);
    let _ = writeln!(out, "tech {}", doc.tech_layers);
    let _ = writeln!(out, "celldelay {:?}", doc.cell_delay_ps);
    for (k, v) in &doc.config {
        let _ = writeln!(out, "config {k} {v}");
    }
    let spec = &doc.grid;
    let _ = writeln!(
        out,
        "grid {} {} {} {:?} {:?} {:?} {:?}",
        spec.nx,
        spec.ny,
        spec.layers.len(),
        spec.via_cost,
        spec.via_delay,
        spec.via_capacity,
        spec.gcell_um
    );
    for layer in &spec.layers {
        let dir = match layer.dir {
            Direction::Horizontal => 'H',
            Direction::Vertical => 'V',
        };
        let _ = write!(out, "layer {dir} :");
        for wt in &layer.wire_types {
            let _ =
                write!(out, " {:?} {:?} {:?}", wt.cost_per_gcell, wt.delay_per_gcell, wt.capacity);
        }
        out.push('\n');
    }
    for &(e, cap) in &doc.ecap {
        let _ = writeln!(out, "ecap {e} {cap:?}");
    }
    out.push_str(&super::nets_to_string(&doc.nets));
    out.push_str(&super::chains_to_string(&doc.chains));
    for (label, list) in [("weights", &doc.weights), ("budgets", &doc.budgets)] {
        for (net, values) in list {
            let _ = write!(out, "{label} {net} :");
            for v in values {
                let _ = write!(out, " {v:?}");
            }
            out.push('\n');
        }
    }
    for req in &doc.requests {
        let _ = write!(
            out,
            "request {} {:?} {:?} : {} {} {} :",
            req.seed, req.dbif, req.eta, req.root.0, req.root.1, req.root.2
        );
        for &(x, y, l) in &req.sinks {
            let _ = write!(out, " {x} {y} {l}");
        }
        let _ = write!(out, " :");
        for w in &req.weights {
            let _ = write!(out, " {w:?}");
        }
        out.push('\n');
    }
    if let Some(state) = &doc.state {
        write_state_section(&mut out, state);
    }
    Ok(out)
}

/// Emits the canonical `state` section (assumes [`validate_state`]
/// passed). Ledgers are chunked 16 values per line so checkpoint files
/// stay diffable and a truncated write is caught by the chunk-offset
/// check rather than producing a silently short ledger.
fn write_state_section(out: &mut String, state: &StateSection) {
    let _ = writeln!(out, "state iter {}", state.iteration);
    let s = &state.stats;
    let _ = write!(out, "state stats :");
    for r in &s.rerouted_per_iter {
        let _ = write!(out, " {r}");
    }
    out.push('\n');
    let _ = write!(out, "state counters");
    for v in s.dirty {
        let _ = write!(out, " {v}");
    }
    let _ = write!(out, " {} {}", s.usage_recounts, s.sta_nodes_retimed);
    for v in s.kernel {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
    for (label, ledger) in
        [("usage", &state.usage), ("hist", &state.usage_hist), ("prices", &state.prices)]
    {
        for (ci, chunk) in ledger.chunks(16).enumerate() {
            let _ = write!(out, "state {label} {} :", ci * 16);
            for v in chunk {
                let _ = write!(out, " {v:?}");
            }
            out.push('\n');
        }
    }
    let write_opt = |out: &mut String, values: &Option<Vec<f64>>| match values {
        Some(vs) => {
            for v in vs {
                let _ = write!(out, " {v:?}");
            }
        }
        None => out.push_str(" -"),
    };
    for (i, n) in state.nets.iter().enumerate() {
        let _ = write!(out, "state net {i} {} {:?} :", u8::from(n.routed), n.drift);
        for v in &n.weights {
            let _ = write!(out, " {v:?}");
        }
        out.push_str(" :");
        write_opt(out, &n.budgets);
        out.push_str(" :");
        for v in &n.weight_ref {
            let _ = write!(out, " {v:?}");
        }
        out.push_str(" :");
        write_opt(out, &n.budget_ref);
        out.push('\n');
    }
    for &(id, ref t) in &state.trees {
        let _ = write!(out, "state tree {id} {:?} {} :", t.wirelength_gcells, t.vias);
        for v in 0..t.kinds.len() {
            let _ =
                write!(out, " {} {} {} {}", t.kinds[v], t.vertices[v], t.parents[v], t.path_len[v]);
        }
        out.push_str(" :");
        for e in &t.path_edges {
            let _ = write!(out, " {e}");
        }
        out.push_str(" :");
        for d in &t.sink_delays {
            let _ = write!(out, " {d:?}");
        }
        out.push('\n');
    }
}

/// Section ranks of the record kinds; records must appear in
/// non-decreasing rank order.
fn record_rank(kind: &str) -> Option<u8> {
    Some(match kind {
        "chip" | "tech" | "celldelay" | "config" => 1,
        "grid" => 2,
        "layer" => 3,
        "ecap" => 4,
        "net" => 5,
        "chain" => 6,
        "weights" | "budgets" => 7,
        "request" => 8,
        "state" => 9,
        _ => return None,
    })
}

/// Where parsed `ecap` overrides go. The owned parse collects them into
/// the [`ChipDoc`]; the streaming parse builds the [`GridGraph`] as soon
/// as the layer records complete the spec and applies each override in
/// place, so the overrides are never materialized as a list.
enum EcapSink {
    Collect(Vec<(EdgeId, f64)>),
    Apply { grid: Option<GridGraph>, applied: usize },
}

/// Streaming parser state; consumes one trimmed record line at a time.
struct DocParser {
    rank: u8,
    header_seen: bool,
    /// Format version from the header (1 or 2); `state` records need 2.
    version: u8,
    name: Option<String>,
    tech: Option<u8>,
    cell_delay: Option<f64>,
    config: Vec<(String, String)>,
    /// `grid` line fields until the layer records complete the spec.
    grid_head: Option<(u32, u32, usize, f64, f64, f64, f64)>,
    layers: Vec<LayerSpec>,
    spec: Option<GridSpec>,
    num_edges: usize,
    num_vertices: usize,
    sink: EcapSink,
    /// Last `ecap` edge id, for the strict-increase check in both sinks.
    last_ecap: Option<EdgeId>,
    nets: Vec<Net>,
    chains: Vec<Chain>,
    weights: Vec<(usize, Vec<f64>)>,
    budgets: Vec<(usize, Vec<f64>)>,
    requests: Vec<RequestRecord>,
    /// Checkpoint section under construction; `Some` once `state iter`
    /// was seen.
    state: Option<StateSection>,
    state_stats_seen: bool,
    state_counters_seen: bool,
}

/// Parses the next whitespace token of `it` as `T`.
fn tok<T: std::str::FromStr>(
    it: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<T, ParseWorkloadError> {
    let raw = it.next().ok_or_else(|| perr(line, format!("missing {what}")))?;
    raw.parse().map_err(|_| perr(line, format!("bad {what} {raw}")))
}

/// Asserts `it` is exhausted.
fn no_more(mut it: std::str::SplitWhitespace<'_>, line: usize) -> Result<(), ParseWorkloadError> {
    match it.next() {
        Some(extra) => Err(perr(line, format!("unexpected trailing token {extra}"))),
        None => Ok(()),
    }
}

/// Parses one float token, rejecting NaN — the parser enforces the
/// same exclusion as the writer, so everything it accepts can be
/// re-serialized (and NaN never reaches routing arithmetic).
fn ftok(
    it: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<f64, ParseWorkloadError> {
    let v: f64 = tok(it, line, what)?;
    nan_check(v, line, what)?;
    Ok(v)
}

fn nan_check(v: f64, line: usize, what: &str) -> Result<(), ParseWorkloadError> {
    if v.is_nan() {
        return Err(perr(line, format!("{what} is NaN, which cdst/1 does not represent")));
    }
    Ok(())
}

impl DocParser {
    fn new(sink: EcapSink) -> Self {
        DocParser {
            rank: 0,
            header_seen: false,
            version: 0,
            name: None,
            tech: None,
            cell_delay: None,
            config: Vec::new(),
            grid_head: None,
            layers: Vec::new(),
            spec: None,
            num_edges: 0,
            num_vertices: 0,
            sink,
            last_ecap: None,
            nets: Vec::new(),
            chains: Vec::new(),
            weights: Vec::new(),
            budgets: Vec::new(),
            requests: Vec::new(),
            state: None,
            state_stats_seen: false,
            state_counters_seen: false,
        }
    }

    fn layers_missing(&self) -> usize {
        if self.spec.is_some() {
            return 0;
        }
        self.grid_head.map_or(0, |(_, _, nl, ..)| nl - self.layers.len())
    }

    fn record(&mut self, line: usize, text: &str) -> Result<(), ParseWorkloadError> {
        // INVARIANT: the parse loop skips blank lines before calling record, so a first token exists.
        let kind = text.split_whitespace().next().expect("caller skips blank lines");
        if !self.header_seen {
            if text == FORMAT_VERSION || text == FORMAT_VERSION_STATE {
                self.header_seen = true;
                self.version = if text == FORMAT_VERSION { 1 } else { 2 };
                self.rank = 1;
                return Ok(());
            }
            if kind.starts_with("cdst/") {
                return Err(perr(
                    line,
                    format!("unsupported version {kind} (want cdst/1 or cdst/2)"),
                ));
            }
            return Err(perr(line, "missing cdst/1 header before the first record"));
        }
        let rank =
            record_rank(kind).ok_or_else(|| perr(line, format!("unknown record: {kind}")))?;
        if rank < self.rank {
            return Err(perr(line, format!("{kind} record out of section order")));
        }
        if self.layers_missing() > 0 && kind != "layer" {
            return Err(perr(
                line,
                format!("expected {} more layer record(s) before {kind}", self.layers_missing()),
            ));
        }
        if rank >= 4 && self.spec.is_none() {
            return Err(perr(line, format!("missing grid record before {kind}")));
        }
        self.rank = rank;
        let rest = text[kind.len()..].trim_start();
        match kind {
            "chip" => self.chip(line, rest),
            "tech" => self.tech(line, rest),
            "celldelay" => self.celldelay(line, rest),
            "config" => self.config(line, rest),
            "grid" => self.grid(line, rest),
            "layer" => self.layer(line, rest),
            "ecap" => self.ecap(line, rest),
            "net" => self.net(line, rest),
            "chain" => self.chain(line, rest),
            "weights" | "budgets" => self.weights_budgets(line, rest, kind),
            "request" => self.request(line, rest),
            "state" => self.state_record(line, rest),
            // INVARIANT: record_rank returned a rank for this kind, and the match above lists every ranked kind.
            _ => unreachable!("record_rank screened the kind"),
        }
    }

    fn chip(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        if self.name.is_some() {
            return Err(perr(line, "duplicate chip record"));
        }
        let mut it = rest.split_whitespace();
        let name = it.next().ok_or_else(|| perr(line, "missing chip name"))?;
        no_more(it, line)?;
        self.name = Some(name.to_string());
        Ok(())
    }

    fn tech(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        if self.tech.is_some() {
            return Err(perr(line, "duplicate tech record"));
        }
        let mut it = rest.split_whitespace();
        let layers: u8 = tok(&mut it, line, "tech layer count")?;
        no_more(it, line)?;
        if layers < 2 {
            return Err(perr(line, "tech needs at least 2 layers"));
        }
        self.tech = Some(layers);
        Ok(())
    }

    fn celldelay(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        if self.cell_delay.is_some() {
            return Err(perr(line, "duplicate celldelay record"));
        }
        let mut it = rest.split_whitespace();
        let ps: f64 = ftok(&mut it, line, "cell delay")?;
        no_more(it, line)?;
        self.cell_delay = Some(ps);
        Ok(())
    }

    fn config(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        let mut it = rest.split_whitespace();
        let key = it.next().ok_or_else(|| perr(line, "missing config key"))?;
        let value = it.next().ok_or_else(|| perr(line, "missing config value"))?;
        no_more(it, line)?;
        self.config.push((key.to_string(), value.to_string()));
        Ok(())
    }

    fn grid(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        if self.grid_head.is_some() {
            return Err(perr(line, "duplicate grid record"));
        }
        let mut it = rest.split_whitespace();
        let nx: u32 = tok(&mut it, line, "grid nx")?;
        let ny: u32 = tok(&mut it, line, "grid ny")?;
        let nl: usize = tok(&mut it, line, "grid layer count")?;
        let via_cost: f64 = ftok(&mut it, line, "via cost")?;
        let via_delay: f64 = ftok(&mut it, line, "via delay")?;
        let via_capacity: f64 = ftok(&mut it, line, "via capacity")?;
        let gcell_um: f64 = ftok(&mut it, line, "gcell pitch")?;
        no_more(it, line)?;
        if nx == 0 || ny == 0 {
            return Err(perr(line, "grid must have at least one gcell"));
        }
        if nl == 0 {
            return Err(perr(line, "grid must have at least one layer"));
        }
        if gcell_um.is_nan() || gcell_um <= 0.0 {
            return Err(perr(line, "gcell pitch must be positive"));
        }
        self.grid_head = Some((nx, ny, nl, via_cost, via_delay, via_capacity, gcell_um));
        Ok(())
    }

    fn layer(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        if self.grid_head.is_none() || self.layers_missing() == 0 {
            return Err(perr(line, "unexpected layer record"));
        }
        let (head, tail) =
            rest.split_once(':').ok_or_else(|| perr(line, "missing ':' separator"))?;
        let dir = match head.trim() {
            "H" => Direction::Horizontal,
            "V" => Direction::Vertical,
            other => return Err(perr(line, format!("bad layer direction {other} (want H or V)"))),
        };
        let values: Vec<f64> = tail
            .split_whitespace()
            .map(|v| v.parse().map_err(|_| perr(line, format!("bad wire type value {v}"))))
            .collect::<Result<_, _>>()?;
        for &v in &values {
            nan_check(v, line, "wire type value")?;
        }
        if values.is_empty() || !values.len().is_multiple_of(3) {
            return Err(perr(
                line,
                "wire types must come as non-empty (cost delay capacity) triples",
            ));
        }
        let wire_types = values
            .chunks(3)
            .map(|c| WireTypeSpec { cost_per_gcell: c[0], delay_per_gcell: c[1], capacity: c[2] })
            .collect();
        self.layers.push(LayerSpec { dir, wire_types });
        if self.layers_missing() == 0 {
            let (nx, ny, _, via_cost, via_delay, via_capacity, gcell_um) =
                // INVARIANT: record_rank rejects a layer record before the grid record, so grid_head is set here.
                self.grid_head.expect("layer records require a grid");
            let spec = GridSpec {
                nx,
                ny,
                layers: std::mem::take(&mut self.layers),
                via_cost,
                via_delay,
                via_capacity,
                gcell_um,
            };
            self.num_edges = spec_num_edges(&spec);
            self.num_vertices = nx as usize * ny as usize * spec.layers.len();
            if let EcapSink::Apply { grid, .. } = &mut self.sink {
                // streaming mode: build the graph the moment the spec is
                // complete, so ecap overrides apply in place and nets
                // stream straight into their tables
                *grid = Some(spec.clone().build());
            }
            self.spec = Some(spec);
        }
        Ok(())
    }

    fn ecap(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        let mut it = rest.split_whitespace();
        let e: EdgeId = tok(&mut it, line, "edge id")?;
        let cap: f64 = ftok(&mut it, line, "capacity")?;
        no_more(it, line)?;
        if (e as usize) >= self.num_edges {
            return Err(perr(
                line,
                format!("ecap edge {e} out of range (grid has {} edges)", self.num_edges),
            ));
        }
        if self.last_ecap.is_some_and(|p| e <= p) {
            return Err(perr(line, "ecap edge ids must be strictly increasing"));
        }
        self.last_ecap = Some(e);
        match &mut self.sink {
            EcapSink::Collect(list) => list.push((e, cap)),
            EcapSink::Apply { grid, applied } => {
                // INVARIANT: rank order puts grid before ecap, and spec completion built the graph.
                grid.as_mut().expect("rank order puts grid before ecap").set_edge_capacity(e, cap);
                *applied += 1;
            }
        }
        Ok(())
    }

    fn net(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        let net = parse_net_record(rest, line)?;
        // INVARIANT: record_rank orders grid before nets, and the grid record built spec.
        let spec = self.spec.as_ref().expect("rank order puts grid before nets");
        for &p in std::iter::once(&net.root).chain(&net.sinks) {
            if p.x < 0 || p.y < 0 || (p.x as u32) >= spec.nx || (p.y as u32) >= spec.ny {
                return Err(perr(line, format!("pin ({}, {}) outside the grid", p.x, p.y)));
            }
        }
        self.nets.push(net);
        Ok(())
    }

    fn chain(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        let chain = parse_chain_record(rest, line)?;
        nan_check(chain.rat_ps, line, "chain RAT")?;
        for link in &chain.links {
            if link.net >= self.nets.len() {
                return Err(perr(line, format!("chain references unknown net {}", link.net)));
            }
            if let Some(s) = link.cont_sink {
                if s >= self.nets[link.net].sinks.len() {
                    return Err(perr(line, format!("net {} has no sink {s}", link.net)));
                }
            }
        }
        self.chains.push(chain);
        Ok(())
    }

    fn weights_budgets(
        &mut self,
        line: usize,
        rest: &str,
        kind: &str,
    ) -> Result<(), ParseWorkloadError> {
        let (head, tail) =
            rest.split_once(':').ok_or_else(|| perr(line, "missing ':' separator"))?;
        let net: usize =
            head.trim().parse().map_err(|_| perr(line, format!("bad net id {}", head.trim())))?;
        if net >= self.nets.len() {
            return Err(perr(line, format!("{kind} for unknown net {net}")));
        }
        let values: Vec<f64> = tail
            .split_whitespace()
            .map(|v| v.parse().map_err(|_| perr(line, format!("bad value {v}"))))
            .collect::<Result<_, _>>()?;
        for &v in &values {
            nan_check(v, line, kind)?;
        }
        if values.len() != self.nets[net].sinks.len() {
            return Err(perr(
                line,
                format!(
                    "{kind} for net {net}: {} values for {} sinks",
                    values.len(),
                    self.nets[net].sinks.len()
                ),
            ));
        }
        let list = if kind == "weights" { &mut self.weights } else { &mut self.budgets };
        if list.last().is_some_and(|&(p, _)| net <= p) {
            return Err(perr(line, format!("{kind} net ids must be strictly increasing")));
        }
        list.push((net, values));
        Ok(())
    }

    fn request(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        let mut sections = rest.split(':');
        // INVARIANT: split always yields at least one (possibly empty) part.
        let head = sections.next().expect("split yields at least one part");
        let root_part =
            sections.next().ok_or_else(|| perr(line, "missing root section after ':'"))?;
        let sinks_part =
            sections.next().ok_or_else(|| perr(line, "missing sinks section after ':'"))?;
        let weights_part =
            sections.next().ok_or_else(|| perr(line, "missing weights section after ':'"))?;
        if sections.next().is_some() {
            return Err(perr(line, "too many ':' sections in request record"));
        }
        let mut it = head.split_whitespace();
        let seed: u64 = tok(&mut it, line, "seed")?;
        let dbif: f64 = tok(&mut it, line, "dbif")?;
        let eta: f64 = tok(&mut it, line, "eta")?;
        no_more(it, line)?;
        if dbif.is_nan() || dbif < 0.0 {
            return Err(perr(line, "dbif must be non-negative"));
        }
        if !(0.0..=0.5).contains(&eta) {
            return Err(perr(line, "eta must lie in [0, 1/2]"));
        }
        // INVARIANT: record_rank orders grid before requests, and the grid record built spec.
        let spec = self.spec.as_ref().expect("rank order puts grid before requests");
        let nl = spec.layers.len();
        let pin = |x: u32, y: u32, l: u8| -> Result<(u32, u32, u8), ParseWorkloadError> {
            if x >= spec.nx || y >= spec.ny || (l as usize) >= nl {
                return Err(perr(line, format!("pin ({x}, {y}, {l}) outside the grid")));
            }
            Ok((x, y, l))
        };
        let mut rt = root_part.split_whitespace();
        let root = pin(
            tok(&mut rt, line, "root x")?,
            tok(&mut rt, line, "root y")?,
            tok(&mut rt, line, "root layer")?,
        )?;
        no_more(rt, line)?;
        let sink_vals: Vec<&str> = sinks_part.split_whitespace().collect();
        if sink_vals.is_empty() || !sink_vals.len().is_multiple_of(3) {
            return Err(perr(line, "sinks must come as non-empty (x y layer) triples"));
        }
        let mut sinks = Vec::with_capacity(sink_vals.len() / 3);
        for c in sink_vals.chunks(3) {
            let parse = |v: &str, what: &str| -> Result<u64, ParseWorkloadError> {
                v.parse().map_err(|_| perr(line, format!("bad sink {what} {v}")))
            };
            let x = parse(c[0], "x")?;
            let y = parse(c[1], "y")?;
            let l = parse(c[2], "layer")?;
            let (x, y, l) = (
                u32::try_from(x).map_err(|_| perr(line, format!("bad sink x {x}")))?,
                u32::try_from(y).map_err(|_| perr(line, format!("bad sink y {y}")))?,
                u8::try_from(l).map_err(|_| perr(line, format!("bad sink layer {l}")))?,
            );
            sinks.push(pin(x, y, l)?);
        }
        let weights: Vec<f64> = weights_part
            .split_whitespace()
            .map(|v| v.parse().map_err(|_| perr(line, format!("bad weight {v}"))))
            .collect::<Result<_, _>>()?;
        for &w in &weights {
            nan_check(w, line, "request weight")?;
        }
        if weights.len() != sinks.len() {
            return Err(perr(line, "weight count differs from sink count"));
        }
        self.requests.push(RequestRecord { seed, dbif, eta, root, sinks, weights });
        Ok(())
    }

    /// Dispatches a `state <kind> ...` record (cdst/2 checkpoints).
    fn state_record(&mut self, line: usize, rest: &str) -> Result<(), ParseWorkloadError> {
        if self.version < 2 {
            return Err(perr(line, "state records require a cdst/2 header"));
        }
        let sub = rest
            .split_whitespace()
            .next()
            .ok_or_else(|| perr(line, "missing state record kind"))?;
        let tail = rest[rest.find(sub).unwrap_or(0) + sub.len()..].trim_start();
        if sub != "iter" && self.state.is_none() {
            return Err(perr(line, "state iter must precede other state records"));
        }
        match sub {
            "iter" => self.state_iter(line, tail),
            "stats" => self.state_stats(line, tail),
            "counters" => self.state_counters(line, tail),
            "usage" | "hist" | "prices" => self.state_ledger(line, tail, sub),
            "net" => self.state_net(line, tail),
            "tree" => self.state_tree(line, tail),
            other => Err(perr(line, format!("unknown state record {other}"))),
        }
    }

    fn state_iter(&mut self, line: usize, tail: &str) -> Result<(), ParseWorkloadError> {
        if self.state.is_some() {
            return Err(perr(line, "duplicate state iter record"));
        }
        let mut it = tail.split_whitespace();
        let iteration: usize = tok(&mut it, line, "state iteration counter")?;
        no_more(it, line)?;
        if iteration == 0 {
            return Err(perr(line, "state iteration counter must be at least 1"));
        }
        self.state = Some(StateSection { iteration, ..Default::default() });
        Ok(())
    }

    fn state_stats(&mut self, line: usize, tail: &str) -> Result<(), ParseWorkloadError> {
        if self.state_stats_seen {
            return Err(perr(line, "duplicate state stats record"));
        }
        self.state_stats_seen = true;
        let tail = tail.strip_prefix(':').ok_or_else(|| perr(line, "missing ':' separator"))?;
        let counts: Vec<usize> = tail
            .split_whitespace()
            .map(|v| v.parse().map_err(|_| perr(line, format!("bad reroute count {v}"))))
            .collect::<Result<_, _>>()?;
        // INVARIANT: state_record gates every non-iter sub-record on state being set.
        self.state.as_mut().expect("gated on state iter").stats.rerouted_per_iter = counts;
        Ok(())
    }

    fn state_counters(&mut self, line: usize, tail: &str) -> Result<(), ParseWorkloadError> {
        if self.state_counters_seen {
            return Err(perr(line, "duplicate state counters record"));
        }
        self.state_counters_seen = true;
        let mut it = tail.split_whitespace();
        // INVARIANT: state_record gates every non-iter sub-record on state being set.
        let stats = &mut self.state.as_mut().expect("gated on state iter").stats;
        for slot in &mut stats.dirty {
            *slot = tok(&mut it, line, "dirty-cause counter")?;
        }
        stats.usage_recounts = tok(&mut it, line, "usage recount counter")?;
        stats.sta_nodes_retimed = tok(&mut it, line, "STA retime counter")?;
        for slot in &mut stats.kernel {
            *slot = tok(&mut it, line, "kernel counter")?;
        }
        no_more(it, line)?;
        Ok(())
    }

    /// `state usage|hist|prices <start> : <v>...` — ledger values arrive
    /// in chunks whose declared start offset must equal the values
    /// already accumulated, so a dropped or reordered chunk is an error
    /// on the exact line it happens.
    fn state_ledger(
        &mut self,
        line: usize,
        tail: &str,
        sub: &str,
    ) -> Result<(), ParseWorkloadError> {
        let (head, vals) =
            tail.split_once(':').ok_or_else(|| perr(line, "missing ':' separator"))?;
        let start: usize = head
            .trim()
            .parse()
            .map_err(|_| perr(line, format!("bad chunk offset {}", head.trim())))?;
        let num_edges = self.num_edges;
        // INVARIANT: state_record gates every non-iter sub-record on state being set.
        let state = self.state.as_mut().expect("gated on state iter");
        let ledger = match sub {
            "usage" => &mut state.usage,
            "hist" => &mut state.usage_hist,
            _ => &mut state.prices,
        };
        if start != ledger.len() {
            return Err(perr(
                line,
                format!("state {sub} chunk starts at {start}, expected {}", ledger.len()),
            ));
        }
        for v in vals.split_whitespace() {
            let value: f64 = v.parse().map_err(|_| perr(line, format!("bad {sub} value {v}")))?;
            nan_check(value, line, "state ledger value")?;
            if ledger.len() >= num_edges {
                return Err(perr(
                    line,
                    format!("state {sub} has more values than the grid's {num_edges} edges"),
                ));
            }
            ledger.push(value);
        }
        Ok(())
    }

    fn state_net(&mut self, line: usize, tail: &str) -> Result<(), ParseWorkloadError> {
        let mut sections = tail.split(':');
        // INVARIANT: split always yields at least one (possibly empty) part.
        let head = sections.next().expect("split yields at least one part");
        let w_part =
            sections.next().ok_or_else(|| perr(line, "missing weights section after ':'"))?;
        let b_part =
            sections.next().ok_or_else(|| perr(line, "missing budgets section after ':'"))?;
        let wr_part = sections
            .next()
            .ok_or_else(|| perr(line, "missing reference-weights section after ':'"))?;
        let br_part = sections
            .next()
            .ok_or_else(|| perr(line, "missing reference-budgets section after ':'"))?;
        if sections.next().is_some() {
            return Err(perr(line, "too many ':' sections in state net record"));
        }
        let mut it = head.split_whitespace();
        let id: usize = tok(&mut it, line, "net id")?;
        let routed_raw: u8 = tok(&mut it, line, "routed flag")?;
        let drift: f64 = ftok(&mut it, line, "drift")?;
        no_more(it, line)?;
        let routed = match routed_raw {
            0 => false,
            1 => true,
            other => return Err(perr(line, format!("bad routed flag {other} (want 0 or 1)"))),
        };
        let seen = self.state.as_ref().map_or(0, |s| s.nets.len());
        if id != seen {
            return Err(perr(line, format!("state net {id} out of order (expected net {seen})")));
        }
        if id >= self.nets.len() {
            return Err(perr(line, format!("state net {id} for unknown net")));
        }
        let sinks = self.nets[id].sinks.len();
        let weights = parse_f64_list(w_part, line, "state net weight")?;
        let budgets = parse_opt_f64_list(b_part, line, "state net budget")?;
        let weight_ref = parse_f64_list(wr_part, line, "state net reference weight")?;
        let budget_ref = parse_opt_f64_list(br_part, line, "state net reference budget")?;
        if weights.len() != sinks {
            return Err(perr(
                line,
                format!("state net {id}: {} weights for {sinks} sinks", weights.len()),
            ));
        }
        check_weight_ref(id, routed, sinks, weight_ref.len()).map_err(|m| perr(line, m))?;
        for (label, list) in [("budgets", &budgets), ("reference budgets", &budget_ref)] {
            if let Some(b) = list {
                if b.len() != sinks {
                    return Err(perr(
                        line,
                        format!("state net {id}: {} {label} for {sinks} sinks", b.len()),
                    ));
                }
            }
        }
        // INVARIANT: state_record gates every non-iter sub-record on state being set.
        self.state.as_mut().expect("gated on state iter").nets.push(StateNet {
            routed,
            drift,
            weights,
            budgets,
            weight_ref,
            budget_ref,
        });
        Ok(())
    }

    fn state_tree(&mut self, line: usize, tail: &str) -> Result<(), ParseWorkloadError> {
        let mut sections = tail.split(':');
        // INVARIANT: split always yields at least one (possibly empty) part.
        let head = sections.next().expect("split yields at least one part");
        let nodes_part =
            sections.next().ok_or_else(|| perr(line, "missing nodes section after ':'"))?;
        let edges_part =
            sections.next().ok_or_else(|| perr(line, "missing path-edges section after ':'"))?;
        let delays_part =
            sections.next().ok_or_else(|| perr(line, "missing sink-delays section after ':'"))?;
        if sections.next().is_some() {
            return Err(perr(line, "too many ':' sections in state tree record"));
        }
        let mut it = head.split_whitespace();
        let id: usize = tok(&mut it, line, "net id")?;
        let wirelength_gcells: f64 = ftok(&mut it, line, "tree wirelength")?;
        let vias: u64 = tok(&mut it, line, "tree via count")?;
        no_more(it, line)?;
        if id >= self.nets.len() {
            return Err(perr(line, format!("state tree for unknown net {id}")));
        }
        let sinks = self.nets[id].sinks.len();
        let node_vals: Vec<i64> = nodes_part
            .split_whitespace()
            .map(|v| v.parse().map_err(|_| perr(line, format!("bad tree node value {v}"))))
            .collect::<Result<_, _>>()?;
        if node_vals.is_empty() || !node_vals.len().is_multiple_of(4) {
            return Err(perr(
                line,
                "tree nodes must come as non-empty (kind vertex parent pathlen) quadruples",
            ));
        }
        let n = node_vals.len() / 4;
        let mut tree = StateTree {
            kinds: Vec::with_capacity(n),
            vertices: Vec::with_capacity(n),
            parents: Vec::with_capacity(n),
            path_len: Vec::with_capacity(n),
            path_edges: Vec::new(),
            sink_delays: Vec::new(),
            wirelength_gcells,
            vias,
        };
        let as_u32 = |v: i64, what: &str| -> Result<u32, ParseWorkloadError> {
            u32::try_from(v).map_err(|_| perr(line, format!("bad tree node {what} {v}")))
        };
        for quad in node_vals.chunks(4) {
            tree.kinds.push(quad[0]);
            tree.vertices.push(as_u32(quad[1], "vertex")?);
            tree.parents.push(as_u32(quad[2], "parent")?);
            tree.path_len.push(as_u32(quad[3], "path length")?);
        }
        for v in edges_part.split_whitespace() {
            let e: u32 = v.parse().map_err(|_| perr(line, format!("bad path edge {v}")))?;
            tree.path_edges.push(e);
        }
        tree.sink_delays = parse_f64_list(delays_part, line, "sink delay")?;
        validate_state_tree(&tree, self.num_vertices, self.num_edges, sinks)
            .map_err(|m| perr(line, format!("state tree for net {id}: {m}")))?;
        // INVARIANT: state_record gates every non-iter sub-record on state being set.
        let state = self.state.as_mut().expect("gated on state iter");
        if state.trees.last().is_some_and(|&(p, _)| id <= p) {
            return Err(perr(line, "state tree net ids must be strictly increasing"));
        }
        state.trees.push((id, tree));
        Ok(())
    }

    /// End-of-document completeness checks shared by the owned and
    /// streaming finishers. `lines` is the physical line count; errors
    /// report one past it (the EOF position).
    fn check_complete(&self, lines: usize) -> Result<(), ParseWorkloadError> {
        let eof = lines + 1;
        if !self.header_seen {
            return Err(perr(1, "missing cdst/1 header"));
        }
        let missing = self.layers_missing();
        if missing > 0 {
            return Err(perr(eof, format!("missing {missing} layer record(s)")));
        }
        if self.spec.is_none() {
            return Err(perr(eof, "missing grid record"));
        }
        if self.name.is_none() {
            return Err(perr(eof, "missing chip record"));
        }
        if self.tech.is_none() {
            return Err(perr(eof, "missing tech record"));
        }
        if self.cell_delay.is_none() {
            return Err(perr(eof, "missing celldelay record"));
        }
        if let Some(state) = &self.state {
            // a checkpoint is all-or-nothing: a truncated state section
            // (short ledger, missing nets or trees) is rejected here
            validate_state(state, self.num_edges, self.num_vertices, &self.nets)
                .map_err(|m| perr(eof, format!("incomplete state section: {m}")))?;
        }
        Ok(())
    }

    fn finish(self, lines: usize) -> Result<ChipDoc, ParseWorkloadError> {
        self.check_complete(lines)?;
        let EcapSink::Collect(ecap) = self.sink else {
            // INVARIANT: finish is only called by the owned parse, which constructs the Collect sink.
            unreachable!("owned parse uses the collect sink")
        };
        Ok(ChipDoc {
            // INVARIANT: check_complete verified the chip record is present.
            name: self.name.expect("checked complete"),
            // INVARIANT: check_complete verified the tech record is present.
            tech_layers: self.tech.expect("checked complete"),
            // INVARIANT: check_complete verified the celldelay record is present.
            cell_delay_ps: self.cell_delay.expect("checked complete"),
            config: self.config,
            // INVARIANT: check_complete verified the grid record is present.
            grid: self.spec.expect("checked complete"),
            ecap,
            nets: self.nets,
            chains: self.chains,
            weights: self.weights,
            budgets: self.budgets,
            requests: self.requests,
            state: self.state,
        })
    }

    fn finish_streamed(
        self,
        lines: usize,
        mut stats: ReaderStats,
    ) -> Result<StreamedChip, ParseWorkloadError> {
        self.check_complete(lines)?;
        let EcapSink::Apply { grid, applied } = self.sink else {
            // INVARIANT: finish_streamed is only called by the streaming parse, which constructs the Apply sink.
            unreachable!("streaming parse uses the apply sink")
        };
        stats.ecap_applied = applied;
        // INVARIANT: check_complete verified the grid record, and spec completion built the graph.
        let grid = grid.expect("checked complete");
        // INVARIANT: check_complete verified every required record is present.
        let tech_layers = self.tech.expect("checked complete");
        let delay_model = Technology::five_nm_like(tech_layers).calibrate(grid.spec().gcell_um);
        Ok(StreamedChip {
            chip: Chip {
                // INVARIANT: check_complete verified the chip record is present.
                name: self.name.expect("checked complete"),
                grid,
                delay_model,
                nets: self.nets,
                chains: self.chains,
                // INVARIANT: check_complete verified the celldelay record is present.
                cell_delay_ps: self.cell_delay.expect("checked complete"),
            },
            tech_layers,
            config: self.config,
            weights: self.weights,
            budgets: self.budgets,
            requests: self.requests,
            state: self.state,
            stats,
        })
    }
}

/// Parses a `':'`-delimited section as whitespace-separated finite
/// floats (possibly none).
fn parse_f64_list(part: &str, line: usize, what: &str) -> Result<Vec<f64>, ParseWorkloadError> {
    let values: Vec<f64> = part
        .split_whitespace()
        .map(|v| v.parse().map_err(|_| perr(line, format!("bad {what} {v}"))))
        .collect::<Result<_, _>>()?;
    for &v in &values {
        nan_check(v, line, what)?;
    }
    Ok(values)
}

/// Like [`parse_f64_list`], but a lone `-` means `None`.
fn parse_opt_f64_list(
    part: &str,
    line: usize,
    what: &str,
) -> Result<Option<Vec<f64>>, ParseWorkloadError> {
    if part.trim() == "-" {
        return Ok(None);
    }
    parse_f64_list(part, line, what).map(Some)
}

/// Streaming parse from any reader: lines are consumed one at a time
/// (a line buffer is the only transient state), so arbitrarily large
/// documents parse in O(largest record) memory on top of the output.
///
/// # Errors
///
/// The first malformed line, with its 1-based line number; reader
/// errors are reported on the line they interrupted.
pub fn read_chip_doc<R: BufRead>(mut reader: R) -> Result<ChipDoc, ParseWorkloadError> {
    let mut parser = DocParser::new(EcapSink::Collect(Vec::new()));
    let mut buf = String::new();
    let mut line = 0usize;
    loop {
        buf.clear();
        line += 1;
        let n = reader.read_line(&mut buf).map_err(|e| perr(line, format!("read error: {e}")))?;
        if n == 0 {
            return parser.finish(line - 1);
        }
        let text = buf.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        parser.record(line, text)?;
    }
}

/// Work counters of one streaming read, for the peak-memory
/// experiments: the owned parse materializes a [`ChipDoc`] (an `ecap`
/// list plus a second copy of every net) before building the chip,
/// while the streaming reader's transient state is one line buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReaderStats {
    /// Non-blank, non-comment record lines consumed.
    pub records: usize,
    /// `ecap` overrides applied in place to the already-built graph.
    pub ecap_applied: usize,
    /// Largest single line buffered (bytes) — the reader's only
    /// transient allocation, so this bounds its working set on top of
    /// the output.
    pub peak_line_bytes: usize,
}

/// Result of [`read_chip_streaming`]: the routable chip plus the
/// document extras that are not part of [`Chip`], without the
/// intermediate [`ChipDoc`] the owned parse materializes.
#[derive(Debug, Clone)]
pub struct StreamedChip {
    /// The routable chip (graph built during the parse, `ecap` applied
    /// in place).
    pub chip: Chip,
    /// Metal layer count the delay model was calibrated from.
    pub tech_layers: u8,
    /// Router configuration overrides, in document order.
    pub config: Vec<(String, String)>,
    /// Per-net delay weights (the harvest archive).
    pub weights: Vec<(usize, Vec<f64>)>,
    /// Per-net delay budgets.
    pub budgets: Vec<(usize, Vec<f64>)>,
    /// Archived solver-level requests.
    pub requests: Vec<RequestRecord>,
    /// Mid-run checkpoint state (cdst/2 documents).
    pub state: Option<StateSection>,
    /// Work counters of the read.
    pub stats: ReaderStats,
}

/// Streaming parse that feeds records straight into the chip being
/// built: the grid graph is constructed the moment the layer records
/// complete the spec, `ecap` overrides are applied to it in place, and
/// nets/chains accumulate directly in their final tables. Peak memory
/// is the finished chip plus one line buffer — no intermediate
/// [`ChipDoc`] (which would hold a second copy of the workload) exists
/// at any point.
///
/// Accepts exactly the documents [`read_chip_doc`] accepts, and rejects
/// malformed input with the same first-error line number (enforced by
/// proptest in `tests/chipdoc.rs`).
///
/// # Errors
///
/// The first malformed line, with its 1-based line number; reader
/// errors are reported on the line they interrupted.
pub fn read_chip_streaming<R: BufRead>(mut reader: R) -> Result<StreamedChip, ParseWorkloadError> {
    let mut parser = DocParser::new(EcapSink::Apply { grid: None, applied: 0 });
    let mut buf = String::new();
    let mut line = 0usize;
    let mut stats = ReaderStats::default();
    loop {
        buf.clear();
        line += 1;
        let n = reader.read_line(&mut buf).map_err(|e| perr(line, format!("read error: {e}")))?;
        if n == 0 {
            return parser.finish_streamed(line - 1, stats);
        }
        stats.peak_line_bytes = stats.peak_line_bytes.max(buf.len());
        let text = buf.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        stats.records += 1;
        parser.record(line, text)?;
    }
}

/// Parses a chip document from a string. See [`read_chip_doc`].
///
/// # Errors
///
/// The first malformed line, with its 1-based line number.
pub fn parse_chip_doc(text: &str) -> Result<ChipDoc, ParseWorkloadError> {
    read_chip_doc(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChipSpec;

    fn small_doc() -> ChipDoc {
        ChipDoc::from_chip(&ChipSpec::small_test(3).generate()).unwrap()
    }

    #[test]
    fn spec_num_edges_matches_build() {
        for spec in [
            GridSpec::uniform(6, 5, 4),
            GridSpec::uniform(1, 9, 2),
            ChipSpec::small_test(7).generate().grid.spec().clone(),
        ] {
            let built = spec.clone().build();
            assert_eq!(spec_num_edges(&spec), built.graph().num_edges());
        }
    }

    #[test]
    fn generated_chip_round_trips_bit_identically() {
        let chip = ChipSpec { num_nets: 200, ..ChipSpec::small_test(11) }.generate();
        let doc = ChipDoc::from_chip(&chip).unwrap();
        assert!(!doc.ecap.is_empty(), "macro depletion should produce capacity overrides");
        let text = chip_doc_to_string(&doc).unwrap();
        let parsed = parse_chip_doc(&text).unwrap();
        assert_eq!(parsed, doc);
        // canonical writer: write ∘ parse is the identity on writer output
        assert_eq!(chip_doc_to_string(&parsed).unwrap(), text);

        let rebuilt = parsed.build_chip();
        assert_eq!(rebuilt.name, chip.name);
        assert_eq!(rebuilt.nets, chip.nets);
        assert_eq!(rebuilt.chains, chip.chains);
        assert_eq!(rebuilt.cell_delay_ps.to_bits(), chip.cell_delay_ps.to_bits());
        assert_eq!(rebuilt.delay_model, chip.delay_model);
        assert_eq!(rebuilt.grid.spec(), chip.grid.spec());
        let (a, b) = (rebuilt.grid.graph(), chip.grid.graph());
        assert_eq!(a.num_edges(), b.num_edges());
        for e in a.edge_ids() {
            assert_eq!(a.endpoints(e), b.endpoints(e));
            assert_eq!(a.edge(e).capacity.to_bits(), b.edge(e).capacity.to_bits(), "edge {e}");
            assert_eq!(a.edge(e).base_cost.to_bits(), b.edge(e).base_cost.to_bits());
            assert_eq!(a.edge(e).delay.to_bits(), b.edge(e).delay.to_bits());
        }
    }

    #[test]
    fn extras_round_trip() {
        let mut doc = small_doc();
        doc.config = vec![
            ("oracle".into(), "cd".into()),
            ("iterations".into(), "3".into()),
            ("price_tol".into(), "0.5".into()),
        ];
        let k = doc.nets[2].sinks.len();
        doc.weights = vec![(2, vec![0.05; k]), (5, vec![1.25; doc.nets[5].sinks.len()])];
        doc.budgets = vec![(2, vec![312.5; k])];
        doc.requests = vec![RequestRecord {
            seed: 99,
            dbif: 3.5,
            eta: 0.25,
            root: (0, 0, 0),
            sinks: vec![(3, 1, 0), (2, 2, 1)],
            weights: vec![0.1, 2.0],
        }];
        let text = chip_doc_to_string(&doc).unwrap();
        assert_eq!(parse_chip_doc(&text).unwrap(), doc);
    }

    #[test]
    fn streaming_reader_matches_str_parse() {
        let text = chip_doc_to_string(&small_doc()).unwrap();
        let via_str = parse_chip_doc(&text).unwrap();
        let via_reader = read_chip_doc(std::io::BufReader::with_capacity(7, text.as_bytes()));
        assert_eq!(via_reader.unwrap(), via_str);
    }

    #[test]
    fn writer_rejects_unrepresentable_documents() {
        let mut doc = small_doc();
        doc.name = "two words".into();
        assert!(chip_doc_to_string(&doc).unwrap_err().message.contains("name"));

        let mut doc = small_doc();
        doc.chains[0].rat_ps = f64::NAN;
        assert!(chip_doc_to_string(&doc).unwrap_err().message.contains("NaN"));

        let mut doc = small_doc();
        doc.nets[0].root = Point::new(-1, 0);
        assert!(chip_doc_to_string(&doc).unwrap_err().message.contains("outside"));

        let mut doc = small_doc();
        doc.ecap = vec![(u32::MAX, 1.0)];
        assert!(chip_doc_to_string(&doc).unwrap_err().message.contains("out of range"));

        let mut doc = small_doc();
        doc.weights = vec![(0, vec![])];
        if !doc.nets[0].sinks.is_empty() {
            assert!(chip_doc_to_string(&doc).unwrap_err().message.contains("sinks"));
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("chip x\n", 1, "missing cdst/1 header"),
            ("cdst/3\n", 1, "unsupported version"),
            ("cdst/1\ncdst/1\n", 2, "unknown record"),
            ("cdst/1\n# c\nbogus 1\n", 3, "unknown record"),
            ("cdst/1\nchip a\nchip b\n", 3, "duplicate chip"),
            ("cdst/1\ntech 1\n", 2, "at least 2"),
            ("cdst/1\ngrid 0 4 1 1.0 1.0 1.0 1.0\n", 2, "at least one gcell"),
            ("cdst/1\ngrid 4 4 2 1.0 1.0 1.0 1.0\nnet 0 0 :\n", 3, "layer record"),
            ("cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer X : 1.0 1.0 1.0\n", 3, "direction"),
            ("cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0\n", 3, "triples"),
            (
                "cdst/1\ngrid 2 2 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\necap 99 1.0\n",
                4,
                "out of range",
            ),
            (
                "cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\nnet 9 0 :\n",
                4,
                "outside the grid",
            ),
            (
                "cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\nchain 5.0 : 0\n",
                4,
                "unknown net",
            ),
            (
                "cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\n\
                 net 0 0 : 1 1\nweights 0 : 0.5 0.5\n",
                5,
                "sinks",
            ),
            (
                "cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\n\
                 net 0 0 : 1 1\nchain 5.0 : 0\nnet 1 1 : 0 0\n",
                6,
                "out of section order",
            ),
            (
                "cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\n\
                 request 7 0.0 0.9 : 0 0 0 : 1 1 0 : 1.0\n",
                4,
                "eta",
            ),
            ("cdst/1\nchip a\ntech 2\ncelldelay 1.0\n", 5, "missing grid"),
            ("cdst/1\nnet 0 0 : 1 1\n", 2, "missing grid record before net"),
            // the parser enforces the writer's NaN exclusion, so every
            // accepted document can be re-serialized
            ("cdst/1\ncelldelay NaN\n", 2, "NaN"),
            ("cdst/1\ngrid 4 4 1 NaN 1.0 1.0 1.0\n", 2, "NaN"),
            ("cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 NaN 1.0\n", 3, "NaN"),
            ("cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\necap 0 NaN\n", 4, "NaN"),
            (
                "cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\n\
                 net 0 0 : 1 1\nchain NaN : 0\n",
                5,
                "NaN",
            ),
            (
                "cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\n\
                 net 0 0 : 1 1\nweights 0 : NaN\n",
                5,
                "NaN",
            ),
            (
                "cdst/1\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\n\
                 request 7 0.0 0.25 : 0 0 0 : 1 1 0 : NaN\n",
                4,
                "NaN",
            ),
            ("cdst/1\ngrid 4 4 2 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\n", 4, "layer record"),
        ];
        for (text, line, needle) in cases {
            let e = parse_chip_doc(text).unwrap_err();
            assert_eq!(e.line, *line, "{text:?}: {e}");
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn missing_preamble_records_are_reported_at_eof() {
        let text = "cdst/1\ngrid 2 2 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\n";
        let e = parse_chip_doc(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("missing chip"), "{e}");
    }

    #[test]
    fn build_chip_applies_ecap_overrides() {
        let mut doc = small_doc();
        doc.ecap = vec![(0, 0.5), (7, 123.25)];
        let chip = doc.build_chip();
        assert_eq!(chip.grid.graph().edge(0).capacity, 0.5);
        assert_eq!(chip.grid.graph().edge(7).capacity, 123.25);
        // neighbours keep the spec capacity
        let pristine = doc.grid.clone().build();
        assert_eq!(chip.grid.graph().edge(1).capacity, pristine.graph().edge(1).capacity);
    }

    #[test]
    fn comments_and_blank_lines_ignored_everywhere() {
        let doc = small_doc();
        let text = chip_doc_to_string(&doc).unwrap();
        let noisy: String =
            text.lines().flat_map(|l| [l, "", "# noise"]).collect::<Vec<_>>().join("\n");
        assert_eq!(parse_chip_doc(&noisy).unwrap(), doc);
    }

    /// A synthetic but fully valid checkpoint over `small_doc`'s nets:
    /// every net routed, a one-node tree per net rooted at its root
    /// vertex (zero sinks would be invalid, so sinks get delays and
    /// sink nodes attached to the root with empty paths).
    fn doc_with_state() -> ChipDoc {
        let mut doc = small_doc();
        let num_edges = spec_num_edges(&doc.grid);
        let mut state = StateSection {
            iteration: 2,
            usage: (0..num_edges).map(|e| (e % 3) as f64 * 0.5).collect(),
            usage_hist: (0..num_edges).map(|e| (e % 5) as f64 * 0.25).collect(),
            prices: (0..num_edges).map(|e| 1.0 + (e % 7) as f64).collect(),
            stats: StateStats {
                rerouted_per_iter: vec![doc.nets.len(), 3],
                dirty: [doc.nets.len(), 1, 0, 2, 0, 0],
                usage_recounts: 1,
                sta_nodes_retimed: 17,
                kernel: [100, 90, 80, 7, 3],
            },
            ..Default::default()
        };
        let vertex = |p: Point| p.y as u32 * doc.grid.nx + p.x as u32;
        for net in &doc.nets {
            let k = net.sinks.len();
            state.nets.push(StateNet {
                routed: true,
                drift: 0.125,
                weights: vec![0.5; k],
                budgets: Some(vec![250.0; k]),
                weight_ref: vec![0.5; k],
                budget_ref: None,
            });
        }
        for (i, net) in doc.nets.iter().enumerate() {
            let k = net.sinks.len();
            let mut tree = StateTree {
                kinds: vec![-1],
                vertices: vec![vertex(net.root)],
                parents: vec![0],
                path_len: vec![0],
                path_edges: vec![],
                sink_delays: vec![42.5; k],
                wirelength_gcells: k as f64,
                vias: 1,
            };
            for (s, &sink) in net.sinks.iter().enumerate() {
                tree.kinds.push(s as i64);
                tree.vertices.push(vertex(sink));
                tree.parents.push(0);
                tree.path_len.push(0);
            }
            state.trees.push((i, tree));
        }
        doc.state = Some(state);
        doc
    }

    #[test]
    fn state_section_round_trips_bit_identically() {
        let doc = doc_with_state();
        let text = chip_doc_to_string(&doc).unwrap();
        assert!(text.starts_with("cdst/2\n"), "state docs get the cdst/2 header");
        let parsed = parse_chip_doc(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(chip_doc_to_string(&parsed).unwrap(), text);
        // the streaming reader recovers the same state section
        let streamed = read_chip_streaming(text.as_bytes()).unwrap();
        assert_eq!(streamed.state, doc.state);
    }

    #[test]
    fn state_without_prices_is_rejected_naming_the_record() {
        // every checkpoint carries the dirty tracker's price reference;
        // a state section without it must be a typed error, never a
        // document that parses and then fails the resume
        let doc = doc_with_state();
        let text = chip_doc_to_string(&doc).unwrap();
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("state prices"))
            .map(|l| format!("{l}\n"))
            .collect();
        let e = parse_chip_doc(&stripped).unwrap_err();
        assert_eq!(e.line, stripped.lines().count() + 1, "{e}");
        assert!(e.message.contains("state prices has 0 values"), "{e}");
        let e = read_chip_streaming(stripped.as_bytes()).unwrap_err();
        assert!(e.message.contains("state prices has 0 values"), "{e}");
        // the writer holds the same line
        let mut no_prices = doc;
        no_prices.state.as_mut().unwrap().prices.clear();
        let e = chip_doc_to_string(&no_prices).unwrap_err();
        assert!(e.to_string().contains("state prices"), "{e}");
    }

    #[test]
    fn routed_net_without_reference_weights_is_rejected_on_its_line() {
        // a routed net's reference weights are the dirty tracker's
        // weight baseline and the harvest's record; a checkpoint that
        // drops them must not resume into a silently different run
        let doc = doc_with_state();
        let text = chip_doc_to_string(&doc).unwrap();
        let at = text.lines().position(|l| l.starts_with("state net ")).unwrap();
        let line = text.lines().nth(at).unwrap();
        let mut parts: Vec<&str> = line.split(" : ").collect();
        parts[3] = ""; // head : weights : budgets : w_ref : b_ref
        let e = parse_chip_doc(&text.replacen(line, &parts.join(" : "), 1)).unwrap_err();
        assert_eq!(e.line, at + 1, "{e}");
        assert!(e.message.contains("0 reference weights on a routed net"), "{e}");
        // the writer holds the same line
        let mut no_ref = doc;
        no_ref.state.as_mut().unwrap().nets[0].weight_ref.clear();
        let e = chip_doc_to_string(&no_ref).unwrap_err();
        assert!(e.to_string().contains("reference weights on a routed net"), "{e}");
    }

    #[test]
    fn state_records_require_the_cdst2_header() {
        let text = "cdst/1\nchip a\ntech 2\ncelldelay 1.0\n\
                    grid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\nstate iter 1\n";
        let e = parse_chip_doc(text).unwrap_err();
        assert_eq!(e.line, 7);
        assert!(e.message.contains("cdst/2"), "{e}");
    }

    #[test]
    fn truncated_or_tampered_state_is_rejected_with_line_numbers() {
        let doc = doc_with_state();
        let text = chip_doc_to_string(&doc).unwrap();

        // truncation anywhere in the state section: incomplete at EOF
        let state_start = text.lines().position(|l| l.starts_with("state ")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for cut in state_start + 1..lines.len() {
            let truncated = lines[..cut].join("\n") + "\n";
            let e = parse_chip_doc(&truncated).unwrap_err();
            assert_eq!(e.line, cut + 1, "cut at {cut}: {e}");
            assert!(e.message.contains("incomplete state section"), "cut at {cut}: {e}");
        }

        // a dropped ledger chunk breaks the offset chain on the next line
        let usage_lines: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].starts_with("state usage")).collect();
        if usage_lines.len() >= 2 {
            let mut dropped = lines.clone();
            dropped.remove(usage_lines[0]);
            let e = parse_chip_doc(&(dropped.join("\n") + "\n")).unwrap_err();
            assert_eq!(e.line, usage_lines[1]); // the old line i+1 is now line i (1-based)
            assert!(e.message.contains("chunk starts at"), "{e}");
        }

        // state records under a cdst/1 body position are still ordered:
        // a net record after the state section is out of section order
        let with_trailer = text.clone() + "net 0 0 : 1 1\n";
        let e = parse_chip_doc(&with_trailer).unwrap_err();
        assert!(e.message.contains("out of section order"), "{e}");

        // tampering a tree record is caught on its own line
        let tree_line = (0..lines.len()).find(|&i| lines[i].starts_with("state tree")).unwrap();
        let mut tampered = lines.clone();
        let bad = lines[tree_line].replacen(" : ", " 9999 : ", 1); // stray token in the head
        tampered[tree_line] = &bad;
        let e = parse_chip_doc(&(tampered.join("\n") + "\n")).unwrap_err();
        assert_eq!(e.line, tree_line + 1);
        assert!(e.message.contains("unexpected trailing token"), "{e}");
    }

    #[test]
    fn streaming_reader_reports_work_counters() {
        let doc = small_doc();
        let text = chip_doc_to_string(&doc).unwrap();
        let streamed = read_chip_streaming(text.as_bytes()).unwrap();
        assert_eq!(streamed.stats.ecap_applied, doc.ecap.len());
        assert!(streamed.stats.records > 0);
        assert!(streamed.stats.peak_line_bytes > 0);
        // the streamed chip equals the owned build
        let owned = doc.build_chip();
        assert_eq!(streamed.chip.nets, owned.nets);
        assert_eq!(streamed.chip.chains, owned.chains);
        assert_eq!(streamed.chip.delay_model, owned.delay_model);
        let (a, b) = (streamed.chip.grid.graph(), owned.grid.graph());
        assert_eq!(a.num_edges(), b.num_edges());
        for e in a.edge_ids() {
            assert_eq!(a.edge(e).capacity.to_bits(), b.edge(e).capacity.to_bits(), "edge {e}");
        }
    }
}
