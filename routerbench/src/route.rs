//! `route_c8`: c8@800 read with the streaming reader, then routed by
//! `Router::run_with` (CD, defaults, 2 threads, 5 iterations).

use crate::trace::{self_time_s, union_len, CallCounters, TracedOracle, Tracer};
use crate::{Args, Report, Samples};
use cds_graph::WindowView;
use cds_instgen::io::doc::{read_chip_streaming, StreamedChip};
use cds_instgen::Chip;
use cds_router::{
    Router, RouterConfig, RouterStats, RoutingOutcome, RunControl, SteinerMethod, WorkerPool,
};
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions per chip (`setup_s` is the median of all of them).
const SETUP_REPS: usize = 5;

/// Seconds of `--seconds` per c8 chip (a route takes 5–6 s on 2 cores):
/// 30 s give 5 chips.
const CHIP_S: f64 = 6.0;

/// The router configuration of `route_c8` (and of the replay harvest).
pub fn config(threads: usize) -> RouterConfig {
    RouterConfig { method: SteinerMethod::Cd, threads, iterations: 5, ..RouterConfig::default() }
}

/// Reads one chip document with the streaming reader.
pub fn read_doc(path: &Path) -> Result<StreamedChip, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_chip_streaming(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Times `reps` set-ups (read + `Router::new`), returning the last chip
/// read and the (total, read, new) samples.
pub fn timed_setup(
    path: &Path,
    config: &RouterConfig,
    reps: usize,
    tracer: Option<&Tracer>,
) -> Result<(StreamedChip, [Samples; 3]), String> {
    let mut samples: [Samples; 3] = Default::default();
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let s0 = tracer.map(Tracer::now_us);
        let chip = read_doc(path)?;
        let t1 = Instant::now();
        let s1 = tracer.map(Tracer::now_us);
        std::hint::black_box(Router::new(&chip.chip, config.clone()));
        let t2 = Instant::now();
        if let (Some(tr), Some(s0), Some(s1)) = (tracer, s0, s1) {
            let setup = tr.reserve();
            let end = tr.now_us();
            tr.record(tr.reserve(), Some(setup), "instgen.read", 0, s0, s1);
            tr.record(tr.reserve(), Some(setup), "router.new", 0, s1, end);
            tr.record(setup, None, "setup", 0, s0, end);
        }
        samples[0].push((t2 - t0).as_secs_f64());
        samples[1].push((t1 - t0).as_secs_f64());
        samples[2].push((t2 - t1).as_secs_f64());
        last = Some(chip);
    }
    Ok((last.ok_or("no set-up ran")?, samples))
}

/// Validates every routed tree against the window it was routed in.
fn invalid_trees(chip: &Chip, config: &RouterConfig, out: &RoutingOutcome) -> Vec<String> {
    let mut bad = Vec::new();
    let mut pins = Vec::new();
    for (i, net) in chip.nets.iter().enumerate() {
        pins.clear();
        pins.push(net.root);
        pins.extend_from_slice(&net.sinks);
        let view = WindowView::around(&chip.grid, &pins, config.window_margin);
        if let Err(e) = out.forest.view(i).validate(&view, net.sinks.len()) {
            bad.push(format!("net {i}: {e}"));
        }
    }
    bad
}

/// The first outcome of a set: every later run must match it exactly.
pub struct Reference {
    pub checksum: u64,
    pub stats: RouterStats,
}

/// Checks one routing outcome (tree validity, checksum and deterministic
/// counters against the set's first run) and counts it as one operation.
pub fn check_outcome(
    label: &str,
    chip: &Chip,
    config: &RouterConfig,
    out: &RoutingOutcome,
    reference: &mut Option<Reference>,
    rep: &mut Report,
) {
    let bad = invalid_trees(chip, config, out);
    let mut problem = (!bad.is_empty())
        .then(|| format!("{label}: {} invalid trees, first {}", bad.len(), bad[0]));
    match reference {
        None => *reference = Some(Reference { checksum: out.checksum(), stats: out.stats.clone() }),
        Some(r) => {
            if r.checksum != out.checksum() {
                problem = Some(format!(
                    "{label}: checksum {:#018x} differs from {:#018x}",
                    out.checksum(),
                    r.checksum
                ));
            } else if r.stats != out.stats {
                problem = Some(format!("{label}: deterministic work counters differ"));
            }
        }
    }
    rep.op(problem);
}

fn route_once(router: &Router<'_>) -> (RoutingOutcome, f64) {
    let mut pool = WorkerPool::new();
    let t = Instant::now();
    let out = router.run_with(&mut pool, &RunControl::new(), &mut |_, _| {});
    (out, t.elapsed().as_secs_f64())
}

pub fn run(args: &Args, dir: &Path, rep: &mut Report) -> Result<(), String> {
    let cfg = config(2);
    if args.trace {
        return traced_run(args, &crate::input_path(dir, "c8", 0), &cfg, rep);
    }
    // Distinct chips, each read, set up and routed once: chip-to-chip
    // variation averages out over the run instead of showing per seed.
    let (mut setup, mut walls) = (Samples::default(), Samples::default());
    let mut quality = Vec::new();
    for chip_no in 0..args.chips(CHIP_S) {
        let path = crate::input_path(dir, "c8", chip_no);
        let (streamed, [s, _, _]) = timed_setup(&path, &cfg, SETUP_REPS, None)?;
        setup.0.extend(s.0);
        let router = Router::new(&streamed.chip, cfg.clone());
        let (out, wall) = route_once(&router);
        walls.push(wall);
        check_outcome("route", &streamed.chip, &cfg, &out, &mut None, rep);
        quality.push(crate::quality(&out));
    }
    println!("setup_s: {}", setup.describe(1.0, "s"));
    println!("route_wall_s: {}", walls.describe(1.0, "s"));
    rep.set("setup_s", setup.median());
    rep.set("op_ms", walls.median() * 1e3);
    rep.set_quality(&quality);
    Ok(())
}

/// The traced run on the first chip: set-up spans, two untraced routes
/// around one traced route, and one `threads=1` route, which must all
/// produce the same checksum and the same deterministic counters.
fn traced_run(
    args: &Args,
    path: &Path,
    cfg: &RouterConfig,
    rep: &mut Report,
) -> Result<(), String> {
    let tracer = Arc::new(Tracer::new());
    let (streamed, [_, read, new]) = timed_setup(path, cfg, SETUP_REPS, Some(&tracer))?;
    let chip = &streamed.chip;
    rep.set("instgen.read_s", read.median());
    rep.set("instgen.records", streamed.stats.records as f64);
    rep.set("router.new_s", new.median());

    // untraced routes on both sides of the traced one, so that warm-up
    // does not show as tracing overhead
    let mut reference = None;
    let router = Router::new(chip, cfg.clone());
    let (out, before) = route_once(&router);
    check_outcome("untraced route", chip, cfg, &out, &mut reference, rep);
    set_counters(rep, chip, &out.stats);
    rep.set_quality(&[crate::quality(&out)]);

    let (traced_wall, traced_out) = traced_route(chip, cfg, &tracer, rep);
    check_outcome("traced route", chip, cfg, &traced_out, &mut reference, rep);
    let (out, after) = route_once(&router);
    check_outcome("untraced route", chip, cfg, &out, &mut reference, rep);
    let wall = 0.5 * (before + after);

    let cfg1 = config(1);
    let (t1_out, t1_wall) = route_once(&Router::new(chip, cfg1.clone()));
    check_outcome("threads=1 route", chip, &cfg1, &t1_out, &mut reference, rep);
    rep.set("router.t1_wall_s", t1_wall);
    rep.set("router.speedup_2t", t1_wall / wall);
    rep.set("trace.overhead_pct", (traced_wall - wall) / wall * 100.0);
    println!(
        "route walls: untraced {before:.3} s and {after:.3} s, traced {traced_wall:.3} s, \
         threads=1 {t1_wall:.3} s"
    );
    tracer.write(args)
}

/// Deterministic per-layer counts of one run (they repeat exactly).
fn set_counters(rep: &mut Report, chip: &Chip, s: &RouterStats) {
    let calls = s.total_rerouted() as f64;
    let later: usize = s.rerouted_per_iter.iter().skip(1).sum();
    let later_slots = chip.nets.len() * s.iterations_completed().saturating_sub(1);
    rep.set("router.oracle_calls", calls);
    rep.set("router.rerouted_frac", later as f64 / later_slots.max(1) as f64);
    rep.set("router.dirty_overflow", s.dirty_overflow as f64);
    rep.set("router.dirty_timing", s.dirty_timing as f64);
    rep.set("router.dirty_price", s.dirty_price as f64);
    rep.set("sta.nodes_retimed", s.sta_nodes_retimed as f64);
    rep.set("topo.peak_arena_mib", s.peak_arena_bytes as f64 / (1 << 20) as f64);
    rep.set("core.settled_per_call", s.kernel_settled as f64 / calls);
    rep.set("core.pushed_per_call", s.kernel_pushed as f64 / calls);
    rep.set("core.decreased_per_call", s.kernel_decreased as f64 / calls);
    rep.set("heap.bucket_scans_per_call", s.kernel_bucket_scans as f64 / calls);
    rep.set("core.pops_per_settle", s.kernel_popped as f64 / s.kernel_settled.max(1) as f64);
}

/// One route with every oracle call wrapped in a span, iteration spans
/// from the progress hook, and the layer times derived from them.
fn traced_route(
    chip: &Chip,
    cfg: &RouterConfig,
    tracer: &Arc<Tracer>,
    rep: &mut Report,
) -> (f64, RoutingOutcome) {
    const RUN: u32 = 1;
    let parent = Arc::new(AtomicU64::new(0));
    let oracle = TracedOracle {
        inner: cfg.method.oracle(),
        tracer: Arc::clone(tracer),
        span_name: "oracle.call",
        run: RUN,
        parent: Arc::clone(&parent),
        counters: Arc::new(CallCounters::default()),
        topo: None,
    };
    let router = Router::with_oracle(chip, cfg.clone(), Box::new(oracle));
    // The open iteration span's id is reserved up front, so the oracle
    // calls running inside it can name it as their parent.
    let route_id = tracer.reserve();
    let mut iter_id = tracer.reserve();
    parent.store(iter_id, Ordering::Relaxed);
    let mut pool = WorkerPool::new();
    let start_us = tracer.now_us();
    let mut iter_start = start_us;
    let t = Instant::now();
    let out = router.run_with(&mut pool, &RunControl::new(), &mut |_, _| {
        let now = tracer.now_us();
        tracer.record(iter_id, Some(route_id), "router.iteration", RUN, iter_start, now);
        iter_start = now;
        iter_id = tracer.reserve();
        parent.store(iter_id, Ordering::Relaxed);
    });
    let wall = t.elapsed().as_secs_f64();
    let end_us = tracer.now_us();
    tracer.record(iter_id, Some(route_id), "router.finish", RUN, iter_start, end_us);
    tracer.record(route_id, None, "router.run_with", RUN, start_us, end_us);

    let spans = tracer.spans();
    let iters: Vec<_> =
        spans.iter().filter(|s| s.run == RUN && s.name == "router.iteration").collect();
    let calls: Vec<_> = spans.iter().filter(|s| s.run == RUN && s.name == "oracle.call").collect();
    let mut call_s = Samples::default();
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    for c in &calls {
        call_s.push(c.dur_s());
        intervals.push((c.start_us, c.end_us));
    }
    let busy = call_s.sum();
    println!("oracle.call: {}", call_s.describe(1e3, "ms"));
    rep.set("router.iter0_s", iters.first().map_or(0.0, |s| s.dur_s()));
    rep.set("router.iter_incr_s", iters.iter().skip(1).map(|s| s.dur_s()).sum());
    rep.set("router.self_s", iters.iter().map(|s| self_time_s(s, &spans)).sum());
    rep.set("oracle.busy_s", busy);
    rep.set("oracle.util", busy / (cfg.threads as f64 * wall));
    rep.set("oracle.call_p50_ms", call_s.median() * 1e3);
    rep.set("oracle.call_p99_ms", call_s.pct(99.0) * 1e3);
    println!(
        "traced route: {} iterations, oracle spans cover {:.3} s of {wall:.3} s wall",
        iters.len(),
        union_len(&mut intervals) * 1e-6
    );
    (wall, out)
}
