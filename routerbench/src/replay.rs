//! `replay_c3`: c3@800 is routed once with `harvest` as set-up, then every
//! harvested instance is replayed single-threaded through all four
//! oracles with warm workspaces via `Router::route_one_with` (Table I,
//! `d_bif = 0`).

use crate::route::{check_outcome, read_doc};
use crate::trace::{CallCounters, PlaneTopo, TracedOracle, Tracer};
use crate::{Args, Report, Samples};
use cds_bench::InstanceTable;
use cds_instgen::io::doc::StreamedChip;
use cds_router::{
    OracleWorkspace, Router, RouterConfig, RoutingOutcome, SteinerMethod, SteinerOracle,
};
use cds_topo::BifurcationConfig;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Seconds of `--seconds` per replayed c3 chip (a pass takes 10–13 s):
/// 30 s give 2 chips.
const CHIP_S: f64 = 12.5;

/// Oracle labels in `SteinerMethod::ALL` order (L1, SL, PD, CD).
const LABELS: [&str; 4] = ["l1", "sl", "pd", "cd"];
/// Per-oracle call span names, in the same order.
const SPANS: [&str; 4] = ["replay.l1", "replay.sl", "replay.pd", "replay.cd"];
/// Table I sink-count buckets, as metric-name suffixes.
const BUCKETS: [&str; 4] = ["b3_5", "b6_14", "b15_29", "b30p"];

fn harvest_config() -> RouterConfig {
    RouterConfig { harvest: true, ..crate::route::config(1) }
}

/// One chip's set-up: read, `Router::new` and the harvesting route.
struct Harvested {
    streamed: StreamedChip,
    out: RoutingOutcome,
    read_s: f64,
    new_s: f64,
    setup_s: f64,
}

fn harvest(path: &Path, cfg: &RouterConfig, rep: &mut Report) -> Result<Harvested, String> {
    let t0 = Instant::now();
    let streamed = read_doc(path)?;
    let t1 = Instant::now();
    let router = Router::new(&streamed.chip, cfg.clone());
    let t2 = Instant::now();
    let out = router.run();
    let setup_s = t0.elapsed().as_secs_f64();
    check_outcome("harvest route", &streamed.chip, cfg, &out, &mut None, rep);
    let (read_s, new_s) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
    Ok(Harvested { streamed, out, read_s, new_s, setup_s })
}

/// What one replay pass over a chip's harvested instances produced.
#[derive(Default)]
struct Pass {
    /// Wall time of each instance through all four oracles.
    instance_s: Samples,
    /// Summed objective per oracle (bit-exact across passes).
    sums: [f64; 4],
    table: InstanceTable,
}

/// Replays every harvested instance through the four oracles, one warm
/// workspace per oracle. Each (instance, oracle) pair is one operation;
/// a non-finite or non-positive objective fails it.
fn replay_pass(
    h: &Harvested,
    oracles: &[&dyn SteinerOracle; 4],
    workspaces: &mut [OracleWorkspace; 4],
    rep: &mut Report,
) -> Pass {
    let chip = &h.streamed.chip;
    let router = Router::new(chip, harvest_config());
    let mut pass = Pass::default();
    for inst in &h.out.harvest {
        let budgets = (!inst.budgets.is_empty()).then_some(inst.budgets.as_slice());
        let mut objs = [0.0; 4];
        let t = Instant::now();
        for (m, oracle) in oracles.iter().enumerate() {
            let (_, obj) = router.route_one_with(
                inst.net,
                *oracle,
                &h.out.prices,
                &inst.weights,
                budgets,
                BifurcationConfig::ZERO,
                &mut workspaces[m],
            );
            objs[m] = obj;
        }
        pass.instance_s.push(t.elapsed().as_secs_f64());
        for (m, &obj) in objs.iter().enumerate() {
            let bad = !(obj.is_finite() && obj > 0.0);
            rep.op(bad.then(|| format!("net {} {}: objective {obj}", inst.net, LABELS[m])));
            pass.sums[m] += obj;
        }
        pass.table.add(chip.nets[inst.net].sinks.len(), objs);
    }
    pass
}

fn builtin_oracles() -> [&'static dyn SteinerOracle; 4] {
    SteinerMethod::ALL.map(SteinerMethod::oracle)
}

pub fn run(args: &Args, dir: &Path, rep: &mut Report) -> Result<(), String> {
    let cfg = harvest_config();
    if args.trace {
        return traced_run(args, &crate::input_path(dir, "c3", 0), &cfg, rep);
    }
    let oracles = builtin_oracles();
    let mut workspaces: [OracleWorkspace; 4] = Default::default();
    let (mut setup, mut instance_s) = (Samples::default(), Samples::default());
    let mut quality = Vec::new();
    // Every chip is harvested (set-up and the quality metrics); the
    // replay, which costs ~30 harvests per chip, runs on the first few.
    for chip_no in 0..crate::CHIPS_PER_RUN {
        let h = harvest(&crate::input_path(dir, "c3", chip_no), &cfg, rep)?;
        setup.push(h.setup_s);
        quality.push(crate::quality(&h.out));
        if chip_no < args.chips(CHIP_S) {
            let pass = replay_pass(&h, &oracles, &mut workspaces, rep);
            instance_s.0.extend(pass.instance_s.0);
        }
    }
    println!("setup_s (read, new, harvest route): {}", setup.describe(1.0, "s"));
    println!("instance replay (4 oracles): {}", instance_s.describe(1e3, "ms"));
    rep.set("setup_s", setup.median());
    rep.set("op_ms", instance_s.median() * 1e3);
    rep.set_quality(&quality);
    Ok(())
}

/// The traced run on the first chip: an untraced pass, then a pass with
/// every oracle wrapped (baselines also rebuild their plane topology,
/// timed apart, so the embedding's share is what remains).
fn traced_run(
    args: &Args,
    path: &Path,
    cfg: &RouterConfig,
    rep: &mut Report,
) -> Result<(), String> {
    const RUN: u32 = 1;
    let tracer = Arc::new(Tracer::new());
    let h = harvest(path, cfg, rep)?;
    rep.set("instgen.read_s", h.read_s);
    rep.set("instgen.records", h.streamed.stats.records as f64);
    rep.set("router.new_s", h.new_s);
    rep.set_quality(&[crate::quality(&h.out)]);
    let mut workspaces: [OracleWorkspace; 4] = Default::default();
    let plain = replay_pass(&h, &builtin_oracles(), &mut workspaces, rep);

    let pass_id = tracer.reserve();
    let parent = Arc::new(AtomicU64::new(pass_id));
    let topo = [Some(PlaneTopo::L1), Some(PlaneTopo::Sl), Some(PlaneTopo::Pd), None];
    let counters: [Arc<CallCounters>; 4] = Default::default();
    let wrapped: Vec<TracedOracle> = (0..4)
        .map(|m| TracedOracle {
            inner: SteinerMethod::ALL[m].oracle(),
            tracer: Arc::clone(&tracer),
            span_name: SPANS[m],
            run: RUN,
            parent: Arc::clone(&parent),
            counters: Arc::clone(&counters[m]),
            topo: topo[m],
        })
        .collect();
    let oracles: [&dyn SteinerOracle; 4] = [&wrapped[0], &wrapped[1], &wrapped[2], &wrapped[3]];
    let start = tracer.now_us();
    let traced = replay_pass(&h, &oracles, &mut workspaces, rep);
    tracer.record(pass_id, None, "replay.pass", RUN, start, tracer.now_us());
    for ((label, a), b) in LABELS.iter().zip(plain.sums).zip(traced.sums) {
        if a.to_bits() != b.to_bits() {
            rep.fail(format!("{label} summed objective differs across passes: {a} vs {b}"));
        }
    }

    let spans = tracer.spans();
    let per_method: Vec<Samples> = SPANS
        .iter()
        .map(|&n| Samples(spans.iter().filter(|s| s.name == n).map(|s| s.dur_s()).collect()))
        .collect();
    for (span, calls) in SPANS.iter().zip(&per_method) {
        rep.set(format!("{span}_s"), calls.sum());
        println!("{span} calls: {}", calls.describe(1e3, "ms"));
    }
    rep.set("replay.cd_call_p90_ms", per_method[3].pct(90.0) * 1e3);
    rep.set("replay.pd_call_p90_ms", per_method[2].pct(90.0) * 1e3);
    let cd_calls = counters[3].calls.load(Ordering::Relaxed).max(1) as f64;
    rep.set(
        "replay.cd_settled_per_call",
        counters[3].settled.load(Ordering::Relaxed) as f64 / cd_calls,
    );
    let topo_s: f64 =
        counters.iter().map(|c| c.topo_ns.load(Ordering::Relaxed) as f64 * 1e-9).sum();
    let baseline_s: f64 = per_method[..3].iter().map(Samples::sum).sum();
    rep.set("replay.topo_s", topo_s);
    rep.set("replay.embed_s", baseline_s - topo_s);
    set_gaps(rep, &plain.table);
    println!(
        "replay passes: untraced {:.3} s, traced {:.3} s",
        plain.instance_s.sum(),
        traced.instance_s.sum()
    );
    tracer.write(args)
}

/// Table I: per oracle and sink bucket, the average objective increase
/// over the best of the four, in percent.
fn set_gaps(rep: &mut Report, t: &InstanceTable) {
    let total: usize = t.count.iter().sum();
    rep.set("replay.instances", total as f64);
    for (m, label) in LABELS.iter().enumerate() {
        for (b, bucket) in BUCKETS.iter().enumerate() {
            let gap = t.incr[b][m] / t.count[b].max(1) as f64;
            rep.set(format!("replay.{label}_gap_pct.{bucket}"), gap * 100.0);
        }
        let all: f64 = t.incr.iter().map(|bucket| bucket[m]).sum();
        rep.set(format!("replay.{label}_gap_pct.all"), all / total.max(1) as f64 * 100.0);
    }
}
