//! The benchmark's declared workloads and metrics — the single source of
//! `BENCHMARK.json` (`--write-manifest`) — and the JSON result line.

use crate::{Args, Report};
use std::fmt::Write as _;

/// Workload names with the reason each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "route_c8",
        "c8@800 (1,176 nets, 50x50x15) routed by CD on 2 threads: the CD search kernel does most \
         of the work and the router loop's serial share (merge, ledger, STA, pricing) shows",
    ),
    (
        "replay_c3",
        "all harvested c3@800 instances replayed through the four oracles (Table I): embed, rsmt \
         and baselines do ~98% of the work, the control a kernel-only change must leave unmoved",
    ),
    (
        "serve_mixed",
        "in-process cds-serve, 2 workers, 2 closed-loop clients submitting c1-c4 cold and then as \
         cache hits: the only workload that exercises the HTTP, queue and cache layers",
    ),
];

/// End-to-end metrics: (name, unit, better, bound). Every workload
/// reports every one of them; what "operation" and "route" mean per
/// workload is documented in README.md.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
    ("ok_pct", "%", "higher", 0.01),
    ("op_ms", "ms", "lower", 0.25),
    ("ace4_pct", "%", "lower", 0.25),
    ("wl_m", "m", "lower", 0.25),
];

/// Per-layer metrics of the traced run: (name, unit, better). A metric
/// of a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // route_c8 (instgen and router.new_s also on replay_c3)
    ("instgen.read_s", "s", "lower"),
    ("instgen.records", "count", "lower"),
    ("router.new_s", "s", "lower"),
    ("router.iter0_s", "s", "lower"),
    ("router.iter_incr_s", "s", "lower"),
    ("router.self_s", "s", "lower"),
    ("oracle.busy_s", "s", "lower"),
    ("oracle.util", "ratio", "higher"),
    ("oracle.call_p50_ms", "ms", "lower"),
    ("oracle.call_p99_ms", "ms", "lower"),
    ("router.t1_wall_s", "s", "lower"),
    ("router.speedup_2t", "ratio", "higher"),
    ("router.oracle_calls", "count", "lower"),
    ("router.rerouted_frac", "ratio", "lower"),
    ("router.dirty_overflow", "count", "lower"),
    ("router.dirty_timing", "count", "lower"),
    ("router.dirty_price", "count", "lower"),
    ("sta.nodes_retimed", "count", "lower"),
    ("topo.peak_arena_mib", "MiB", "lower"),
    ("core.settled_per_call", "count", "lower"),
    ("core.pushed_per_call", "count", "lower"),
    ("core.decreased_per_call", "count", "lower"),
    ("heap.bucket_scans_per_call", "count", "lower"),
    ("core.pops_per_settle", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    // every workload: mean −TNS of its routes (deterministic per seed)
    ("router.tns_ps", "ps", "lower"),
    // replay_c3
    ("replay.cd_s", "s", "lower"),
    ("replay.l1_s", "s", "lower"),
    ("replay.sl_s", "s", "lower"),
    ("replay.pd_s", "s", "lower"),
    ("replay.cd_call_p90_ms", "ms", "lower"),
    ("replay.pd_call_p90_ms", "ms", "lower"),
    ("replay.cd_settled_per_call", "count", "lower"),
    ("replay.topo_s", "s", "lower"),
    ("replay.embed_s", "s", "lower"),
    ("replay.instances", "count", "higher"),
    ("replay.l1_gap_pct.b3_5", "%", "lower"),
    ("replay.l1_gap_pct.b6_14", "%", "lower"),
    ("replay.l1_gap_pct.b15_29", "%", "lower"),
    ("replay.l1_gap_pct.b30p", "%", "lower"),
    ("replay.l1_gap_pct.all", "%", "lower"),
    ("replay.sl_gap_pct.b3_5", "%", "lower"),
    ("replay.sl_gap_pct.b6_14", "%", "lower"),
    ("replay.sl_gap_pct.b15_29", "%", "lower"),
    ("replay.sl_gap_pct.b30p", "%", "lower"),
    ("replay.sl_gap_pct.all", "%", "lower"),
    ("replay.pd_gap_pct.b3_5", "%", "lower"),
    ("replay.pd_gap_pct.b6_14", "%", "lower"),
    ("replay.pd_gap_pct.b15_29", "%", "lower"),
    ("replay.pd_gap_pct.b30p", "%", "lower"),
    ("replay.pd_gap_pct.all", "%", "lower"),
    ("replay.cd_gap_pct.b3_5", "%", "lower"),
    ("replay.cd_gap_pct.b6_14", "%", "lower"),
    ("replay.cd_gap_pct.b15_29", "%", "lower"),
    ("replay.cd_gap_pct.b30p", "%", "lower"),
    ("replay.cd_gap_pct.all", "%", "lower"),
    // serve_mixed
    ("serve.healthz_ms", "ms", "lower"),
    ("serve.submit_hit_ms", "ms", "lower"),
    ("serve.fetch_ms", "ms", "lower"),
    ("serve.hit_p99_ms", "ms", "lower"),
    ("serve.cold_p50_s", "s", "lower"),
    ("serve.cold_route_s", "s", "lower"),
    ("serve.cold_wait_s", "s", "lower"),
    ("serve.polls_per_cold", "count", "lower"),
    ("serve.cache_hits", "count", "higher"),
];

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
          \"--manifest-path\", \"routerbench/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"routerbench\"],\n";
    s += "  \"run_seconds\": 30,\n";
    s += "  \"workloads\": [\n";
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": {}, \"why\": {}}}{sep}", quoted(name), quoted(why));
    }
    s += "  ],\n  \"end_to_end\": [\n";
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}{sep}",
            quoted(name),
            quoted(unit),
            quoted(better)
        );
    }
    s += "  ],\n  \"per_layer\": [\n";
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            quoted(name),
            quoted(unit),
            quoted(better)
        );
    }
    s += "  ]\n}\n";
    s
}

/// Prints the human-readable metric lines and returns the JSON result
/// line: the end-to-end metrics for an untraced run, the per-layer
/// metrics for a traced one.
pub fn result_line(args: &Args, rep: &Report) -> Result<String, String> {
    let declared: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
    };
    let known = |n: &str| END_TO_END.iter().any(|m| m.0 == n) || PER_LAYER.iter().any(|m| m.0 == n);
    if let Some(stray) = rep.metrics.keys().find(|n| !known(n)) {
        return Err(format!("metric {stray} is not declared in the manifest"));
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = match rep.metrics.get(*name) {
            Some(&v) => v,
            // a layer this workload does not exercise did no work
            None if args.trace => 0.0,
            None => {
                return Err(format!("{}: end-to-end metric {name} not measured", args.workload))
            }
        };
        if !value.is_finite() {
            return Err(format!("{}: metric {name} is not finite ({value})", args.workload));
        }
        println!("{:<30} {value:>16.6} {unit}", name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed
    ))
}
