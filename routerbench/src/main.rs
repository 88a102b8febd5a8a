//! The cdst router benchmark: one command per workload that measures the
//! end-to-end metrics (tracing off) or the per-layer metrics (a traced
//! run), checks that every output is correct, and prints one JSON result
//! line.
//!
//! ```text
//! cargo run --release --manifest-path routerbench/Cargo.toml -- \
//!     --workload route_c8 --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path routerbench/Cargo.toml -- --write-manifest
//! ```
//!
//! Inputs are the scaled Table III suite, `ChipSpec::paper_suite(800,
//! seed)`, generated by a child process and written as `cdst/1`
//! documents; the measured process only reads those documents. See
//! `README.md` for the workloads, the metrics and the held-out seed.

mod manifest;
mod replay;
mod route;
mod serve;
mod trace;

use cds_instgen::io::doc::{chip_doc_to_string, ChipDoc};
use cds_instgen::ChipSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Net-count divisor of the suite (Table III chips divided by 800).
pub const DIVISOR: usize = 800;

/// Most distinct chips a run of `route_c8` or `replay_c3` works through.
pub const CHIPS_PER_RUN: usize = 8;

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// How many distinct chips fill `--seconds` at `chip_s` seconds per
    /// chip (at least two). A fixed count per `--seconds`, not a
    /// deadline, so every run does the same work.
    pub fn chips(&self, chip_s: f64) -> usize {
        ((self.seconds / chip_s).round() as usize).clamp(2, CHIPS_PER_RUN)
    }
}

/// Everything one run measured: op counts, failures and metric values
/// by name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one operation, failed when `problem` is `Some`.
    pub fn op(&mut self, problem: Option<String>) {
        match problem {
            Some(p) => self.fail(p),
            None => self.attempted += 1,
        }
    }

    /// Counts a check violation as one more (failed) operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAIL: {why}");
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Sets the routing-quality metrics from per-route (−TNS, ACE4,
    /// wirelength) triples, averaged. TNS is reported per layer only:
    /// its seed-to-seed spread on c3 and c1–c4 is as wide as the largest
    /// bound an end-to-end metric may carry.
    pub fn set_quality(&mut self, routes: &[[f64; 3]]) {
        let mean = |k: usize| routes.iter().map(|q| q[k]).sum::<f64>() / routes.len() as f64;
        self.set("router.tns_ps", mean(0));
        self.set("ace4_pct", mean(1));
        self.set("wl_m", mean(2));
    }
}

/// (−TNS, ACE4, wirelength) of one routing outcome.
pub fn quality(out: &cds_router::RoutingOutcome) -> [f64; 3] {
    [-out.metrics.tns, out.metrics.ace4, out.metrics.wl_m]
}

/// Timing samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile (`p` in 0..=100); NaN when empty.
    pub fn pct(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// Median (mean of the two middle samples for even counts).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
        }
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.0.len() as f64
    }

    /// The median and the highest of p90/p99/p99.9 that has at least
    /// ten samples beyond it, with the sample count.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let n = self.0.len();
        let mut out = format!(
            "mean {:.4} {unit}, p50 {:.4} {unit}",
            self.mean() * scale,
            self.median() * scale
        );
        for p in [99.9, 99.0, 90.0] {
            if (n as f64) * (1.0 - p / 100.0) >= 10.0 {
                out += &format!(", p{p} {:.4} {unit}", self.pct(p) * scale);
                break;
            }
        }
        out + &format!(" (n={n})")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Scratch directory for this process's input documents and traces,
/// inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The suite chips a workload routes, and how many independent copies
/// of each (chip `n` of a run is generated from seed `seed * 64 + n`).
pub fn chips_of(workload: &str) -> Option<(&'static [&'static str], usize)> {
    match workload {
        "route_c8" => Some((&["c8"], CHIPS_PER_RUN)),
        "replay_c3" => Some((&["c3"], CHIPS_PER_RUN)),
        "serve_mixed" => Some((&["c1", "c2", "c3", "c4"], 1)),
        _ => None,
    }
}

/// Path of chip `name`, copy `n`, in the inputs directory.
pub fn input_path(dir: &Path, name: &str, n: usize) -> PathBuf {
    dir.join(format!("{name}-{n}.cdst"))
}

/// Writes the workload's suite chips as `cdst/1` documents into `dir`.
/// Runs in a child process so that generation never shows in the
/// measured process's peak memory.
fn generate_inputs(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let (names, copies) =
        chips_of(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for n in 0..copies {
        let suite_seed = seed.wrapping_mul(64).wrapping_add(n as u64);
        for spec in ChipSpec::paper_suite(DIVISOR, suite_seed) {
            if !names.contains(&spec.name.as_str()) {
                continue;
            }
            let doc = ChipDoc::from_chip(&spec.generate()).map_err(|e| e.to_string())?;
            let text = chip_doc_to_string(&doc).map_err(|e| e.to_string())?;
            let path = input_path(dir, &spec.name, n);
            std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Generates the inputs in a child process and returns their directory.
fn inputs_for(args: &Args) -> Result<PathBuf, String> {
    let dir = out_dir().join(format!("inputs-{}", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--gen-inputs", &args.workload, "--seed", &args.seed.to_string(), "--dir"])
        .arg(&dir)
        .status()
        .map_err(|e| format!("spawn input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }
    Ok(dir)
}

fn parse_args(argv: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        if key == "write-manifest" {
            map.insert(key.to_string(), String::new());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

fn run(argv: &[String]) -> Result<(), String> {
    let opts = parse_args(argv)?;
    let get = |k: &str| opts.get(k).ok_or_else(|| format!("missing --{k}"));
    if opts.contains_key("write-manifest") {
        return std::fs::write("BENCHMARK.json", manifest::benchmark_json())
            .map_err(|e| format!("write BENCHMARK.json: {e}"));
    }
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    if let Some(workload) = opts.get("gen-inputs") {
        return generate_inputs(workload, seed, Path::new(get("dir")?));
    }
    let args = Args {
        workload: get("workload")?.clone(),
        seed,
        seconds: get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace wants 0 or 1, not {t}")),
        },
    };
    if chips_of(&args.workload).is_none() {
        return Err(format!("unknown workload {}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let dir = inputs_for(&args)?;
    let mut rep = Report::default();
    let measured = match args.workload.as_str() {
        "route_c8" => route::run(&args, &dir, &mut rep),
        "replay_c3" => replay::run(&args, &dir, &mut rep),
        _ => serve::run(&args, &dir, &mut rep),
    };
    let _ = std::fs::remove_dir_all(&dir);
    measured?;
    rep.set("peak_rss_mib", peak_rss_mib());
    let ok_pct = 100.0 * (rep.attempted - rep.failed) as f64 / rep.attempted.max(1) as f64;
    rep.set("ok_pct", ok_pct);
    println!("{}", manifest::result_line(&args, &rep)?);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("routerbench: {e}");
            ExitCode::FAILURE
        }
    }
}
