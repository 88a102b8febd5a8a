//! `serve_mixed`: an in-process `cds-serve` with 2 workers, each job at
//! `?threads=1`, driven as a closed loop by 2 client threads. Each round
//! starts a server, submits every distinct (document c1–c4, config) pair
//! once (cold), then resubmits the same pairs (cache hits).

use crate::trace::Tracer;
use crate::{Args, Report, Samples};
use cds_instgen::io::doc::parse_chip_doc;
use cds_router::{Router, RouterConfig};
use cds_serve::client::{json_str, json_u64, request, request_retry};
use cds_serve::{submit_and_wait, ServeConfig, Server, ServerHandle};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The two configurations every document is submitted with.
const QUERIES: [&str; 2] = ["?threads=1", "?threads=1&use_dbif=1"];
const CLIENTS: usize = 2;
const POLL: Duration = Duration::from_millis(5);
/// Cache-hit resubmits per pair in the traced run (a fixed count, so the
/// server's hit counter repeats exactly).
const TRACED_HITS_PER_PAIR: usize = 10;

/// One distinct submission and what an in-process route of it gives.
struct Pair {
    doc: String,
    query: &'static str,
    checksum: String,
    quality: [f64; 3],
}

/// Routes every pair in-process (`Router::run`, same document and
/// config) for the reference checksums.
fn pairs(dir: &Path) -> Result<Vec<Pair>, String> {
    let mut out = Vec::new();
    for name in ["c1", "c2", "c3", "c4"] {
        let path = crate::input_path(dir, name, 0);
        let doc =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        for query in QUERIES {
            out.push(Pair { doc: doc.clone(), query, checksum: String::new(), quality: [0.0; 3] });
        }
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Routed>> =
        out.iter().map(|_| Mutex::new(Err("not routed".into()))).collect();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(p) = out.get(i) else { break };
                *slots[i].lock().expect("reference slot poisoned") = reference(p);
            });
        }
    });
    for (p, slot) in out.iter_mut().zip(slots) {
        let (checksum, quality) = slot.into_inner().expect("reference slot poisoned")?;
        p.checksum = checksum;
        p.quality = quality;
    }
    Ok(out)
}

/// A reference route's checksum and (−TNS, ACE4, wirelength).
type Routed = Result<(String, [f64; 3]), String>;

fn reference(p: &Pair) -> Routed {
    let doc = parse_chip_doc(&p.doc).map_err(|e| e.to_string())?;
    let mut config = RouterConfig::default();
    for (k, v) in &doc.config {
        config.set_knob(k, v)?;
    }
    for kv in p.query.trim_start_matches('?').split('&') {
        let (k, v) = kv.split_once('=').ok_or("malformed query")?;
        config.set_knob(k, v)?;
    }
    let chip = doc.build_chip();
    let out = Router::new(&chip, config).run();
    Ok((format!("{:#018x}", out.checksum()), crate::quality(&out)))
}

/// Server start-ups per run beyond the rounds' own (`setup_s` is the
/// median of all of them).
const EXTRA_STARTS: usize = 60;
/// Rounds per untraced run; the hits of each fill about a quarter of
/// `--seconds`.
const ROUNDS: usize = 3;
/// Rough seconds per cache hit with 2 clients (sizes the hit phase: a
/// fixed count, so the server's job table ends the same size every run).
const HIT_S: f64 = 0.0053;

/// Starts a server (timed: bind and spawn) and waits until `/healthz`
/// answers (not timed: that is the acceptor's latency, not set-up).
fn start_server() -> Result<(ServerHandle, String, f64), String> {
    let t = Instant::now();
    let handle = Server::start(ServeConfig { workers: 2, ..ServeConfig::default() })?;
    let start_s = t.elapsed().as_secs_f64();
    let addr = handle.addr().to_string();
    let resp = request_retry(&addr, "GET", "/healthz", b"", Duration::from_secs(10))?;
    if resp.status != 200 {
        return Err(format!("healthz: HTTP {}", resp.status));
    }
    Ok((handle, addr, start_s))
}

/// What one untraced round measured.
#[derive(Default)]
struct Round {
    cold_s: Samples,
    hit_s: Samples,
    hits: u64,
    hit_wall_s: f64,
}

/// Runs `f(pair index)` from `CLIENTS` closed-loop client threads over
/// the indices `next()` hands out, until it returns `None`.
fn closed_loop<T: Send>(
    next: impl Fn() -> Option<usize> + Sync,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<(usize, T)> {
    let results = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while let Some(i) = next() {
                    let r = f(i);
                    results.lock().expect("client results poisoned").push((i, r));
                }
            });
        }
    });
    results.into_inner().expect("client results poisoned")
}

/// Hands out `total` pair indices, cycling through `pairs` pairs.
fn cycle(cursor: &AtomicUsize, total: usize, pairs: usize) -> Option<usize> {
    let i = cursor.fetch_add(1, Ordering::Relaxed);
    (i < total).then_some(i % pairs)
}

/// Checks a submission's outcome against its pair; one operation.
fn check_job(
    rep: &mut Report,
    pair: &Pair,
    cold_body: Option<&str>,
    cached: bool,
    body: &str,
    checksum: &str,
) {
    let want_cached = cold_body.is_some();
    let problem = if cached != want_cached {
        Some(format!("{}: cached={cached}, expected {want_cached}", pair.query))
    } else if checksum != pair.checksum {
        Some(format!("checksum {checksum} differs from in-process {}", pair.checksum))
    } else if cold_body.is_some_and(|c| c != body) {
        Some("cache-hit body differs from the cold result".to_string())
    } else {
        None
    };
    rep.op(problem);
}

/// One untraced round: the cold phase, then `n_hits` cache hits.
fn round(pairs: &[Pair], n_hits: usize, rep: &mut Report) -> Result<(Round, f64), String> {
    let (handle, addr, setup) = start_server()?;
    let mut r = Round::default();
    let cursor = AtomicUsize::new(0);
    let cold = closed_loop(
        || cycle(&cursor, pairs.len(), pairs.len()),
        |i| submit_and_wait(&addr, &pairs[i].doc, pairs[i].query, POLL),
    );
    let mut bodies = vec![String::new(); pairs.len()];
    for (i, res) in cold {
        match res {
            Ok(j) => {
                r.cold_s.push(j.latency_s);
                check_job(rep, &pairs[i], None, j.cached, &j.result_json, &j.checksum);
                bodies[i] = j.result_json;
            }
            Err(e) => rep.op(Some(format!("cold submit: {e}"))),
        }
    }
    let start = Instant::now();
    let cursor = AtomicUsize::new(0);
    let hits = closed_loop(
        || cycle(&cursor, n_hits, pairs.len()),
        |i| submit_and_wait(&addr, &pairs[i].doc, pairs[i].query, POLL),
    );
    r.hit_wall_s = start.elapsed().as_secs_f64();
    for (i, res) in hits {
        match res {
            Ok(j) => {
                r.hit_s.push(j.latency_s);
                r.hits += 1;
                check_job(rep, &pairs[i], Some(&bodies[i]), j.cached, &j.result_json, &j.checksum);
            }
            Err(e) => rep.op(Some(format!("hit submit: {e}"))),
        }
    }
    let drained = handle.shutdown();
    if drained.cache_hits != r.hits || drained.failed != 0 {
        rep.fail(format!(
            "server counted {} hits / {} failed jobs, clients saw {} hits",
            drained.cache_hits, drained.failed, r.hits
        ));
    }
    Ok((r, setup))
}

pub fn run(args: &Args, dir: &Path, rep: &mut Report) -> Result<(), String> {
    let pairs = pairs(dir)?;
    rep.set_quality(&pairs.iter().map(|p| p.quality).collect::<Vec<_>>());
    if args.trace {
        return traced_round(args, &pairs, rep);
    }
    let hits_per_round = ((args.seconds / 4.0 / HIT_S).round() as usize).max(pairs.len());
    let (mut setup, mut cold, mut hit) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut hits, mut hit_wall) = (0u64, 0.0);
    for _ in 0..EXTRA_STARTS {
        let (handle, _, s) = start_server()?;
        setup.push(s);
        handle.shutdown();
    }
    for _ in 0..ROUNDS {
        let (r, s) = round(&pairs, hits_per_round, rep)?;
        setup.push(s);
        cold.0.extend(r.cold_s.0);
        hit.0.extend(r.hit_s.0);
        hits += r.hits;
        hit_wall += r.hit_wall_s;
    }
    println!("setup_s (Server::start): {}", setup.describe(1.0, "s"));
    println!("cold_s: {}", cold.describe(1.0, "s"));
    println!("hit_ms: {}", hit.describe(1e3, "ms"));
    println!("hits_per_s: {:.2}", hits as f64 / hit_wall);
    rep.set("setup_s", setup.median());
    rep.set("op_ms", hit.median() * 1e3);
    Ok(())
}

/// Sum of the per-iteration `wall_s` entries of a job-status body.
fn progress_wall_s(status: &str) -> f64 {
    status
        .split("\"wall_s\": ")
        .skip(1)
        .filter_map(|t| {
            let end = t.find(|c: char| c != '.' && c != '-' && c != 'e' && !c.is_ascii_digit())?;
            t[..end].parse::<f64>().ok()
        })
        .sum()
}

/// The traced round: the same closed loop with a fixed number of cache
/// hits, each HTTP call in its own span (`pid` 1 in the trace).
fn traced_round(args: &Args, pairs: &[Pair], rep: &mut Report) -> Result<(), String> {
    const RUN: u32 = 1;
    let tracer = Tracer::new();
    let (started, _) = tracer.span("serve.start", None, RUN, |_| start_server());
    let (handle, addr, _) = started?;
    let mut healthz = Samples::default();
    for _ in 0..20 {
        let (resp, s) =
            tracer.span("serve.healthz", None, RUN, |_| request(&addr, "GET", "/healthz", b""));
        healthz.push(s);
        let status = resp?.status;
        rep.op((status != 200).then(|| format!("healthz: HTTP {status}")));
    }
    let submit = |i: usize, parent: u64| -> Result<((u64, bool), f64), String> {
        let (resp, s) = tracer.span("serve.submit", Some(parent), RUN, |_| {
            request(&addr, "POST", &format!("/jobs{}", pairs[i].query), pairs[i].doc.as_bytes())
        });
        let body = resp?.text();
        let job = json_u64(&body, "job").ok_or_else(|| format!("submit: {body}"))?;
        Ok(((job, body.contains("\"cached\": true")), s))
    };
    let fetch = |job: u64, parent: u64| -> Result<(String, f64), String> {
        let (resp, s) = tracer.span("serve.fetch", Some(parent), RUN, |_| {
            request(&addr, "GET", &format!("/jobs/{job}/result"), b"")
        });
        Ok((resp?.text(), s))
    };
    // cold: submit, poll the status until done, fetch
    let cursor = AtomicUsize::new(0);
    let cold = closed_loop(
        || cycle(&cursor, pairs.len(), pairs.len()),
        |i| {
            tracer.span("serve.cold_job", None, RUN, |id| -> Result<_, String> {
                let ((job, cached), _) = submit(i, id)?;
                let mut polls = 0;
                let status = loop {
                    std::thread::sleep(POLL);
                    polls += 1;
                    let (resp, _) = tracer.span("serve.poll", Some(id), RUN, |_| {
                        request(&addr, "GET", &format!("/jobs/{job}"), b"")
                    });
                    let s = resp?.text();
                    if !matches!(json_str(&s, "state"), Some("queued" | "running")) {
                        break s;
                    }
                };
                let (body, _) = fetch(job, id)?;
                Ok((cached, body, progress_wall_s(&status), polls))
            })
        },
    );
    let [mut cold_s, mut route_s, mut wait_s]: [Samples; 3] = Default::default();
    let mut polls = 0;
    let mut bodies = vec![String::new(); pairs.len()];
    for (i, (res, latency)) in cold {
        let (cached, body, route, n) = res?;
        let checksum = json_str(&body, "checksum").unwrap_or("");
        check_job(rep, &pairs[i], None, cached, &body, checksum);
        cold_s.push(latency);
        route_s.push(route);
        wait_s.push(latency - route);
        polls += n;
        bodies[i] = body;
    }
    // hits: a fixed number per pair
    let cursor = AtomicUsize::new(0);
    let total = pairs.len() * TRACED_HITS_PER_PAIR;
    let hits = closed_loop(
        || cycle(&cursor, total, pairs.len()),
        |i| {
            tracer.span("serve.hit", None, RUN, |id| -> Result<_, String> {
                let ((job, cached), submit_s) = submit(i, id)?;
                let (body, fetch_s) = fetch(job, id)?;
                Ok((cached, body, submit_s, fetch_s))
            })
        },
    );
    let [mut submit_s, mut fetch_s, mut hit_s]: [Samples; 3] = Default::default();
    for (i, (res, latency)) in hits {
        let (cached, body, s, f) = res?;
        let checksum = json_str(&body, "checksum").unwrap_or("");
        check_job(rep, &pairs[i], Some(&bodies[i]), cached, &body, checksum);
        submit_s.push(s);
        fetch_s.push(f);
        hit_s.push(latency);
    }
    let (drained, _) = tracer.span("serve.shutdown", None, RUN, |_| handle.shutdown());
    println!("cold_s: {}", cold_s.describe(1.0, "s"));
    println!("hit_ms: {}", hit_s.describe(1e3, "ms"));
    rep.set("serve.healthz_ms", healthz.median() * 1e3);
    rep.set("serve.submit_hit_ms", submit_s.median() * 1e3);
    rep.set("serve.fetch_ms", fetch_s.median() * 1e3);
    rep.set("serve.hit_p99_ms", hit_s.pct(99.0) * 1e3);
    rep.set("serve.cold_p50_s", cold_s.median());
    rep.set("serve.cold_route_s", route_s.median());
    rep.set("serve.cold_wait_s", wait_s.median());
    rep.set("serve.polls_per_cold", polls as f64 / pairs.len() as f64);
    rep.set("serve.cache_hits", drained.cache_hits as f64);
    if drained.cache_hits != total as u64 {
        rep.fail(format!("server counted {} cache hits, expected {total}", drained.cache_hits));
    }
    tracer.write(args)
}
