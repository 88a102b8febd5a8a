//! End-to-end daemon tests: every test boots its own server on an
//! ephemeral port and talks real HTTP over loopback.
//!
//! The determinism assertions lean on the repo's pinned goldens
//! (`tests/fixtures/*.expect`): a result produced through the service —
//! warm workers, queueing, interleaved jobs and all — must carry the
//! same checksum as a cold `cds-cli route` of the same document.

use cds_instgen::io::doc::{chip_doc_to_string, parse_chip_doc, ChipDoc};
use cds_instgen::ChipSpec;
use cds_router::report::outcome_json;
use cds_router::{Router, RouterConfig};
use cds_serve::client::{self, json_bool, json_str, json_u64};
use cds_serve::{ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const POLL: Duration = Duration::from_millis(2);

fn fixture(name: &str) -> String {
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn pinned_checksum(name: &str) -> String {
    fixture(name).trim().to_string()
}

/// The CI smoke chip, byte-identical to `cds-cli gen --preset smoke`.
fn smoke_doc() -> String {
    let spec = ChipSpec { name: "smoke".into(), num_nets: 40, ..ChipSpec::small_test(44) };
    chip_doc_to_string(&ChipDoc::from_chip(&spec.generate()).unwrap()).unwrap()
}

fn small_doc() -> String {
    let spec = ChipSpec::small_test(1);
    chip_doc_to_string(&ChipDoc::from_chip(&spec.generate()).unwrap()).unwrap()
}

fn start(config: ServeConfig) -> (cds_serve::ServerHandle, String) {
    let handle = Server::start(config).expect("server starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// Zeroes the wall-clock and arena observability fields — the only
/// JSON fields that legitimately differ between two runs of the same
/// submission (a warm worker's arenas can be pre-grown by prior jobs).
fn normalize(json: &str) -> String {
    let mut s = json.to_string();
    for key in ["walltime_s", "wall_s", "route_wall_s", "peak_arena_bytes"] {
        s = blank_value(&s, key, &[',', '}']);
    }
    blank_value(&s, "iter_wall_s", &[']'])
}

fn blank_value(json: &str, key: &str, stops: &[char]) -> String {
    let needle = format!("\"{key}\": ");
    let mut out = String::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        let val_start = at + needle.len();
        out.push_str(&rest[..val_start]);
        let tail = &rest[val_start..];
        let end = tail.find(|c| stops.contains(&c)).unwrap_or(tail.len());
        out.push('0');
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn submitted_result_matches_local_route_and_smoke_pin() {
    let (handle, addr) = start(ServeConfig::default());
    let doc_text = smoke_doc();
    let res = client::submit_and_wait(&addr, &doc_text, "", POLL).expect("job completes");
    assert_eq!(res.state, "done");
    assert!(!res.cached);
    assert_eq!(res.checksum, pinned_checksum("smoke_cd.expect"), "smoke golden");

    // the same route, computed locally with the library — the HTTP
    // result must be the same bytes modulo wall clocks
    let doc = parse_chip_doc(&doc_text).unwrap();
    let chip = doc.build_chip();
    let config = RouterConfig::default();
    let local = Router::new(&chip, config.clone()).run();
    let local_json = outcome_json(&chip, &config, &local);
    assert_eq!(normalize(&res.result_json), normalize(&local_json));
    handle.shutdown();
}

#[test]
fn resubmission_hits_cache_with_identical_bytes() {
    let (handle, addr) = start(ServeConfig::default());
    let doc = smoke_doc();
    let first = client::submit_and_wait(&addr, &doc, "", POLL).unwrap();
    let again = client::submit_and_wait(&addr, &doc, "", POLL).unwrap();
    assert!(!first.cached);
    assert!(again.cached, "identical resubmission must hit the cache");
    // archived bytes, not a re-render: literally identical, wall
    // clocks included
    assert_eq!(first.result_json, again.result_json);
    assert!(
        again.latency_s < 1.0,
        "cache hit took {:.3}s — it must not route anything",
        again.latency_s
    );
    // the hit is observable on the wire too
    let resp = client::request(&addr, "GET", &format!("/jobs/{}/result", again.job), b"").unwrap();
    assert_eq!(resp.header("X-Cds-Cached"), Some("true"));
    let report = handle.shutdown();
    assert_eq!((report.cache_hits, report.cache_misses), (1, 1));
}

#[test]
fn warm_worker_reuse_matches_cold_pins_across_interleaved_jobs() {
    // one worker → every job reuses the same warm workspaces; distinct
    // `threads` overrides give distinct cache keys (so each submission
    // really routes) while the pinned checksums are thread-invariant
    let (handle, addr) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let smoke = smoke_doc();
    let other = small_doc();
    let smoke_pin = pinned_checksum("smoke_cd.expect");
    let mut small_checksums = Vec::new();
    for round in 1..=3u32 {
        let query = format!("?threads={round}");
        let res = client::submit_and_wait(&addr, &smoke, &query, POLL).unwrap();
        assert!(!res.cached, "threads={round} must be a fresh cache key");
        assert_eq!(res.checksum, smoke_pin, "warm round {round} diverged from the cold pin");
        let res = client::submit_and_wait(&addr, &other, &query, POLL).unwrap();
        small_checksums.push(res.checksum);
    }
    assert_eq!(small_checksums[0], small_checksums[1]);
    assert_eq!(small_checksums[1], small_checksums[2]);

    // and a fixture recorded by an earlier PR, routed at its pinned
    // configuration, through the same warm worker
    let fanout = fixture("fanout_heavy.cdst");
    let res = client::submit_and_wait(&addr, &fanout, "?iterations=3", POLL).unwrap();
    assert_eq!(res.checksum, pinned_checksum("fanout_heavy_cd.expect"), "fanout_heavy golden");
    handle.shutdown();
}

#[test]
fn malformed_request_line_gets_400() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"NOT-AN-HTTP-REQUEST\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let resp = cds_serve::http::read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("malformed request line"));
    handle.shutdown();
}

#[test]
fn oversized_body_gets_413_before_any_parsing() {
    let (handle, addr) =
        start(ServeConfig { workers: 0, max_body: 1024, ..ServeConfig::default() });
    let huge = "x".repeat(4096);
    let resp = client::request(&addr, "POST", "/jobs", huge.as_bytes()).unwrap();
    assert_eq!(resp.status, 413);
    assert!(resp.text().contains("exceeds the 1024-byte limit"));
    handle.shutdown();
}

#[test]
fn truncated_document_gets_400_with_line_number() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let doc = smoke_doc();
    // keep 5 good lines, then inject a line the parser must reject
    let mut mangled: Vec<&str> = doc.lines().take(5).collect();
    mangled.push("garbage tokens that are not a cdst/1 record");
    let body = mangled.join("\n");
    let resp = client::request(&addr, "POST", "/jobs", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    let text = resp.text();
    assert_eq!(json_u64(&text, "line"), Some(6), "1-based error line in: {text}");
    assert!(text.contains("line 6"), "Display line number in: {text}");
    handle.shutdown();
}

#[test]
fn unknown_jobs_and_methods_get_404_and_405() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    for path in ["/jobs/999", "/jobs/999/result", "/jobs/notanumber"] {
        let resp = client::request(&addr, "GET", path, b"").unwrap();
        assert_eq!(resp.status, 404, "GET {path}");
    }
    let resp = client::request(&addr, "PUT", "/jobs", b"").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client::request(&addr, "GET", "/nope", b"").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json_bool(&resp.text(), "ok"), Some(true));
    handle.shutdown();
}

#[test]
fn double_cancel_is_idempotent_and_queued_jobs_never_run() {
    // no workers: the job stays queued until cancelled
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let resp = client::request(&addr, "POST", "/jobs", smoke_doc().as_bytes()).unwrap();
    assert_eq!(resp.status, 201);
    let job = json_u64(&resp.text(), "job").unwrap();
    for _ in 0..2 {
        let resp = client::request(&addr, "DELETE", &format!("/jobs/{job}"), b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(json_str(&resp.text(), "state"), Some("cancelled"));
    }
    let resp = client::request(&addr, "GET", &format!("/jobs/{job}/result"), b"").unwrap();
    assert_eq!(resp.status, 409, "a never-run job has no result");
    let report = handle.shutdown();
    assert_eq!(report.cancelled, 1);
}

#[test]
fn full_queue_rejects_with_503() {
    let (handle, addr) = start(ServeConfig { workers: 0, queue_cap: 2, ..ServeConfig::default() });
    let doc = smoke_doc();
    // distinct seeds → distinct cache keys, so nothing short-circuits
    for seed in 0..2 {
        let path = format!("/jobs?seed={seed}");
        let resp = client::request(&addr, "POST", &path, doc.as_bytes()).unwrap();
        assert_eq!(resp.status, 201);
    }
    let resp = client::request(&addr, "POST", "/jobs?seed=2", doc.as_bytes()).unwrap();
    assert_eq!(resp.status, 503);
    let text = resp.text();
    assert_eq!(json_u64(&text, "capacity"), Some(2), "backpressure body: {text}");
    handle.shutdown();
}

#[test]
fn cancelling_a_running_job_keeps_its_partial_result() {
    let (handle, addr) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    // a chip slow enough that cancellation lands mid-run: full
    // (non-incremental) reroutes of a congested 300-net chip
    let spec = ChipSpec {
        name: "converging".into(),
        num_nets: 300,
        utilization: 0.22,
        ..ChipSpec::small_test(5)
    };
    let doc = chip_doc_to_string(&ChipDoc::from_chip(&spec.generate()).unwrap()).unwrap();
    let resp =
        client::request(&addr, "POST", "/jobs?iterations=200&incremental=false", doc.as_bytes())
            .unwrap();
    assert_eq!(resp.status, 201);
    let job = json_u64(&resp.text(), "job").unwrap();
    // wait until it is demonstrably mid-run (≥1 iteration recorded)
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client::request(&addr, "GET", &format!("/jobs/{job}"), b"").unwrap();
        let text = resp.text();
        if json_u64(&text, "iterations_done").unwrap_or(0) >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "job never reached iteration 1: {text}");
        std::thread::sleep(POLL);
    }
    let resp = client::request(&addr, "DELETE", &format!("/jobs/{job}"), b"").unwrap();
    assert_eq!(resp.status, 200);
    let deadline = Instant::now() + Duration::from_secs(120);
    let final_state = loop {
        let resp = client::request(&addr, "GET", &format!("/jobs/{job}"), b"").unwrap();
        let text = resp.text();
        let state = json_str(&text, "state").unwrap().to_string();
        if state != "queued" && state != "running" {
            break state;
        }
        assert!(Instant::now() < deadline, "job never terminated: {text}");
        std::thread::sleep(POLL);
    };
    assert_eq!(final_state, "cancelled");
    let resp = client::request(&addr, "GET", &format!("/jobs/{job}/result"), b"").unwrap();
    assert_eq!(resp.status, 200, "a cancelled run still has its partial outcome");
    let text = resp.text();
    assert!(text.contains("\"cancelled\": true"), "partial result is marked: {text}");
    // far fewer than the requested 200 iterations actually ran
    let done = json_u64(&text, "iterations_completed").unwrap();
    assert!((1..200).contains(&done), "iterations_completed = {done}");
    // partial results must not poison the cache: resubmitting routes
    // fresh and completes
    let resp =
        client::request(&addr, "POST", "/jobs?iterations=2&incremental=false", doc.as_bytes())
            .unwrap();
    assert_eq!(resp.status, 201, "different config, fresh key");
    handle.shutdown();
}

#[test]
fn duplicate_inflight_submission_attaches_to_the_running_job() {
    let (handle, addr) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    // slow enough (full reroutes, 300 nets) that the duplicate lands
    // while the first copy is demonstrably still running
    let spec = ChipSpec {
        name: "converging".into(),
        num_nets: 300,
        utilization: 0.22,
        ..ChipSpec::small_test(5)
    };
    let doc = chip_doc_to_string(&ChipDoc::from_chip(&spec.generate()).unwrap()).unwrap();
    let path = "/jobs?iterations=4&incremental=false";
    let resp = client::request(&addr, "POST", path, doc.as_bytes()).unwrap();
    assert_eq!(resp.status, 201);
    let job = json_u64(&resp.text(), "job").unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client::request(&addr, "GET", &format!("/jobs/{job}"), b"").unwrap();
        let text = resp.text();
        if json_str(&text, "state") == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running: {text}");
        std::thread::sleep(POLL);
    }
    // the identical submission coalesces onto the in-flight job
    let dup = client::request(&addr, "POST", path, doc.as_bytes()).unwrap();
    assert_eq!(dup.status, 200);
    let text = dup.text();
    assert_eq!(json_bool(&text, "coalesced"), Some(true), "attach body: {text}");
    assert_eq!(json_u64(&text, "job"), Some(job), "attached to the original job");
    // both clients poll the same job id; one route serves them both
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client::request(&addr, "GET", &format!("/jobs/{job}"), b"").unwrap();
        let text = resp.text();
        if json_str(&text, "state") == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline, "job never finished: {text}");
        std::thread::sleep(POLL);
    }
    let a = client::request(&addr, "GET", &format!("/jobs/{job}/result"), b"").unwrap();
    let b = client::request(&addr, "GET", &format!("/jobs/{job}/result"), b"").unwrap();
    assert_eq!(a.status, 200);
    assert_eq!(a.body, b.body, "attached clients must read identical bytes");
    // the attach is visible in the health counters
    let resp = client::request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(json_u64(&resp.text(), "coalesced"), Some(1));
    // and once the job is done, the cache takes over from coalescing
    let resp = client::request(&addr, "POST", path, doc.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json_bool(&resp.text(), "cached"), Some(true));
    handle.shutdown();
}

#[test]
fn shutdown_drains_every_accepted_job() {
    let (handle, addr) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let doc = smoke_doc();
    for seed in 0..3 {
        let path = format!("/jobs?seed={seed}");
        let resp = client::request(&addr, "POST", &path, doc.as_bytes()).unwrap();
        assert_eq!(resp.status, 201);
    }
    let report = handle.shutdown();
    assert_eq!(report.done, 3, "drain must finish queued jobs, not drop them: {report:?}");
    assert_eq!((report.cancelled, report.failed), (0, 0));
}

#[test]
fn unknown_query_knob_is_rejected_up_front() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let resp = client::request(&addr, "POST", "/jobs?bogus=1", smoke_doc().as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("unknown router knob"));
    handle.shutdown();
}

// ---- drain and HTTP-layer robustness -------------------------------
//
// Wall time below is only a hang watchdog: a call that should return
// at once is given `WATCHDOG`, and the test fails if it is still
// blocked then. No test asserts how fast anything is.

const WATCHDOG: Duration = Duration::from_secs(10);

/// Runs `f` on its own thread and returns its value, failing the test
/// if `f` is still blocked after [`WATCHDOG`].
fn within_watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => v,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what} still blocked after {WATCHDOG:?}")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// An address clients can dial for any bind address: a daemon bound
/// to `0.0.0.0` accepts on loopback, while dialing `0.0.0.0` itself is
/// not portable.
fn loopback(handle: &cds_serve::ServerHandle) -> String {
    format!("127.0.0.1:{}", handle.addr().port())
}

fn healthz_ok(addr: &str) -> bool {
    client::request(addr, "GET", "/healthz", b"")
        .is_ok_and(|r| r.status == 200 && json_bool(&r.text(), "ok") == Some(true))
}

#[test]
fn handle_shutdown_of_an_idle_daemon_never_hangs() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let (handle, _) = start(ServeConfig { addr: bind.into(), ..ServeConfig::default() });
        let addr = loopback(&handle);
        assert!(healthz_ok(&addr), "{bind}: daemon answers before the drain");
        // the acceptor is now parked in a blocking accept with nothing
        // in flight: only the drain's wake connection can free it
        let report = within_watchdog("ServerHandle::shutdown", move || handle.shutdown());
        assert_eq!((report.done, report.cancelled, report.failed), (0, 0, 0), "{bind}");
    }
}

#[test]
fn http_shutdown_of_an_idle_daemon_never_hangs() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let (handle, _) = start(ServeConfig { addr: bind.into(), ..ServeConfig::default() });
        let addr = loopback(&handle);
        let resp = client::request(&addr, "POST", "/shutdown", b"").unwrap();
        assert_eq!(resp.status, 200, "{bind}");
        assert_eq!(json_bool(&resp.text(), "draining"), Some(true));
        // no client connects again: the acceptor must leave its
        // blocking accept through the drain's own wake connection
        let report = within_watchdog("ServerHandle::wait", move || handle.wait());
        assert_eq!((report.done, report.failed), (0, 0), "{bind}");
    }
}

#[test]
fn connection_made_after_the_drain_began_is_not_served() {
    let (handle, addr) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let doc = smoke_doc();
    for seed in 0..3 {
        let resp = client::request(&addr, "POST", &format!("/jobs?seed={seed}"), doc.as_bytes());
        assert_eq!(resp.unwrap().status, 201);
    }
    let resp = client::request(&addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(resp.status, 200);
    // the drain began before that reply was written, and the worker
    // may still be routing: a new connection may be refused or reset,
    // but never answered
    let late = within_watchdog("post-drain request", move || {
        client::request(&addr, "GET", "/healthz", b"")
    });
    assert!(late.is_err(), "a connection made after the drain began was served: {late:?}");
    // no watchdog: this wait includes the routes (the idle tests above
    // cover a drain that hangs)
    let report = handle.wait();
    assert_eq!(report.done, 3, "accepted jobs still complete: {report:?}");
}

#[test]
fn stalled_connection_does_not_delay_other_clients() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    // one peer that connects and sends nothing, one that stops in the
    // middle of its headers; each pins only its own handler thread
    let silent = TcpStream::connect(&addr).unwrap();
    let mut half = TcpStream::connect(&addr).unwrap();
    half.write_all(b"GET /healthz HTTP/1.1\r\nHost: x").unwrap();
    let probe = addr.clone();
    assert!(within_watchdog("healthz beside stalled peers", move || healthz_ok(&probe)));
    // closing the stalled peers ends their handlers (EOF), so the
    // drain does not wait out the read deadline
    drop((silent, half));
    within_watchdog("shutdown", move || handle.shutdown());
}

#[test]
fn client_that_disconnects_mid_body_leaves_the_daemon_healthy() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    let doc = smoke_doc();
    // announce the full document, send a tenth of it, hang up
    let mut stream = TcpStream::connect(&addr).unwrap();
    write!(stream, "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n", doc.len())
        .unwrap();
    stream.write_all(&doc.as_bytes()[..doc.len() / 10]).unwrap();
    drop(stream);
    let resp = client::request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(resp.status, 200);
    let text = resp.text();
    assert_eq!(json_u64(&text, "jobs"), Some(0), "a partial body created a job: {text}");
    // the next complete submission is parsed from a clean slate
    let resp = client::request(&addr, "POST", "/jobs", doc.as_bytes()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    within_watchdog("shutdown", move || handle.shutdown());
}

#[test]
fn client_that_disconnects_before_reading_leaves_the_daemon_healthy() {
    let (handle, addr) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let first = client::submit_and_wait(&addr, &smoke_doc(), "", POLL).unwrap();
    assert_eq!(first.state, "done");
    let path = format!("/jobs/{}/result", first.job);
    // each request is complete, then the client hangs up at once, so
    // the handler writes its response into a closed connection
    for _ in 0..20 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        drop(stream);
    }
    assert!(healthz_ok(&addr));
    let again = client::request(&addr, "GET", &path, b"").unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(again.text(), first.result_json, "the archived result is unchanged");
    let report = within_watchdog("shutdown", move || handle.shutdown());
    assert_eq!((report.done, report.failed), (1, 0));
}

#[test]
fn pipelined_requests_get_one_answer_then_the_connection_closes() {
    let (handle, addr) = start(ServeConfig { workers: 0, ..ServeConfig::default() });
    // no workers: this job stays queued unless something cancels it
    let resp = client::request(&addr, "POST", "/jobs", smoke_doc().as_bytes()).unwrap();
    assert_eq!(resp.status, 201);
    let job = json_u64(&resp.text(), "job").unwrap();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let pipelined = format!(
        "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nDELETE /jobs/{job} HTTP/1.1\r\nHost: x\r\n\r\n"
    );
    stream.write_all(pipelined.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let first = cds_serve::http::read_response(&mut reader).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("Connection"), Some("close"));
    assert_eq!(json_bool(&first.text(), "ok"), Some(true), "the first request is answered");
    // then the server closes: EOF (or a reset), never a second response
    let mut rest = Vec::new();
    let _ = std::io::Read::read_to_end(&mut reader, &mut rest);
    assert!(rest.is_empty(), "a second response arrived: {}", String::from_utf8_lossy(&rest));
    // and the second request never ran
    let resp = client::request(&addr, "GET", &format!("/jobs/{job}"), b"").unwrap();
    assert_eq!(json_str(&resp.text(), "state"), Some("queued"));
    within_watchdog("shutdown", move || handle.shutdown());
}
