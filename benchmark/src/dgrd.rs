//! A closed-loop HTTP client for `dgrd` (`dgr_daemon::Daemon`): each
//! client connection submits its next job only after the previous one
//! reaches a terminal state.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dgr_daemon::{Daemon, DaemonConfig};
use dgr_obs::parse::{parse_json, JsonValue};

use crate::chain::quality_score;

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Interval between `GET /jobs/{id}` polls.
const POLL: Duration = Duration::from_millis(10);
/// Prefix of the outcome of a submission the daemon did not accept.
pub const REFUSED: &str = "POST /jobs →";
/// A job that has not finished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Request-body cap: room for the route workloads' designs (~0.5 MB of
/// text) as `design_text`.
const MAX_BODY_BYTES: usize = 4 << 20;

/// Boots a daemon on an ephemeral localhost port with the default
/// configuration, [`WORKERS`] workers and a [`MAX_BODY_BYTES`] body cap.
pub fn start() -> Result<Daemon, String> {
    let cfg = DaemonConfig {
        workers: WORKERS,
        max_body_bytes: MAX_BODY_BYTES,
        ..DaemonConfig::default()
    };
    Daemon::start("127.0.0.1:0", cfg).map_err(|e| format!("dgrd start: {e}"))
}

/// One HTTP/1.1 exchange (`Connection: close`); returns status and body.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(msg.as_bytes())
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut resp = String::new();
    stream
        .read_to_string(&mut resp)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed response"))?;
    let body = resp
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, body))
}

/// A job the loop can submit: a label and its design text.
pub struct JobInput<'a> {
    /// Job label.
    pub label: &'a str,
    /// Design text sent as `design_text`.
    pub text: &'a str,
}

/// The `POST /jobs` body for `input`.
pub fn spec_json(input: &JobInput<'_>, iterations: usize, seed: u64) -> String {
    let mut o = dgr_obs::json::JsonObject::new();
    o.field_str("label", input.label);
    o.field_str("tenant", "bench");
    o.field_u64("iterations", iterations as u64);
    o.field_u64("seed", seed);
    o.field_str("design_text", input.text);
    o.finish()
}

/// What a finished job reported.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index into the loop's inputs.
    pub input: usize,
    /// Job id (0 if the submission was refused).
    pub id: u64,
    /// Submit request sent → terminal state observed, seconds.
    pub latency: f64,
    /// `POST /jobs` round trip, seconds.
    pub submit: f64,
    /// `started_unix_ms − submitted_unix_ms`, seconds.
    pub queue_wait: f64,
    /// `finished_unix_ms − started_unix_ms`, seconds.
    pub service: f64,
    /// `GET /jobs/{id}` requests issued.
    pub polls: u64,
    /// Quality score recomputed from the job's result, or why it failed.
    pub outcome: Result<f64, String>,
}

/// The whole loop's result.
pub struct LoopResult {
    /// Every attempted job, in completion order.
    pub jobs: Vec<JobRecord>,
    /// First submission → last terminal state, seconds.
    pub wall: f64,
}

/// Runs `clients` closed-loop clients against `addr`. Client `c` sends
/// input `(c + k) % inputs.len()` as its `k`-th job, and stops sending
/// once `duration` has elapsed or after `max_jobs` jobs of its own.
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &[JobInput<'_>],
    iterations: usize,
    seed: u64,
    clients: usize,
    duration: Duration,
    max_jobs: usize,
) -> LoopResult {
    let bodies: Vec<String> = inputs
        .iter()
        .map(|i| spec_json(i, iterations, seed))
        .collect();
    let jobs = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (bodies, jobs) = (&bodies, &jobs);
            s.spawn(move || {
                for k in 0..max_jobs {
                    if t0.elapsed() >= duration && k > 0 {
                        break;
                    }
                    let input = (c + k) % bodies.len();
                    let record = run_job(addr, input, &bodies[input]);
                    jobs.lock()
                        .expect("no client panics holding the lock")
                        .push(record);
                }
            });
        }
    });
    LoopResult {
        jobs: jobs.into_inner().expect("clients joined without panicking"),
        wall: t0.elapsed().as_secs_f64(),
    }
}

/// Submits one job and polls it to a terminal state.
fn run_job(addr: SocketAddr, input: usize, body: &str) -> JobRecord {
    let t0 = Instant::now();
    let mut record = JobRecord {
        input,
        id: 0,
        latency: 0.0,
        submit: 0.0,
        queue_wait: 0.0,
        service: 0.0,
        polls: 0,
        outcome: Err(String::new()),
    };
    record.outcome = submit_and_wait(addr, body, &mut record);
    record.latency = t0.elapsed().as_secs_f64();
    record
}

fn submit_and_wait(addr: SocketAddr, body: &str, rec: &mut JobRecord) -> Result<f64, String> {
    let t0 = Instant::now();
    let (status, resp) = http(addr, "POST", "/jobs", body)?;
    rec.submit = t0.elapsed().as_secs_f64();
    if status != 202 {
        return Err(format!("{REFUSED} {status}: {}", resp.trim()));
    }
    rec.id = json(&resp)?.num("id").ok_or("POST /jobs reply has no id")? as u64;
    let path = format!("/jobs/{}", rec.id);
    let job = loop {
        std::thread::sleep(POLL);
        rec.polls += 1;
        let (status, resp) = http(addr, "GET", &path, "")?;
        if status != 200 {
            return Err(format!("GET {path} → {status}: {}", resp.trim()));
        }
        let job = json(&resp)?;
        match job.str("state") {
            Some("queued" | "running") if t0.elapsed() < JOB_TIMEOUT => continue,
            Some("queued" | "running") => return Err(format!("job {} timed out", rec.id)),
            _ => break job,
        }
    };
    let ms = |key: &str| job.num(key).ok_or_else(|| format!("job has no {key}"));
    let (submitted, started, finished) = (
        ms("submitted_unix_ms")?,
        ms("started_unix_ms")?,
        ms("finished_unix_ms")?,
    );
    rec.queue_wait = (started - submitted) / 1e3;
    rec.service = (finished - started) / 1e3;
    let state = job.str("state").unwrap_or("?");
    if state != "done" {
        let error = job.str("error").unwrap_or("no error recorded");
        return Err(format!("job {} ended {state}: {error}", rec.id));
    }
    let result = job.get("result").ok_or("done job has no result")?;
    let field = |key: &str| {
        result
            .num(key)
            .ok_or_else(|| format!("result has no {key}"))
    };
    if result
        .get("final_loss")
        .and_then(JsonValue::as_f64)
        .is_none()
    {
        return Err(format!("job {}: final loss is not finite", rec.id));
    }
    if field("guide_boxes")? == 0.0 {
        return Err(format!("job {}: empty route guide", rec.id));
    }
    Ok(quality_score(
        field("wirelength")? as u64,
        field("vias")? as u64,
        field("overflow")?,
    ))
}

fn json(text: &str) -> Result<JsonValue, String> {
    parse_json(text).map_err(|e| format!("bad JSON from dgrd: {e}"))
}

/// `GET /jobs/{id}/guide`.
pub fn fetch_guide(addr: SocketAddr, id: u64) -> Result<String, String> {
    match http(addr, "GET", &format!("/jobs/{id}/guide"), "")? {
        (200, guide) => Ok(guide),
        (status, body) => Err(format!("GET /jobs/{id}/guide → {status}: {}", body.trim())),
    }
}

/// One set-up sample: daemon start until its first `POST /jobs` is
/// accepted. The daemon's shutdown cancels the probe job, and `dgr_obs`,
/// which the daemon turns on, is off again on return.
pub fn setup_once(probe: &JobInput<'_>, iterations: usize, seed: u64) -> Result<f64, String> {
    let body = spec_json(probe, iterations, seed);
    let t0 = Instant::now();
    let daemon = start()?;
    let (status, resp) = http(daemon.local_addr(), "POST", "/jobs", &body)?;
    let secs = t0.elapsed().as_secs_f64();
    daemon.stop();
    dgr_obs::set_enabled(false);
    if status != 202 {
        return Err(format!(
            "setup probe: POST /jobs → {status}: {}",
            resp.trim()
        ));
    }
    Ok(secs)
}
