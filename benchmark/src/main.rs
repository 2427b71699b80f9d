//! End-to-end benchmark of the DGR router.
//!
//! ```text
//! dgr-e2e-bench --workload <congested|uncongested_9l|dgrd_small> --seed N
//!               --seconds S --trace <0|1> --dgr-bin PATH --work-dir DIR
//! ```
//!
//! Generates the workload's designs from `--seed`, runs them for about
//! `--seconds` seconds, checks every output, and prints one JSON result
//! object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics with `dgr_obs` off; `--trace 1` reports the
//! per-layer split from a traced run. See `README.md` next to this crate.

mod chain;
mod dgrd;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use dgr_core::DgrConfig;
use stats::{median, median_index, peak_rss_mb, tail};
use workload::{GeneratedDesign, Workload};

/// Set-up samples taken before each route of a route workload. The
/// samples are spread over the whole run, and `setup_s` is their median.
const SETUP_PER_ROUTE: usize = 5;
/// Closed-loop client connections of `dgrd_small`.
const CLIENTS: usize = 2;
/// In-process reference routes per `dgrd_small` design.
const REFERENCE_REPS: usize = 9;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    dgr_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let name = flag("--workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let number = |name: &str| -> Result<u64, String> {
        flag(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: Duration::from_secs(seconds),
        trace,
        dgr_bin: PathBuf::from(flag("--dgr-bin")?),
        work_dir: PathBuf::from(flag("--work-dir")?),
    })
}

/// Named metric values, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Records `value` if it could be measured.
    pub fn opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.push(name, v, unit);
        }
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` or a non-empty violation list fails it.
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// Everything one run reports.
struct Report {
    metrics: Metrics,
    tally: Tally,
    missing: Vec<String>,
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(report) => {
            print_report(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = if args.workload == Workload::DgrdSmall {
        CLIENTS
    } else {
        1
    };
    if clients > nproc {
        return Err(format!(
            "{clients} client threads on a host with {nproc} CPUs would measure the clients, not dgrd"
        ));
    }
    let designs = workload::generate(args.workload)?;
    let cfg = chain::config(args.workload.iterations(), workload::route_seed(args.seed));
    println!(
        "host: nproc={nproc} pool_threads={} daemon_workers={} clients={clients}",
        dgr_autodiff::parallel::num_threads(),
        dgrd::WORKERS
    );
    println!(
        "workload: {:?} seed={} route_seed={} iterations={} designs={}",
        args.workload,
        args.seed,
        cfg.seed,
        cfg.iterations,
        args.workload.shapes().join(",")
    );
    dgr_obs::set_enabled(false);
    let mut report = Report {
        metrics: Metrics::default(),
        tally: Tally::default(),
        missing: Vec::new(),
    };
    let guide = if args.workload == Workload::DgrdSmall {
        dgrd_workload(args, &designs, &cfg, &mut report)?
    } else {
        route_workload(args, &designs[0], &cfg, &mut report)?
    };
    // the CLI's guide must match the in-process chain byte for byte
    let cli = cli_guide(args, &designs[0].text, &cfg).and_then(|cli| {
        (cli == guide)
            .then_some(())
            .ok_or_else(|| "guide differs from the in-process chain".to_string())
    });
    report.tally.check("dgr route --guide", cli);
    if !args.trace {
        report.metrics.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    }
    Ok(report)
}

/// One set-up sample: design text parsed and the worker pool started
/// (threads spawn on the run's first sample; later samples reuse them).
fn route_setup(text: &str) -> Result<f64, String> {
    let t0 = Instant::now();
    let design = dgr_io::parse_design(text).map_err(|e| format!("parse: {e}"))?;
    let threads = dgr_autodiff::parallel::num_threads();
    dgr_autodiff::parallel::par_indexed(threads * 4, 1, |i| i);
    let secs = t0.elapsed().as_secs_f64();
    drop(design);
    Ok(secs)
}

/// Checks one chain result against the first result of the run.
fn check_chain(
    tally: &mut Tally,
    out: &Result<chain::ChainOutput, String>,
    first: &mut Option<(f64, String)>,
) {
    let result = out.as_ref().map_err(Clone::clone).and_then(|o| {
        if !o.violations.is_empty() {
            return Err(o.violations.join("; "));
        }
        let (quality, guide) = first.get_or_insert_with(|| (o.quality, o.guide.clone()));
        if o.quality != *quality || o.guide != *guide {
            return Err(format!(
                "not deterministic: quality {} vs {}",
                o.quality, quality
            ));
        }
        Ok(())
    });
    tally.check("route", result);
}

/// `congested` and `uncongested_9l`: one design routed repeatedly.
/// Returns the design's in-process guide.
fn route_workload(
    args: &Args,
    design: &GeneratedDesign,
    cfg: &DgrConfig,
    report: &mut Report,
) -> Result<String, String> {
    let mut setups = Vec::new();
    let mut first = None;
    let mut walls = Vec::new();
    let mut traced = Vec::new();
    let t0 = Instant::now();
    loop {
        for _ in 0..SETUP_PER_ROUTE {
            setups.push(route_setup(&design.text)?);
        }
        route_pair(
            args.trace,
            &design.text,
            cfg,
            report,
            &mut first,
            &mut walls,
            &mut traced,
        );
        if t0.elapsed() >= args.seconds {
            break;
        }
    }
    let (quality, guide) = first.ok_or("no route finished")?;
    println!("route walls (s): {walls:.3?}");
    let m = &mut report.metrics;
    if !args.trace {
        m.push("setup_s", median(&setups), "s");
        m.push("route_s", median(&walls), "s");
        m.push("quality_score", quality, "score");
        m.push(
            "jobs_per_s",
            walls.len() as f64 / walls.iter().sum::<f64>(),
            "1/s",
        );
        push_latency(m, &walls);
        return Ok(guide);
    }
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.times.wall).collect();
    let t = &traced[median_index(&traced_walls)];
    trace::layer_metrics(t, m, &mut report.missing);
    trace::pool_metrics(&t.pool, t.times.wall, m);
    m.push(
        "obs.overhead_frac",
        median(&traced_walls) / median(&walls) - 1.0,
        "ratio",
    );
    // one job of the same design through dgrd: its per-job numbers, and
    // its guide against the in-process one
    let daemon = dgrd::start()?;
    let input = dgrd::JobInput {
        label: design.shape,
        text: &design.text,
    };
    let lp = dgrd::closed_loop(
        daemon.local_addr(),
        std::slice::from_ref(&input),
        cfg.iterations,
        cfg.seed,
        1,
        Duration::ZERO,
        1,
    );
    let sampled = last_guide(daemon.local_addr(), &lp);
    daemon.stop();
    check_jobs(&mut report.tally, &lp, &[quality]);
    check_guide(&mut report.tally, sampled, std::slice::from_ref(&guide));
    dgr_obs::set_enabled(false);
    daemon_metrics(&lp, m);
    Ok(guide)
}

/// One untraced chain run of `text`, then (in a traced run) one traced
/// run; both are checked against the run's first result. Walls of
/// successful runs go to `walls`, layer splits to `traced`.
fn route_pair(
    trace: bool,
    text: &str,
    cfg: &DgrConfig,
    report: &mut Report,
    first: &mut Option<(f64, String)>,
    walls: &mut Vec<f64>,
    traced: &mut Vec<trace::Traced>,
) {
    let out = chain::run(text, cfg);
    check_chain(&mut report.tally, &out, first);
    if let Ok(o) = &out {
        walls.push(o.times.wall);
    }
    if trace {
        let out = trace::run(text, cfg).map(|(o, t)| {
            traced.push(t);
            o
        });
        check_chain(&mut report.tally, &out, first);
    }
}

/// `job_latency_s.p50` and `.tail`, with the tail's percentile and count.
fn push_latency(m: &mut Metrics, latencies: &[f64]) {
    let (value, pct, n) = tail(latencies);
    println!("job_latency_s.tail: p{pct:.1} of {n} samples");
    m.push("job_latency_s.p50", median(latencies), "s");
    m.push("job_latency_s.tail", value, "s");
}

/// Checks every job of a loop against the in-process quality of its input.
fn check_jobs(tally: &mut Tally, lp: &dgrd::LoopResult, quality: &[f64]) {
    for job in &lp.jobs {
        let result = job.outcome.clone().and_then(|q| {
            (q == quality[job.input])
                .then_some(())
                .ok_or_else(|| format!("quality {q} vs in-process {}", quality[job.input]))
        });
        tally.check(&format!("dgrd job {}", job.id), result);
    }
}

/// The guide of the last finished job (still retained by the daemon),
/// with the job.
fn last_guide(
    addr: std::net::SocketAddr,
    lp: &dgrd::LoopResult,
) -> Result<(&dgrd::JobRecord, String), String> {
    let job = lp
        .jobs
        .iter()
        .rev()
        .find(|j| j.outcome.is_ok())
        .ok_or("no job finished")?;
    Ok((job, dgrd::fetch_guide(addr, job.id)?))
}

/// Byte-compares a job's guide with the in-process guide of its input.
fn check_guide(
    tally: &mut Tally,
    sampled: Result<(&dgrd::JobRecord, String), String>,
    guides: &[String],
) {
    let result = sampled.and_then(|(job, guide)| {
        (guide == guides[job.input])
            .then_some(())
            .ok_or_else(|| format!("job {} guide differs from the in-process chain", job.id))
    });
    tally.check("dgrd guide", result);
}

/// The `daemon.*` per-layer metrics of a loop.
fn daemon_metrics(lp: &dgrd::LoopResult, m: &mut Metrics) {
    let done: Vec<&dgrd::JobRecord> = lp.jobs.iter().filter(|j| j.outcome.is_ok()).collect();
    if done.is_empty() {
        return;
    }
    let of =
        |f: fn(&dgrd::JobRecord) -> f64| median(&done.iter().map(|j| f(j)).collect::<Vec<_>>());
    m.push("daemon.submit_s", of(|j| j.submit), "s");
    m.push("daemon.queue_wait_s", of(|j| j.queue_wait), "s");
    m.push("daemon.service_s", of(|j| j.service), "s");
    let polls: u64 = done.iter().map(|j| j.polls).sum();
    m.push(
        "daemon.polls_per_job",
        polls as f64 / done.len() as f64,
        "count",
    );
    let rejected = lp.jobs.iter().filter(|j| {
        j.outcome
            .as_ref()
            .is_err_and(|e| e.starts_with(&format!("{} 429", dgrd::REFUSED)))
    });
    m.push("daemon.rejected", rejected.count() as f64, "count");
}

/// `dgrd_small`: the closed loop in a fresh process, then in-process
/// reference routes of the three job designs, which every job must
/// reproduce, each preceded by one daemon set-up probe. (Work before the
/// loop changes the allocator state the loop starts from, and with it the
/// loop's throughput.) Returns the first design's in-process guide.
fn dgrd_workload(
    args: &Args,
    designs: &[GeneratedDesign],
    cfg: &DgrConfig,
    report: &mut Report,
) -> Result<String, String> {
    let inputs: Vec<dgrd::JobInput<'_>> = designs
        .iter()
        .map(|d| dgrd::JobInput {
            label: d.shape,
            text: &d.text,
        })
        .collect();
    let daemon = dgrd::start()?;
    dgr_obs::reset();
    let lp = dgrd::closed_loop(
        daemon.local_addr(),
        &inputs,
        cfg.iterations,
        cfg.seed,
        CLIENTS,
        args.seconds,
        usize::MAX,
    );
    let pool = trace::pool_counters();
    let sampled = last_guide(daemon.local_addr(), &lp);
    daemon.stop();
    dgr_obs::set_enabled(false);

    // in the traced run, alternate untraced and traced reference routes;
    // in the untraced run, probe the daemon's set-up before each route
    let mut setups = Vec::new();
    let mut quality = Vec::new();
    let mut guides: Vec<String> = Vec::new();
    let mut route_s = 0.0;
    let mut traced_sum = trace::Traced::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for d in designs {
        let mut first = None;
        let mut walls = Vec::new();
        let mut traced = Vec::new();
        for _ in 0..REFERENCE_REPS {
            if !args.trace {
                setups.push(dgrd::setup_once(&inputs[0], cfg.iterations, cfg.seed)?);
            }
            route_pair(
                args.trace,
                &d.text,
                cfg,
                report,
                &mut first,
                &mut walls,
                &mut traced,
            );
        }
        let (q, g) = first.ok_or("no reference route finished")?;
        let traced_walls: Vec<f64> = traced.iter().map(|t| t.times.wall).collect();
        quality.push(q);
        guides.push(g);
        route_s += median(&walls);
        if args.trace {
            traced_sum.add(&traced[median_index(&traced_walls)]);
            untraced_s += median(&walls);
            traced_s += median(&traced_walls);
        }
    }
    check_jobs(&mut report.tally, &lp, &quality);
    check_guide(&mut report.tally, sampled, &guides);

    let m = &mut report.metrics;
    if args.trace {
        trace::layer_metrics(&traced_sum, m, &mut report.missing);
        trace::pool_metrics(&pool, lp.wall, m);
        m.push("obs.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
        daemon_metrics(&lp, m);
        return Ok(guides.swap_remove(0));
    }
    let latencies: Vec<f64> = lp
        .jobs
        .iter()
        .filter(|j| j.outcome.is_ok())
        .map(|j| j.latency)
        .collect();
    if latencies.is_empty() {
        return Err("no dgrd job finished".into());
    }
    m.push("setup_s", median(&setups), "s");
    m.push("route_s", route_s, "s");
    m.push("quality_score", quality.iter().sum(), "score");
    m.push("jobs_per_s", latencies.len() as f64 / lp.wall, "1/s");
    push_latency(m, &latencies);
    Ok(guides.swap_remove(0))
}

/// Runs `dgr route --guide` on `text` and returns the guide it wrote.
fn cli_guide(args: &Args, text: &str, cfg: &DgrConfig) -> Result<String, String> {
    let dir = args.work_dir.join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let design = dir.join("design.txt");
    let guide = dir.join("cli.guide");
    std::fs::write(&design, text).map_err(|e| format!("{}: {e}", design.display()))?;
    let out = Command::new(&args.dgr_bin)
        .arg("route")
        .arg(&design)
        .args(["--iterations", &cfg.iterations.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .arg("--guide")
        .arg(&guide)
        .args(["--quiet", "--no-ledger"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("{}: {e}", args.dgr_bin.display()))?;
    let result = if out.status.success() {
        std::fs::read_to_string(&guide).map_err(|e| format!("{}: {e}", guide.display()))
    } else {
        Err(format!(
            "dgr route failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn print_report(report: &Report) {
    for f in &report.tally.failures {
        println!("FAILED {f}");
    }
    for m in &report.missing {
        println!("MISSING {m}: the program no longer records it");
    }
    let metrics: Vec<String> = report
        .metrics
        .0
        .iter()
        .filter(|(_, v, _)| v.is_finite())
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    let failed = report.tally.failures.len();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.tally.attempted,
        metrics.join(", ")
    );
}
