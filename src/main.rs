//! `dgr` — command-line front end for the differentiable global router.
//!
//! ```text
//! dgr generate <case> [--out design.txt]        # emit a catalog design
//! dgr route <design.txt> [--iterations N] [--seed S]
//!          [--routes out.txt] [--guide out.guide]
//!          [--trace out.json] [--telemetry out.jsonl]
//!          [--snap out.snaps] [--snap-every N]
//!          [--serve ADDR] [--profile out.folded] [--no-ledger]
//!          [--progress N] [--quiet]
//! dgr train <design.txt> [--batch N] ...        # multi-seed run, best kept
//! dgr compare <design.txt> [--iterations N]     # DGR vs all baselines
//! dgr compare --ledger                          # last two ledger runs
//! dgr history [--limit N]                       # the persistent run ledger
//! dgr report [--telemetry in.jsonl] [--snap in.snaps] [--trace in.json]
//!            [--profile in.folded] [--title NAME] [--out report.html]
//! dgr serve-jobs <addr> [--workers N] [--queue-cap N] [--retain N]
//!            [--no-ledger]                  # dgrd: the routing job server
//! ```
//!
//! `--trace` turns on the `dgr-obs` span registry and writes a Chrome
//! trace-event file (load it at `chrome://tracing` or in Perfetto);
//! `--telemetry` streams one JSONL row per training iteration; `--snap`
//! streams per-g-cell congestion snapshots plus the per-net overflow
//! attribution. `--serve ADDR` exposes `/metrics` (Prometheus),
//! `/status` (JSON) and `/report` (HTML) over HTTP while the run is
//! live; `--profile` runs the sampling self-profiler and writes a
//! collapsed-stack (flamegraph-compatible) file. Every `route`/`train`
//! run also appends a content-hashed summary record to the persistent
//! ledger (`~/.dgr/ledger.jsonl`, override with `DGR_LEDGER`, disable
//! with `--no-ledger`) that `dgr history` and `dgr compare --ledger`
//! render into cross-run deltas. `dgr report` renders the file
//! artifacts into one self-contained HTML post-mortem.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use dgr::baseline::{LagrangianRouter, SequentialRouter, SprouteRouter};
use dgr::core::{
    write_attribution, DgrConfig, DgrRouter, ProgressConfig, RouteHooks, SnapshotConfig,
};
use dgr::grid::Design;
use dgr::obs::ledger::{self, LedgerRecord, LEDGER_VERSION};
use dgr::obs::{render_report, ObsServer, Profiler, ProfilerConfig, ReportInputs};
use dgr::obs::{SnapshotSink, TelemetrySink};
use dgr::post::{assign_layers, refine, AssignConfig, RefineConfig, RouteGuide};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("cases") => {
            for name in dgr::io::catalog_names() {
                let case = dgr::io::catalog_case(name).expect("listed case exists");
                println!(
                    "{name:<16} {:>6} nets  {:>4}x{:<4}  {} layers{}",
                    case.config.num_nets,
                    case.config.width,
                    case.config.height,
                    case.config.num_layers,
                    if case.congested { "  (congested)" } else { "" }
                );
            }
            Ok(())
        }
        Some("generate") => cmd_generate(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("doctor") => cmd_doctor(&args[1..]),
        Some("history") => cmd_history(&args[1..]),
        Some("serve-jobs") => cmd_serve_jobs(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try --help)").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!("dgr — differentiable global router (DAC 2024 reproduction)");
    println!();
    println!("usage:");
    println!("  dgr cases");
    println!("      list the benchmark catalog");
    println!("  dgr generate <case> [--out design.txt] [--fast]");
    println!("      emit a named catalog design (e.g. ispd18_test1, ispd19_7m)");
    println!("  dgr route <design.txt> [--iterations N] [--seed S]");
    println!("            [--routes out.txt] [--guide out.guide]");
    println!("            [--trace out.json] [--telemetry out.jsonl]");
    println!("            [--snap out.snaps] [--snap-every N]");
    println!("            [--serve ADDR] [--profile out.folded] [--no-ledger]");
    println!("            [--progress N] [--quiet]");
    println!("      route a design and print metrics");
    println!("  dgr train <design.txt> [--batch N] [--iterations N] [--seed S]");
    println!("            [--routes out.txt] [--telemetry out.jsonl]");
    println!("            [--snap out.snaps] [--snap-every N] [--serve ADDR]");
    println!("            [--profile out.folded] [--no-ledger] [--quiet]");
    println!("      train N seeds one after another, report each, extract the best");
    println!("  dgr compare <design.txt> [--iterations N] [--trace out.json]");
    println!("      route with DGR and every baseline, print a comparison table");
    println!("  dgr compare --ledger");
    println!("      diff the last two comparable ledger runs (per-phase deltas + trend)");
    println!("  dgr history [--limit N] [--ledger path]");
    println!("      render recent ledger records as a table with cross-run deltas");
    println!("  dgr report [--telemetry in.jsonl] [--snap in.snaps] [--trace in.json]");
    println!("             [--profile in.folded] [--health in.jsonl] [--title NAME]");
    println!("             [--out report.html]");
    println!("      render routing-run artifacts into a self-contained HTML post-mortem");
    println!("  dgr doctor [--telemetry in.jsonl] [--ledger [path]]");
    println!("      replay a run's telemetry (and/or the run ledger) through the");
    println!("      sentinel convergence rules; print ranked findings with evidence");
    println!("      windows, exit nonzero when any rule trips");
    println!("  dgr serve-jobs <addr> [--workers N] [--queue-cap N] [--retain N]");
    println!("             [--no-ledger]");
    println!("      run dgrd: a multi-tenant routing job server (POST /jobs, ");
    println!("      GET /jobs/:id[/report|/telemetry|/guide], DELETE /jobs/:id,");
    println!("      plus the /metrics /status /report observability routes)");
    println!();
    println!("observability:");
    println!("  --trace out.json      record phase spans, write a Chrome trace-event file");
    println!("  --telemetry out.jsonl stream one JSONL row per training iteration");
    println!("  --snap out.snaps      stream per-g-cell congestion snapshots + attribution");
    println!("  --snap-every N        training snapshot stride (default: iterations/16)");
    println!("  --serve ADDR          live HTTP exporter: /metrics /status /report");
    println!("  --profile out.folded  sampling self-profiler → collapsed stacks");
    println!("  --no-ledger           skip the persistent run ledger for this run");
    println!("  --progress N          progress line every N iterations (default 100)");
    println!("  --quiet               suppress the progress line");
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_generate(args: &[String]) -> CliResult {
    let case_name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("generate needs a case name")?;
    let case = dgr::io::catalog_case(case_name)
        .ok_or_else(|| format!("unknown catalog case `{case_name}`"))?;
    let mut config = case.config.clone();
    if args.iter().any(|a| a == "--fast") {
        config.num_nets /= 4;
        config.width = (config.width / 2).max(20);
        config.height = (config.height / 2).max(20);
        config.clusters = (config.clusters / 4).max(3);
        config.cluster_spread /= 2.0;
    }
    let design = dgr::io::IspdLikeGenerator::new(config).generate()?;
    let text = dgr::io::write_design(&design);
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, text)?;
            println!(
                "wrote {} ({} nets, {}x{} grid, {} layers)",
                path,
                design.num_nets(),
                design.grid.width(),
                design.grid.height(),
                design.num_layers
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `dgr serve-jobs`: boot `dgrd` and serve routing jobs until killed.
fn cmd_serve_jobs(args: &[String]) -> CliResult {
    let addr = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && !is_flag_operand(args, *i))
        .map(|(_, a)| a.as_str())
        .ok_or("serve-jobs needs a listen address (e.g. 127.0.0.1:7878)")?;
    let mut cfg = dgr::daemon::DaemonConfig::default();
    if let Some(v) = flag_value(args, "--workers") {
        cfg.workers = v.parse()?;
    }
    if let Some(v) = flag_value(args, "--queue-cap") {
        cfg.queue_capacity = v.parse()?;
    }
    if let Some(v) = flag_value(args, "--retain") {
        cfg.retain_jobs = v.parse()?;
    }
    cfg.ledger = !args.iter().any(|a| a == "--no-ledger");
    // the daemon is an observability surface by nature: metrics, per-job
    // status scopes and reports are always on
    dgr::obs::reset();
    dgr::obs::set_enabled(true);
    let rss = dgr::obs::profile::read_rss_bytes().unwrap_or(0);
    dgr::obs::gauge("process.rss_bytes").set(rss as f64);
    let daemon = dgr::daemon::Daemon::start(addr, cfg)?;
    eprintln!(
        "dgrd: http://{}/  (POST /jobs, GET|DELETE /jobs/:id, /metrics /status)",
        daemon.local_addr()
    );
    loop {
        std::thread::park();
    }
}

/// Flags that take no operand — anything after them can be the design
/// positional.
const BARE_FLAGS: &[&str] = &["--quiet", "--fast", "--no-ledger", "--ledger"];

/// Whether `arg` sits right after a value-taking flag (so the design
/// positional scan skips e.g. the `127.0.0.1:0` after `--serve`).
fn is_flag_operand(args: &[String], index: usize) -> bool {
    index
        .checked_sub(1)
        .and_then(|i| args.get(i))
        .is_some_and(|prev| prev.starts_with("--") && !BARE_FLAGS.contains(&prev.as_str()))
}

fn design_arg(args: &[String]) -> Result<&str, Box<dyn std::error::Error>> {
    Ok(args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && !is_flag_operand(args, *i))
        .map(|(_, a)| a.as_str())
        .ok_or("missing design file")?)
}

fn load_design(args: &[String]) -> Result<Design, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(design_arg(args)?)?;
    Ok(dgr::io::parse_design(&text)?)
}

fn config_from(args: &[String]) -> Result<DgrConfig, Box<dyn std::error::Error>> {
    let mut cfg = DgrConfig::default();
    if let Some(v) = flag_value(args, "--iterations") {
        cfg.iterations = v.parse()?;
    }
    if let Some(v) = flag_value(args, "--seed") {
        cfg.seed = v.parse()?;
    }
    Ok(cfg)
}

/// Live observability attached to one CLI run: the optional Chrome
/// trace, the sampling self-profiler, and the HTTP exporter.
///
/// The span registry is enabled for every `route`/`train` run (the
/// persistent ledger needs per-phase totals either way); the end-of-run
/// summary tables only print when the user asked for observability
/// explicitly, so plain runs keep their original output.
struct ObsSession {
    trace: Option<String>,
    profile: Option<String>,
    profiler: Option<Profiler>,
    /// Held for its lifetime only: dropping it stops the HTTP exporter.
    _server: Option<ObsServer>,
    show_summary: bool,
}

fn obs_session(
    args: &[String],
    job: &str,
    total_iters: u64,
    batch: u64,
) -> Result<ObsSession, Box<dyn std::error::Error>> {
    let trace = flag_value(args, "--trace").map(str::to_string);
    let profile = flag_value(args, "--profile").map(str::to_string);
    let serve = flag_value(args, "--serve");
    let show_summary = trace.is_some() || profile.is_some() || serve.is_some();
    dgr::obs::reset();
    dgr::obs::set_enabled(true);
    // publish the run identity and seed the RSS gauge before the
    // listener comes up, so the very first /status and /metrics scrapes
    // are never empty
    dgr::obs::status_begin(job, total_iters, batch);
    let rss = dgr::obs::profile::read_rss_bytes().unwrap_or(0);
    dgr::obs::gauge("process.rss_bytes").set(rss as f64);
    let server = match serve {
        Some(addr) => {
            let server = ObsServer::start(addr)?;
            eprintln!(
                "observatory: http://{}/  (/metrics /status /report)",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    let profiler = profile
        .is_some()
        .then(|| Profiler::start(ProfilerConfig::default()));
    Ok(ObsSession {
        trace,
        profile,
        profiler,
        _server: server,
        show_summary,
    })
}

/// Stops the profiler and server, writes the trace and folded profile
/// (if requested) and prints the end-of-run summary tables.
fn obs_finish(mut session: ObsSession) -> CliResult {
    if let Some(profiler) = session.profiler.take() {
        let profile = profiler.stop();
        if let Some(path) = session.profile.as_deref() {
            profile.write(path)?;
            let hottest = profile
                .hot_frames()
                .first()
                .map_or_else(|| "(idle)".to_string(), |(frame, _)| frame.clone());
            println!();
            println!(
                "profile → {path} ({} samples, {} busy, hottest frame: {hottest})",
                profile.samples,
                profile.busy_samples(),
            );
        }
    }
    if session.show_summary {
        print_summary_tables();
    }
    if let Some(path) = session.trace.as_deref() {
        dgr::obs::write_chrome_trace(path)?;
        println!();
        println!("trace → {path} (load at chrome://tracing)");
    }
    // the HTTP exporter (if any) stops when `session` drops here
    Ok(())
}

fn print_summary_tables() {
    let totals = dgr::obs::span_totals();
    if !totals.is_empty() {
        println!();
        println!(
            "{:<16} {:>8} {:>12} {:>12}",
            "span", "calls", "total (ms)", "mean (µs)"
        );
        for t in &totals {
            println!(
                "{:<16} {:>8} {:>12.2} {:>12.1}",
                t.name,
                t.count,
                t.total.as_secs_f64() * 1e3,
                t.mean().as_secs_f64() * 1e6,
            );
        }
    }
    let metrics = dgr::obs::metrics_snapshot();
    if !metrics.is_empty() {
        println!();
        println!("{:<22} {:>16}", "metric", "value");
        for m in &metrics {
            use dgr::obs::MetricValue;
            match m.value {
                MetricValue::Counter(v) => println!("{:<22} {:>16}", m.name, v),
                MetricValue::Gauge(v) => println!("{:<22} {:>16.3}", m.name, v),
                MetricValue::Histogram {
                    count,
                    mean,
                    p50,
                    p95,
                    p99,
                    ..
                } => println!(
                    "{:<22} {:>16}  (mean {mean:.0}, p50 ≤ {p50}, p95 ≤ {p95}, p99 ≤ {p99})",
                    m.name, count
                ),
            }
        }
        let (hits, misses) = rsmt_cache_counts();
        if hits + misses > 0 {
            println!(
                "{:<22} {:>15.1}%  ({hits} hits / {misses} misses)",
                "rsmt cache hit rate",
                100.0 * hits as f64 / (hits + misses) as f64
            );
        }
    }
}

fn rsmt_cache_counts() -> (u64, u64) {
    (
        dgr::obs::counter("rsmt.cache.hits").get(),
        dgr::obs::counter("rsmt.cache.misses").get(),
    )
}

/// Everything the persistent ledger wants to know about a finished run.
struct RunOutcome<'a> {
    cmd: &'a str,
    design_path: &'a str,
    design: &'a Design,
    cfg: &'a DgrConfig,
    batch: u64,
    wall: Duration,
    final_loss: f64,
    wirelength: u64,
    overflow: f64,
    overflowed_edges: u64,
    vias: u64,
}

/// Appends the run's summary record to the persistent ledger (unless
/// `--no-ledger`). Best effort by contract: a failed append only
/// suppresses the confirmation line.
fn append_ledger(args: &[String], outcome: &RunOutcome<'_>) {
    if args.iter().any(|a| a == "--no-ledger") {
        return;
    }
    let mut phases = BTreeMap::new();
    let mut train_ms = 0.0f64;
    for t in dgr::obs::span_totals() {
        let ms = t.total.as_secs_f64() * 1e3;
        if t.name == "train" {
            train_ms += ms;
        }
        phases.insert(t.name.to_string(), ms);
    }
    let wall_ms = outcome.wall.as_secs_f64() * 1e3;
    let train_secs = if train_ms > 0.0 { train_ms } else { wall_ms } / 1e3;
    let iterations = outcome.cfg.iterations as u64;
    let it_per_s = if train_secs > 0.0 {
        iterations as f64 / train_secs
    } else {
        0.0
    };
    let (cache_hits, cache_misses) = rsmt_cache_counts();
    let record = LedgerRecord {
        version: LEDGER_VERSION,
        hash: String::new(),
        ts: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        cmd: outcome.cmd.to_string(),
        design: design_stem(outcome.design_path),
        nets: outcome.design.num_nets() as u64,
        config_fp: config_fingerprint(outcome.design_path, outcome.design, outcome.cfg),
        iterations,
        seed: outcome.cfg.seed,
        batch: outcome.batch,
        wall_ms: wall_ms as u64,
        it_per_s,
        loss: outcome.final_loss,
        wirelength: outcome.wirelength,
        overflow: outcome.overflow,
        overflowed_edges: outcome.overflowed_edges,
        vias: outcome.vias,
        cache_hits,
        cache_misses,
        phases,
        health: dgr::obs::enabled()
            .then(|| dgr::obs::health_summary_of(dgr::obs::status_scope_id())),
    };
    if let Some(path) = ledger::append(&record) {
        println!("  ledger           : appended → {}", path.display());
    }
}

fn design_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned())
}

/// FNV-1a fingerprint of everything that makes two runs comparable:
/// the design identity and the full routing configuration minus the
/// seed (seed sweeps of one config should compare against each other).
fn config_fingerprint(design_path: &str, design: &Design, cfg: &DgrConfig) -> String {
    let mut fp_cfg = cfg.clone();
    fp_cfg.seed = 0;
    let key = format!(
        "{}|{}|{}x{}|{}|{:?}",
        design_stem(design_path),
        design.num_nets(),
        design.grid.width(),
        design.grid.height(),
        design.num_layers,
        fp_cfg
    );
    format!("{:016x}", ledger::fnv1a64(key.as_bytes()))
}

fn route_hooks(
    args: &[String],
    iterations: usize,
) -> Result<RouteHooks, Box<dyn std::error::Error>> {
    let mut hooks = RouteHooks::default();
    if let Some(path) = flag_value(args, "--telemetry") {
        hooks.telemetry = Some(TelemetrySink::to_path(path)?);
    }
    if let Some(path) = flag_value(args, "--snap") {
        let every = match flag_value(args, "--snap-every") {
            Some(v) => v.parse()?,
            None => (iterations / 16).max(1),
        };
        hooks.snap = Some(SnapshotConfig {
            sink: SnapshotSink::to_path(path)?,
            every,
        });
    }
    if !args.iter().any(|a| a == "--quiet") {
        let mut progress = ProgressConfig::default();
        if let Some(v) = flag_value(args, "--progress") {
            progress.every = v.parse()?;
        }
        hooks.progress = Some(progress);
    }
    Ok(hooks)
}

fn cmd_route(args: &[String]) -> CliResult {
    let design = load_design(args)?;
    let cfg = config_from(args)?;
    let session = obs_session(args, "route", cfg.iterations as u64, 1)?;
    let mut hooks = route_hooks(args, cfg.iterations)?;
    let weights = cfg.weights;
    let t0 = std::time::Instant::now();
    let mut solution = DgrRouter::new(cfg.clone()).route_with_hooks(&design, &mut hooks)?;
    let report = refine(&design, &mut solution, RefineConfig::default())?;
    let elapsed = t0.elapsed();
    if let Some(snap) = hooks.snap.as_mut() {
        // post-refinement congestion plus the final offender attribution
        let final_iter = solution
            .train_report
            .as_ref()
            .and_then(|r| r.curve.last())
            .map_or(0, |p| p.iter as u64 + 1);
        dgr::core::write_solution_snapshot(
            &mut snap.sink,
            &design,
            &solution,
            final_iter,
            "refine",
        );
        write_attribution(&mut snap.sink, &design, &solution, &weights, "final");
        snap.sink.flush();
    }

    let m = &solution.metrics;
    println!("routed {} nets in {elapsed:.2?}", design.num_nets());
    println!("  wirelength       : {}", m.total_wirelength);
    println!("  turning points   : {}", m.total_turns);
    println!("  overflowed edges : {}", m.overflow.overflowed_edges);
    println!("  total overflow   : {:.2}", m.overflow.total_overflow);
    println!(
        "  refinement       : {} nets rerouted ({} → {} overflowed edges)",
        report.nets_rerouted, report.overflowed_before, report.overflowed_after
    );
    let mut vias = m.total_turns;
    if design.num_layers >= 2 {
        let assigned = assign_layers(&design, &solution, AssignConfig::default())?;
        println!("  vias (3D)        : {}", assigned.total_vias);
        println!("  3D overflow      : {}", assigned.overflowed_edges3d);
        vias = assigned.total_vias;
        if let Some(path) = flag_value(args, "--guide") {
            let guide = RouteGuide::from_assignment(&design, &assigned);
            std::fs::write(path, guide.to_text())?;
            println!("  guide boxes      : {} → {}", guide.num_boxes(), path);
        }
    }
    if let Some(path) = flag_value(args, "--routes") {
        std::fs::write(path, solution.to_text())?;
        println!("  routes checkpoint → {path}");
    }
    let mut final_loss = f64::NAN;
    if let Some(report) = &solution.train_report {
        final_loss = report.final_loss as f64;
        if let (Some(first), Some(last)) = (report.curve.first(), report.curve.last()) {
            println!(
                "  training loss    : {:.2} → {:.2} over {} iterations",
                first.loss,
                last.loss,
                last.iter + 1
            );
        }
    }
    if let Some(sink) = &hooks.telemetry {
        let path = flag_value(args, "--telemetry").unwrap_or("?");
        println!("  telemetry        : {} rows → {path}", sink.rows());
    }
    if let Some(snap) = &hooks.snap {
        let path = flag_value(args, "--snap").unwrap_or("?");
        println!("  snapshots        : {} → {path}", snap.sink.snapshots());
    }
    append_ledger(
        args,
        &RunOutcome {
            cmd: "route",
            design_path: design_arg(args)?,
            design: &design,
            cfg: &cfg,
            batch: 1,
            wall: elapsed,
            final_loss,
            wirelength: m.total_wirelength,
            overflow: m.overflow.total_overflow,
            overflowed_edges: m.overflow.overflowed_edges as u64,
            vias,
        },
    );
    obs_finish(session)?;
    Ok(())
}

/// `dgr train`: multi-seed training — `--batch N` trains seeds seed,
/// seed+1, … one after another, each exactly its standalone run; the best
/// run by final loss is extracted into the reported solution.
fn cmd_train(args: &[String]) -> CliResult {
    use dgr::core::{
        build_cost_model, extract_solution, train_with_hooks, CostModel, SnapshotProbe, TrainHooks,
        TrainReport,
    };

    let design = load_design(args)?;
    let cfg = config_from(args)?;
    cfg.validate()?;
    let batch: usize = match flag_value(args, "--batch") {
        Some(v) => v.parse()?,
        None => 1,
    };
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let seeds: Vec<u64> = (0..batch as u64).map(|b| cfg.seed + b).collect();
    let session = obs_session(args, "train", cfg.iterations as u64, batch as u64)?;

    let mut telemetry = flag_value(args, "--telemetry")
        .map(TelemetrySink::to_path)
        .transpose()?;
    let mut snap_sink = flag_value(args, "--snap")
        .map(SnapshotSink::to_path)
        .transpose()?;
    let snap_every = match flag_value(args, "--snap-every") {
        Some(v) => v.parse()?,
        None => (cfg.iterations / 16).max(1),
    };

    let t0 = std::time::Instant::now();
    let pools: Vec<_> = design
        .nets
        .iter()
        .map(|n| dgr::rsmt::tree_candidates(&n.pins, &cfg.candidates))
        .collect::<Result<_, _>>()?;
    let forest = dgr::dag::build_forest(&design.grid, &pools, cfg.patterns)?;
    let progress = (!args.iter().any(|a| a == "--quiet")).then(ProgressConfig::default);
    let mut reports: Vec<TrainReport> = Vec::with_capacity(batch);
    let mut best: Option<(usize, CostModel)> = None;
    for (lane, &seed) in seeds.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let mut hooks = TrainHooks {
            telemetry: telemetry.as_mut(),
            snap: snap_sink.as_mut().map(|sink| SnapshotProbe {
                sink,
                design: &design,
                every: snap_every,
            }),
            progress,
            lane: Some(lane as u64),
            ..TrainHooks::default()
        };
        let report = train_with_hooks(&mut model, &cfg, &mut rng, &mut hooks);
        // the first strictly lower final loss wins; only the best model
        // is kept for extraction
        if best
            .as_ref()
            .is_none_or(|(b, _)| report.final_loss < reports[*b].final_loss)
        {
            best = Some((lane, model));
        }
        reports.push(report);
    }
    let (best, mut model) = best.expect("batch is at least 1");

    println!(
        "trained {} instance(s) of {} nets in {:.2?} ({} iterations each)",
        batch,
        design.num_nets(),
        t0.elapsed(),
        cfg.iterations
    );
    for (seed, report) in seeds.iter().zip(&reports) {
        println!(
            "  seed {:>4}  final loss {:>12.4}  final temperature {:.4}",
            seed, report.final_loss, report.final_temperature
        );
    }
    let solution = extract_solution(&design, &forest, &mut model, &cfg)?;
    let elapsed = t0.elapsed();
    let m = &solution.metrics;
    println!("best: seed {} (instance {best})", seeds[best]);
    println!("  wirelength       : {}", m.total_wirelength);
    println!("  turning points   : {}", m.total_turns);
    println!("  overflowed edges : {}", m.overflow.overflowed_edges);
    println!("  total overflow   : {:.2}", m.overflow.total_overflow);
    if let Some(path) = flag_value(args, "--routes") {
        std::fs::write(path, solution.to_text())?;
        println!("  routes checkpoint → {path}");
    }
    if let Some(sink) = telemetry.as_mut() {
        sink.flush();
        let path = flag_value(args, "--telemetry").unwrap_or("?");
        println!("  telemetry        : {} rows → {path}", sink.rows());
    }
    if let Some(sink) = snap_sink.as_mut() {
        sink.flush();
        let path = flag_value(args, "--snap").unwrap_or("?");
        println!("  snapshots        : {} → {path}", sink.snapshots());
    }
    append_ledger(
        args,
        &RunOutcome {
            cmd: "train",
            design_path: design_arg(args)?,
            design: &design,
            cfg: &cfg,
            batch: batch as u64,
            wall: elapsed,
            final_loss: f64::from(reports[best].final_loss),
            wirelength: m.total_wirelength,
            overflow: m.overflow.total_overflow,
            overflowed_edges: m.overflow.overflowed_edges as u64,
            vias: m.total_turns,
        },
    );
    obs_finish(session)?;
    Ok(())
}

/// `dgr report`: render telemetry / snapshot / trace / profile
/// artifacts into one deterministic, self-contained HTML post-mortem.
fn cmd_report(args: &[String]) -> CliResult {
    let read_opt = |flag: &str| -> Result<Option<String>, std::io::Error> {
        flag_value(args, flag)
            .map(std::fs::read_to_string)
            .transpose()
    };
    let inputs = ReportInputs {
        title: flag_value(args, "--title")
            .unwrap_or("routing run")
            .to_string(),
        telemetry: read_opt("--telemetry")?,
        snapshots: read_opt("--snap")?,
        trace: read_opt("--trace")?,
        profile: read_opt("--profile")?,
        health: read_opt("--health")?,
    };
    if inputs.telemetry.is_none()
        && inputs.snapshots.is_none()
        && inputs.trace.is_none()
        && inputs.profile.is_none()
        && inputs.health.is_none()
    {
        return Err(
            "report needs at least one of --telemetry / --snap / --trace / --profile / --health"
                .into(),
        );
    }
    let html = render_report(&inputs)?;
    let out = flag_value(args, "--out").unwrap_or("report.html");
    std::fs::write(out, &html)?;
    println!("report → {out} ({} bytes)", html.len());
    Ok(())
}

/// `dgr doctor`: offline convergence triage. Replays a telemetry JSONL
/// file through the sentinel rule engine (and/or checks the newest
/// ledger record's iteration rate against its last comparable run) and
/// prints ranked findings with their evidence windows. Exits nonzero
/// when anything trips, so CI can gate on it.
fn cmd_doctor(args: &[String]) -> CliResult {
    let telemetry = flag_value(args, "--telemetry");
    let use_ledger = args.iter().any(|a| a == "--ledger");
    if telemetry.is_none() && !use_ledger {
        return Err("doctor needs --telemetry <in.jsonl> and/or --ledger [path]".into());
    }

    let mut findings = Vec::new();
    if let Some(path) = telemetry {
        let text = std::fs::read_to_string(path)?;
        let rows = dgr::obs::rows_from_jsonl(&text)
            .map_err(|(line, e)| format!("{path}: line {line}: {e}"))?;
        println!("doctor: {} telemetry row(s) from {path}", rows.len());
        findings.extend(dgr::obs::analyze_rows(&rows));
    }
    if use_ledger {
        let path = resolve_ledger_path(args)?;
        let records = ledger::load(&path);
        println!(
            "doctor: {} ledger record(s) from {}",
            records.len(),
            path.display()
        );
        if let Some((prev, last)) = last_comparable_pair(&records) {
            findings.extend(dgr::obs::rate_collapse_finding(
                last.it_per_s,
                prev.it_per_s,
            ));
        }
    }
    dgr::obs::rank_findings(&mut findings);

    if findings.is_empty() {
        println!("doctor: no findings — the run looks healthy");
        return Ok(());
    }
    println!();
    for (i, f) in findings.iter().enumerate() {
        println!(
            "{:>3}. [{}] {} @ iteration {} — {}",
            i + 1,
            f.severity.as_str(),
            f.rule,
            f.iter,
            f.message
        );
        if let (Some((lo, first)), Some((hi, last))) = (f.evidence.first(), f.evidence.last()) {
            println!(
                "     evidence: iterations {lo}..{hi} ({} samples, {first:.4} -> {last:.4})",
                f.evidence.len()
            );
        }
    }
    println!();
    Err(format!(
        "{} health finding(s); worst verdict: {}",
        findings.len(),
        dgr::obs::verdict_of(&findings).as_str()
    )
    .into())
}

/// `dgr history`: render the persistent run ledger as a table, newest
/// runs last, with a per-phase delta against the previous comparable
/// run (same config fingerprint).
fn cmd_history(args: &[String]) -> CliResult {
    let path = resolve_ledger_path(args)?;
    let records = ledger::load(&path);
    if records.is_empty() {
        println!("ledger empty: {}", path.display());
        return Ok(());
    }
    let limit: usize = match flag_value(args, "--limit") {
        Some(v) => v.parse()?,
        None => 16,
    };
    let start = records.len().saturating_sub(limit);
    println!(
        "{:<16} {:<6} {:<16} {:>6} {:>6} {:>3} {:>9} {:>12} {:>9} {:>8}",
        "when", "cmd", "design", "iters", "nets", "b", "it/s", "loss", "wl", "ovf"
    );
    for r in &records[start..] {
        println!(
            "{:<16} {:<6} {:<16} {:>6} {:>6} {:>3} {:>9.1} {:>12.2} {:>9} {:>8.2}",
            fmt_ts(r.ts),
            r.cmd,
            r.design,
            r.iterations,
            r.nets,
            r.batch,
            r.it_per_s,
            r.loss,
            r.wirelength,
            r.overflow,
        );
    }
    if let Some((prev, last)) = last_comparable_pair(&records) {
        print_run_delta(prev, last);
    }
    println!();
    println!(
        "{} record(s) in {} (showing last {})",
        records.len(),
        path.display(),
        records.len() - start
    );
    Ok(())
}

fn resolve_ledger_path(args: &[String]) -> Result<std::path::PathBuf, Box<dyn std::error::Error>> {
    // `--ledger path` names a file explicitly; bare `--ledger` (as in
    // `compare --ledger`) falls through to the environment default.
    if let Some(p) = flag_value(args, "--ledger").filter(|p| !p.starts_with("--")) {
        return Ok(std::path::PathBuf::from(p));
    }
    ledger::ledger_path().ok_or_else(|| "ledger disabled (set DGR_LEDGER or HOME)".into())
}

/// The newest record plus the most recent earlier record sharing its
/// config fingerprint.
fn last_comparable_pair(records: &[LedgerRecord]) -> Option<(&LedgerRecord, &LedgerRecord)> {
    let last = records.last()?;
    let prev = records[..records.len() - 1]
        .iter()
        .rev()
        .find(|r| r.config_fp == last.config_fp)?;
    Some((prev, last))
}

fn print_run_delta(prev: &LedgerRecord, last: &LedgerRecord) {
    println!();
    println!(
        "delta vs previous comparable run (config {}):",
        &last.config_fp[..8.min(last.config_fp.len())]
    );
    let scalar = |name: &str, a: f64, b: f64, unit: &str| {
        println!(
            "  {:<18} {:>12.2} → {:<12.2} {:>8} {unit}",
            name,
            a,
            b,
            fmt_delta_pct(a, b)
        );
    };
    scalar("loss", prev.loss, last.loss, "");
    scalar(
        "wirelength",
        prev.wirelength as f64,
        last.wirelength as f64,
        "",
    );
    scalar("overflow", prev.overflow, last.overflow, "");
    scalar("it/s", prev.it_per_s, last.it_per_s, "");
    scalar("wall", prev.wall_ms as f64, last.wall_ms as f64, "ms");
    let mut names: Vec<&String> = prev.phases.keys().chain(last.phases.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let a = prev.phases.get(name).copied().unwrap_or(0.0);
        let b = last.phases.get(name).copied().unwrap_or(0.0);
        println!(
            "  phase {:<12} {:>12.2} → {:<12.2} {:>8} ms",
            name,
            a,
            b,
            fmt_delta_pct(a, b)
        );
    }
}

fn fmt_delta_pct(a: f64, b: f64) -> String {
    if a == 0.0 {
        return "—".to_string();
    }
    format!("{:+.1}%", 100.0 * (b - a) / a)
}

/// Formats a unix timestamp as `YYYY-MM-DD HH:MM` (UTC) — civil-from-days
/// without a date dependency.
fn fmt_ts(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe as i64 + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02} {:02}:{:02}",
        rem / 3600,
        (rem % 3600) / 60
    )
}

/// `dgr compare --ledger`: per-phase deltas of the last two comparable
/// ledger runs plus a short regression trend over the trailing window.
fn cmd_compare_ledger(args: &[String]) -> CliResult {
    let path = resolve_ledger_path(args)?;
    let records = ledger::load(&path);
    let Some((prev, last)) = last_comparable_pair(&records) else {
        return Err(format!(
            "need two runs with the same config in {} ({} record(s) present) — run the same \
             `dgr route`/`dgr train` twice",
            path.display(),
            records.len()
        )
        .into());
    };
    println!(
        "comparing the last two `{}` runs of {} ({} nets):",
        last.cmd, last.design, last.nets
    );
    print_run_delta(prev, last);
    let window: Vec<&LedgerRecord> = records
        .iter()
        .filter(|r| r.config_fp == last.config_fp)
        .collect();
    let tail = &window[window.len().saturating_sub(8)..];
    if tail.len() > 2 {
        println!();
        println!(
            "trend over the last {} comparable runs (oldest first):",
            tail.len()
        );
        let series = |name: &str, values: Vec<f64>| {
            println!("  {:<10} {}  {}", name, spark(&values), fmt_series(&values));
        };
        series("loss", tail.iter().map(|r| r.loss).collect());
        series("it/s", tail.iter().map(|r| r.it_per_s).collect());
        series("wall ms", tail.iter().map(|r| r.wall_ms as f64).collect());
    }
    Ok(())
}

fn spark(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            BARS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

fn fmt_series(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn cmd_compare(args: &[String]) -> CliResult {
    if args.iter().any(|a| a == "--ledger") {
        return cmd_compare_ledger(args);
    }
    let design = load_design(args)?;
    let cfg = config_from(args)?;
    let session = obs_session(args, "compare", cfg.iterations as u64, 1)?;
    println!(
        "{:<12} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "router", "wirelength", "turns", "ovf edges", "ovf total", "t(s)"
    );
    let run = |name: &str,
               solve: &mut dyn FnMut() -> Result<
        dgr::core::RoutingSolution,
        Box<dyn std::error::Error>,
    >|
     -> Result<dgr::core::RoutingSolution, Box<dyn std::error::Error>> {
        let t0 = std::time::Instant::now();
        let mut sol = solve()?;
        refine(&design, &mut sol, RefineConfig::default())?;
        let t = t0.elapsed().as_secs_f64();
        let m = &sol.metrics;
        println!(
            "{:<12} {:>10} {:>8} {:>10} {:>10.2} {:>8.2}",
            name,
            m.total_wirelength,
            m.total_turns,
            m.overflow.overflowed_edges,
            m.overflow.total_overflow,
            t
        );
        Ok(sol)
    };
    let dgr_sol = run("dgr", &mut || {
        Ok(DgrRouter::new(cfg.clone()).route(&design)?)
    })?;
    run("sequential", &mut || {
        Ok(SequentialRouter::default().route(&design)?)
    })?;
    run("sproute", &mut || {
        Ok(SprouteRouter::default().route(&design)?)
    })?;
    run("lagrangian", &mut || {
        Ok(LagrangianRouter::default().route(&design)?)
    })?;
    // The retained curve (TrainReport::curve) shows how the DGR loss moved
    // without re-running or re-deriving anything.
    if let Some(report) = &dgr_sol.train_report {
        if let (Some(first), Some(last)) = (report.curve.first(), report.curve.last()) {
            println!();
            println!(
                "dgr training: loss {:.2} → {:.2}, overflow {:.2} → {:.2} ({} curve points)",
                first.loss,
                last.loss,
                first.overflow,
                last.overflow,
                report.curve.len()
            );
        }
    }
    obs_finish(session)?;
    Ok(())
}
