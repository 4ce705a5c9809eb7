//! End-to-end and per-layer benchmark of the lddp serving stack.
//!
//! ```text
//! lddp-perfbench --cli <lddp-cli> --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics measured at
//! the client. Traced runs (`--trace 1`) report the per-layer metrics
//! and write their spans as Chrome trace JSON to `--out-dir`. The last
//! stdout line is the result object; the lines before it carry units,
//! sample counts, the environment and each layer metric's tag. See
//! `README.md` next to this package.

mod child;
mod gen;
mod layers;
mod load;
mod spans;
mod stats;
mod timing;

use child::ServerChild;
use gen::{Drive, Plan, Workload};
use layers::{series_sum, Values};
use lddp::serve_backend::FrameworkBackend;
use lddp::trace::json;
use lddp::trace::live::{parse_prometheus, LiveRegistry};
use lddp::trace::NullSink;
use lddp_serve::{Client, Priority, ServeConfig, Server};
use load::{Oracle, Outcome, Phase, Sample};
use spans::SpanLog;
use stats::{mean, median, quantile};
use std::sync::Arc;
use std::time::Instant;
use timing::TimingBackend;

/// Server sizing of every workload: `lddp-cli serve --workers 2` (the
/// in-process `flood` server uses the same configuration).
const WORKERS: usize = 2;

/// Latency charged to a refused or failed request: it misses every
/// latency limit.
const FAILED_MS: f64 = 1e9;

/// `(name, unit, tag)` of each end-to-end metric; the tag says on which
/// workloads the number is the one that matters.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "server start to every batch key answered once, median over the run's cold starts; cold tunes dominate large-stream"),
    ("latency_p50_ms", "ms", "client p50 of the foreground class (flood: interactive, from due time)"),
    ("ttfb_p50_ms", "ms", "first usable result: first band frame when streamed (large-stream), else the whole reply"),
    ("peak_rss_mib", "MiB", "server VmHWM, median over starts (flood: the benchmark process after its first start)"),
];

/// `(name, unit, tag)` of each per-layer metric of the traced run. The
/// tag names the end-to-end metric and workload it should move.
const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "problems.cells_per_s.scalar",
        "cells/s",
        "ttfb_p50_ms, latency_p50_ms @ large-stream; flat @ small-http",
    ),
    (
        "problems.cells_per_s.bulk",
        "cells/s",
        "ttfb_p50_ms, latency_p50_ms @ large-stream; flat @ small-http",
    ),
    (
        "problems.cells_per_s.simd",
        "cells/s",
        "ttfb_p50_ms, latency_p50_ms @ large-stream; flat @ small-http",
    ),
    (
        "problems.cells_per_s.bitparallel",
        "cells/s",
        "latency_p50_ms @ small-http (lcs); lcs instance of the workload's n",
    ),
    (
        "problems.bytes_per_cell",
        "B",
        "computed, not measured: full-table bytes per cell; peak_rss_mib @ wave-1024",
    ),
    ("parallel.solve_ms.t1", "ms", "latency_p50_ms @ wave-1024"),
    ("parallel.solve_ms.t2", "ms", "latency_p50_ms @ wave-1024"),
    (
        "parallel.waves",
        "count",
        "latency_p50_ms @ wave-1024 (barriers per solve)",
    ),
    (
        "parallel.barrier_us_per_wave",
        "us",
        "latency_p50_ms @ wave-1024",
    ),
    (
        "parallel.run_lock_wait_ms",
        "ms",
        "latency_p50_ms @ wave-1024",
    ),
    (
        "parallel.solve_p99_over_p50",
        "ratio",
        "client.latency_p99_ms @ wave-1024",
    ),
    (
        "parallel.server_barrier_wait_ms_per_solve",
        "ms",
        "latency_p50_ms @ wave-1024 (server /metrics delta)",
    ),
    ("core.tune_ms.cold", "ms", "setup_s @ large-stream"),
    ("core.tune_ms.warm", "ms", "latency_p50_ms @ small-http"),
    (
        "core.tune_tier_flip_frac",
        "frac",
        "latency_p50_ms @ wave-1024, flood (a cold tune off the modal tier)",
    ),
    (
        "core.tune_cache_hit_ratio",
        "ratio",
        "latency_p50_ms @ small-http",
    ),
    (
        "core.tune_rss_delta_mib",
        "MiB",
        "peak_rss_mib @ large-stream",
    ),
    (
        "core.rolling_peak_bytes",
        "B",
        "peak_rss_mib @ large-stream",
    ),
    (
        "backend.plan_ms.p50",
        "ms",
        "latency_p50_ms @ small-http, wave-1024",
    ),
    (
        "backend.plan_ms.p99",
        "ms",
        "client.latency_p99_ms @ small-http, wave-1024",
    ),
    (
        "backend.solve_ms.p50",
        "ms",
        "latency_p50_ms @ small-http, wave-1024",
    ),
    (
        "backend.solve_ms.p99",
        "ms",
        "client.latency_p99_ms @ small-http, wave-1024",
    ),
    (
        "backend.overhead_ms",
        "ms",
        "latency_p50_ms @ small-http, wave-1024",
    ),
    (
        "serve.queue_ms.interactive.p50",
        "ms",
        "latency_p50_ms @ flood; flat @ large-stream",
    ),
    (
        "serve.queue_ms.interactive.p99",
        "ms",
        "client.latency_p99_ms @ flood; flat @ large-stream",
    ),
    (
        "serve.queue_ms.batch.p50",
        "ms",
        "client.batch_goodput_rps @ flood",
    ),
    (
        "serve.queue_ms.batch.p99",
        "ms",
        "client.batch_goodput_rps @ flood",
    ),
    (
        "serve.batch_ms.interactive.p50",
        "ms",
        "latency_p50_ms @ flood; flat @ large-stream",
    ),
    (
        "serve.batch_ms.interactive.p99",
        "ms",
        "client.latency_p99_ms @ flood",
    ),
    (
        "serve.batch_ms.batch.p50",
        "ms",
        "client.batch_goodput_rps @ flood",
    ),
    (
        "serve.batch_ms.batch.p99",
        "ms",
        "client.batch_goodput_rps @ flood",
    ),
    (
        "serve.batch_size_mean",
        "count",
        "client.batch_goodput_rps @ flood",
    ),
    (
        "serve.refused_frac.queue_full",
        "frac",
        "client.batch_goodput_rps @ flood",
    ),
    (
        "serve.refused_frac.brownout_shed",
        "frac",
        "client.batch_goodput_rps @ flood",
    ),
    (
        "serve.refused_frac.tenant_quota",
        "frac",
        "client.batch_goodput_rps @ flood",
    ),
    (
        "serve.refused_frac.deadline",
        "frac",
        "client.batch_goodput_rps @ flood",
    ),
    (
        "serve.brownout_transitions",
        "count",
        "latency_p50_ms @ flood",
    ),
    (
        "serve.worker_busy_frac",
        "frac",
        "latency_p50_ms @ flood, wave-1024",
    ),
    ("http.residual_ms.p50", "ms", "latency_p50_ms @ small-http"),
    (
        "http.residual_ms.p99",
        "ms",
        "client.latency_p99_ms @ small-http",
    ),
    ("http.req_encode_us", "us", "latency_p50_ms @ small-http"),
    ("http.resp_decode_us", "us", "latency_p50_ms @ small-http"),
    (
        "http.stream_backpressure_stalls",
        "count",
        "ttfb_p50_ms @ large-stream",
    ),
    (
        "hetero-sim.virtual_ms",
        "ms",
        "none: model time, must repeat exactly",
    ),
    (
        "hetero-sim.estimate_us",
        "us",
        "latency_p50_ms @ small-http (admission cost)",
    ),
    (
        "trace.live_overhead_frac",
        "frac",
        "latency_p50_ms @ wave-1024 (live telemetry is always on in the server)",
    ),
    (
        "trace.traced_run_overhead_frac",
        "frac",
        "none: the benchmark's own tracing cost",
    ),
    (
        "client.throughput_rps",
        "1/s",
        "latency_p50_ms on the same workload (a closed loop's rate is connections / latency)",
    ),
    (
        "client.cells_per_s",
        "cells/s",
        "latency_p50_ms, ttfb_p50_ms @ large-stream, wave-1024",
    ),
    (
        "client.latency_p99_ms",
        "ms",
        "tail of latency_p50_ms on the same workload",
    ),
    (
        "client.ttfb_p99_ms",
        "ms",
        "tail of ttfb_p50_ms @ large-stream",
    ),
    (
        "client.batch_goodput_rps",
        "1/s",
        "flood's batch class (flood is not gated)",
    ),
    (
        "client.failed_frac",
        "frac",
        "every workload; failures also show in the result's failed count",
    ),
    (
        "gen.late_p99_ms",
        "ms",
        "none: open-loop sender health @ flood (0 on closed loops)",
    ),
];

struct Args {
    cli: String,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let name = need("--workload")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        cli: need("--cli")?.to_string(),
        workload: gen::workload(name).ok_or(format!("unknown workload {name}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        out_dir: get("--out-dir").unwrap_or("perfbench/out").to_string(),
    })
}

/// Request accounting across every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    mismatched: usize,
}

impl Tally {
    fn add(&mut self, samples: &[Sample]) {
        for s in samples {
            self.attempted += 1;
            match &s.outcome {
                Outcome::Ok => {}
                Outcome::Mismatch => {
                    self.failed += 1;
                    self.mismatched += 1;
                }
                Outcome::Failed(_) => self.failed += 1,
            }
        }
    }
}

fn ok(s: &Sample) -> bool {
    s.outcome == Outcome::Ok
}

/// Latency quantile of the foreground (interactive) class with its
/// sample count; failures count as missing every limit.
fn pct(phase: &Phase, q: f64, field: fn(&Sample) -> f64) -> (f64, usize) {
    let v: Vec<f64> = phase
        .samples
        .iter()
        .filter(|s| s.priority == Priority::Interactive)
        .map(|s| if ok(s) { field(s) } else { FAILED_MS })
        .collect();
    (quantile(&v, q), v.len())
}

/// The end-to-end metrics of a run: `(name, value, samples)`.
/// Latencies are quantiles of every sample of every server start.
fn end_to_end(
    slices: &[Phase],
    setups: &[f64],
    rss_mib: &[f64],
) -> Vec<(&'static str, f64, usize)> {
    let all = Phase {
        samples: slices
            .iter()
            .flat_map(|p| p.samples.iter().cloned())
            .collect(),
        ..Phase::default()
    };
    let (p50, fg) = pct(&all, 0.5, |s| s.latency_ms);
    vec![
        ("setup_s", median(setups), setups.len()),
        ("latency_p50_ms", p50, fg),
        ("ttfb_p50_ms", pct(&all, 0.5, |s| s.ttfb_ms).0, fg),
        ("peak_rss_mib", median(rss_mib), rss_mib.len()),
    ]
}

fn stats_field(stats_json: &str, path: &[&str]) -> f64 {
    let Ok(v) = json::parse(stats_json) else {
        return 0.0;
    };
    let mut at = &v;
    for key in path {
        match at.get(key) {
            Some(next) => at = next,
            None => return 0.0,
        }
    }
    at.as_f64().unwrap_or(0.0)
}

/// `(/metrics, /stats)` of a server at one moment.
type Scrape = (Vec<(String, f64)>, String);

/// Per-layer values derived from a measured (untraced) phase and the
/// server's counters around it.
fn phase_layers(phase: &Phase, before: &Scrape, after: &Scrape, out: &mut Values) {
    let class = |p: Priority| -> Vec<&Sample> {
        phase
            .samples
            .iter()
            .filter(|s| ok(s) && s.priority == p)
            .collect()
    };
    for (p, label) in [
        (Priority::Interactive, "interactive"),
        (Priority::Batch, "batch"),
    ] {
        let c = class(p);
        let q: Vec<f64> = c.iter().map(|s| s.stages.queue_ms).collect();
        let b: Vec<f64> = c.iter().map(|s| s.stages.batch_ms).collect();
        out.push((format!("serve.queue_ms.{label}.p50"), quantile(&q, 0.5)));
        out.push((format!("serve.queue_ms.{label}.p99"), quantile(&q, 0.99)));
        out.push((format!("serve.batch_ms.{label}.p50"), quantile(&b, 0.5)));
        out.push((format!("serve.batch_ms.{label}.p99"), quantile(&b, 0.99)));
    }
    let good: Vec<&Sample> = phase.samples.iter().filter(|s| ok(s)).collect();
    let attempted = phase.samples.len().max(1) as f64;
    let sizes: Vec<f64> = good.iter().map(|s| s.stages.batch_size as f64).collect();
    out.push(("serve.batch_size_mean".into(), mean(&sizes)));
    for (label, codes) in [
        ("queue_full", &["queue_full"][..]),
        ("brownout_shed", &["brownout_shed"][..]),
        ("tenant_quota", &["tenant_quota"][..]),
        (
            "deadline",
            &["deadline_exceeded", "deadline_infeasible"][..],
        ),
    ] {
        let refused = phase
            .samples
            .iter()
            .filter(|s| matches!(&s.outcome, Outcome::Failed(c) if codes.contains(&c.as_str())))
            .count();
        out.push((
            format!("serve.refused_frac.{label}"),
            refused as f64 / attempted,
        ));
    }
    let stat = |path: &[&str]| stats_field(&after.1, path) - stats_field(&before.1, path);
    out.push((
        "serve.brownout_transitions".into(),
        stat(&["qos", "brownout_engaged"]) + stat(&["qos", "brownout_disengaged"]),
    ));
    let busy_ms: f64 = good
        .iter()
        .map(|s| s.stages.solve_ms + s.stages.tune_ms / s.stages.batch_size.max(1) as f64)
        .sum();
    out.push((
        "serve.worker_busy_frac".into(),
        busy_ms / 1e3 / (WORKERS as f64 * phase.window_s),
    ));
    let hits = stat(&["tuner_cache", "hits"]);
    let misses = stat(&["tuner_cache", "misses"]);
    out.push((
        "core.tune_cache_hit_ratio".into(),
        hits / (hits + misses).max(1.0),
    ));

    let residual: Vec<f64> = good
        .iter()
        .map(|s| s.latency_ms - s.stages.sum_ms())
        .collect();
    out.push(("http.residual_ms.p50".into(), quantile(&residual, 0.5)));
    out.push(("http.residual_ms.p99".into(), quantile(&residual, 0.99)));
    let delta = |name: &str| series_sum(&after.0, name) - series_sum(&before.0, name);
    out.push((
        "http.stream_backpressure_stalls".into(),
        delta("lddp_serve_stream_backpressure_stalls_total"),
    ));
    out.push((
        "parallel.server_barrier_wait_ms_per_solve".into(),
        delta("lddp_pool_barrier_wait_seconds_sum") * 1e3
            / delta("lddp_pool_solves_total").max(1.0),
    ));

    out.push((
        "client.throughput_rps".into(),
        good.len() as f64 / phase.window_s,
    ));
    out.push((
        "client.cells_per_s".into(),
        good.iter().map(|s| s.cells).sum::<f64>() / phase.window_s,
    ));
    out.push((
        "client.latency_p99_ms".into(),
        pct(phase, 0.99, |s| s.latency_ms).0,
    ));
    out.push((
        "client.ttfb_p99_ms".into(),
        pct(phase, 0.99, |s| s.ttfb_ms).0,
    ));
    let batch_ok = good
        .iter()
        .filter(|s| s.priority == Priority::Batch)
        .count();
    out.push((
        "client.batch_goodput_rps".into(),
        batch_ok as f64 / phase.window_s,
    ));
    out.push((
        "client.failed_frac".into(),
        (phase.samples.len() - good.len()) as f64 / attempted,
    ));
    let late: Vec<f64> = phase.samples.iter().map(|s| s.late_ms).collect();
    out.push(("gen.late_p99_ms".into(), quantile(&late, 0.99)));
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// Set-up counts only when every key was answered; a wrong answer is
/// left to the result's `correct`.
fn all_answered(samples: &[Sample]) -> Result<(), String> {
    match samples
        .iter()
        .find(|s| matches!(s.outcome, Outcome::Failed(_)))
    {
        None => Ok(()),
        Some(s) => Err(format!("set-up: a request ended {:?}", s.outcome)),
    }
}

fn scrape_child(server: &ServerChild) -> Result<Scrape, String> {
    Ok((
        parse_prometheus(&server.get("/metrics")?),
        server.get("/stats")?,
    ))
}

fn scrape_client(client: &Client<'_, '_>) -> Scrape {
    (
        parse_prometheus(&client.metrics_text()),
        client.stats_json(),
    )
}

/// What a run measured, before printing.
struct Report {
    tally: Tally,
    e2e: Vec<(&'static str, f64, usize)>,
    layers: Values,
    phase: Phase,
    trace_file: Option<(String, usize)>,
}

/// Untraced HTTP run: `servers` cold starts of the server child, each
/// set up and then driven by the closed loop for its slice of the run.
fn http_untraced(
    a: &Args,
    plan: &Plan,
    oracle: &Oracle,
    conns: usize,
    streamed: bool,
) -> Result<Report, String> {
    let k = a.workload.servers;
    let mut tally = Tally::default();
    let (mut setups, mut rss, mut slices) = (Vec::new(), Vec::new(), Vec::new());
    for slice in 0..k {
        let t0 = Instant::now();
        let server = ServerChild::spawn(&a.cli)?;
        let keys = load::answer_keys(plan, &mut load::http_sender(&server.addr, streamed), oracle);
        setups.push(t0.elapsed().as_secs_f64());
        tally.add(&keys);
        all_answered(&keys)?;
        let addr = server.addr.clone();
        let phase = load::closed_loop(
            plan,
            slice,
            conns,
            a.seconds / k as f64,
            oracle,
            None,
            &|| load::http_sender(&addr, streamed),
        );
        rss.push(server.peak_rss_mib()?);
        server.shutdown()?;
        tally.add(&phase.samples);
        slices.push(phase);
    }
    Ok(Report {
        tally,
        e2e: end_to_end(&slices, &setups, &rss),
        layers: Vec::new(),
        phase: slices.swap_remove(0),
        trace_file: None,
    })
}

/// Untraced flood run: `servers` cold starts of an in-process server,
/// each set up and then driven by the open loop for its slice.
fn flood_untraced(a: &Args, plan: &Plan, oracle: &Oracle) -> Result<Report, String> {
    let k = a.workload.servers;
    let mut tally = Tally::default();
    let (mut setups, mut rss, mut slices) = (Vec::new(), Vec::new(), Vec::new());
    for slice in 0..k {
        let t0 = Instant::now();
        let live = Arc::new(LiveRegistry::new());
        let backend = FrameworkBackend::new().with_live(Arc::clone(&live));
        let mut server = Server::new(serve_config(), &backend, &NullSink);
        server.attach_live(live);
        let phase = server.run(None, |client| {
            let keys = load::answer_keys(plan, &mut load::client_sender(client), oracle);
            setups.push(t0.elapsed().as_secs_f64());
            tally.add(&keys);
            all_answered(&keys)?;
            Ok::<_, String>(load::open_loop(
                plan,
                slice,
                client,
                a.seconds / k as f64,
                oracle,
                None,
            ))
        })?;
        // Later in-process starts inherit the process's high-water mark
        // (and its allocator arenas), so only the first start's counts.
        if slice == 0 {
            rss.push(child::vm_field("/proc/self/status", "VmHWM:")?);
        }
        tally.add(&phase.samples);
        slices.push(phase);
    }
    Ok(Report {
        tally,
        e2e: end_to_end(&slices, &setups, &rss),
        layers: Vec::new(),
        phase: slices.swap_remove(0),
        trace_file: None,
    })
}

/// Foreground p50 of a phase, for the traced-against-untraced overhead.
fn fg_p50(phase: &Phase) -> f64 {
    pct(phase, 0.5, |s| s.latency_ms).0
}

/// Traced run: an untraced half and a traced half of the measured loop
/// on one warm server, a backend replay in-process behind the timing
/// decorator, then the per-layer probes.
fn traced(a: &Args, plan: &Plan, oracle: &Oracle) -> Result<Report, String> {
    let epoch = Instant::now();
    let log = SpanLog::new(epoch);
    let mut tally = Tally::default();
    let mut layers: Values = Vec::new();
    let half = a.seconds / 2.0;
    let untraced: Phase;
    let traced_phase: Phase;
    let backend = FrameworkBackend::new();
    let timed = TimingBackend::new(&backend, Some(&log));
    let resp;
    let first = plan.key_requests()[0].clone();
    match a.workload.drive {
        Drive::Closed { conns, stream } => {
            let server = ServerChild::spawn(&a.cli)?;
            let keys =
                load::answer_keys(plan, &mut load::http_sender(&server.addr, stream), oracle);
            tally.add(&keys);
            all_answered(&keys)?;
            let addr = server.addr.clone();
            let connect = || load::http_sender(&addr, stream);
            let before = scrape_child(&server)?;
            untraced = load::closed_loop(plan, 0, conns, half, oracle, None, &connect);
            let after = scrape_child(&server)?;
            traced_phase = load::closed_loop(plan, 0, conns, half, oracle, Some(&log), &connect);
            server.shutdown()?;
            phase_layers(&untraced, &before, &after, &mut layers);
            // The backend layer, in-process behind the timing decorator.
            let server = Server::new(serve_config(), &timed, &NullSink);
            resp = server.run(None, |client| {
                let keys = load::answer_keys(plan, &mut load::client_sender(client), oracle);
                tally.add(&keys);
                let replay =
                    load::closed_loop(plan, 0, conns, half.min(3.0), oracle, None, &|| {
                        load::client_sender(client)
                    });
                tally.add(&replay.samples);
                client.solve(first.clone()).map_err(|e| e.message())
            });
        }
        Drive::Flood => {
            let live = Arc::new(LiveRegistry::new());
            let plain = FrameworkBackend::new().with_live(Arc::clone(&live));
            let mut server = Server::new(serve_config(), &plain, &NullSink);
            server.attach_live(live);
            let (u, before, after) = server.run(None, |client| {
                let keys = load::answer_keys(plan, &mut load::client_sender(client), oracle);
                tally.add(&keys);
                let before = scrape_client(client);
                let u = load::open_loop(plan, 0, client, half, oracle, None);
                (u, before, scrape_client(client))
            });
            untraced = u;
            phase_layers(&untraced, &before, &after, &mut layers);
            let server = Server::new(serve_config(), &timed, &NullSink);
            let (t, r) = server.run(None, |client| {
                let keys = load::answer_keys(plan, &mut load::client_sender(client), oracle);
                tally.add(&keys);
                let t = load::open_loop(plan, 0, client, half, oracle, Some(&log));
                (t, client.solve(first.clone()).map_err(|e| e.message()))
            });
            traced_phase = t;
            resp = r;
        }
    }
    let resp = resp?;
    tally.add(&untraced.samples);
    tally.add(&traced_phase.samples);
    layers.push((
        "trace.traced_run_overhead_frac".into(),
        fg_p50(&traced_phase) / fg_p50(&untraced) - 1.0,
    ));
    for (name, p50, p99, _) in timed.summary() {
        layers.push((format!("backend.{name}_ms.p50"), p50));
        layers.push((format!("backend.{name}_ms.p99"), p99));
    }
    layers::codec_probes(&first, &resp, &mut layers)?;
    // The workload's layer instance: its last batch key, the largest
    // drawn size of its heaviest stream.
    let heavy = plan
        .key_requests()
        .into_iter()
        .last()
        .expect("a workload has keys");
    let want = oracle
        .get(&(heavy.problem.clone(), heavy.n))
        .ok_or("layer instance has no oracle answer")?;
    layers::probe_instance(&heavy.problem, heavy.n, want, &mut layers, &log)?;

    let path = std::path::Path::new(&a.out_dir)
        .join(format!("trace-{}-seed{}.json", a.workload.name, a.seed));
    let spans = log.write(&path)?;
    Ok(Report {
        tally,
        e2e: Vec::new(),
        layers,
        phase: untraced,
        trace_file: Some((path.display().to_string(), spans)),
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", lddp::trace::json::escape(s))
}

fn run() -> Result<(), String> {
    let a = parse_args()?;
    let plan = Plan::new(a.workload, a.seed);
    let oracle = load::oracle(&plan)?;
    let report = match (a.trace, a.workload.drive) {
        (true, _) => traced(&a, &plan, &oracle)?,
        (false, Drive::Closed { conns, stream }) => {
            http_untraced(&a, &plan, &oracle, conns, stream)?
        }
        (false, Drive::Flood) => flood_untraced(&a, &plan, &oracle)?,
    };

    // Environment and load-generator facts of this run.
    let offered: Vec<String> = a
        .workload
        .streams
        .iter()
        .map(|s| {
            format!(
                "{{\"class\":\"{}\",\"rps\":{}}}",
                s.priority.as_str(),
                s.rps
            )
        })
        .collect();
    let sizes: Vec<String> = a
        .workload
        .streams
        .iter()
        .zip(&plan.sizes)
        .flat_map(|(s, per)| s.problems.iter().zip(per))
        .map(|(p, ns)| match ns.as_slice() {
            [lo, .., hi] if ns.len() == hi - lo + 1 => json_str(&format!("{p}:{lo}-{hi}")),
            _ => json_str(&format!("{p}:{ns:?}")),
        })
        .collect();
    println!(
        "{{\"env\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"nproc\":{},\"simd_backend\":{},\
         \"avx512\":{},\"server\":{},\"drive\":{},\"offered\":[{}],\"client_threads\":{},\
         \"client_connections\":{},\"instances\":[{}]}}}}",
        json_str(a.workload.name),
        a.seed,
        a.trace,
        a.seconds,
        layers::host_threads(),
        json_str(lddp::core::kernel::simd_backend()),
        lddp::core::kernel::avx512_available(),
        json_str(&match a.workload.drive {
            Drive::Closed { .. } => format!("lddp-cli {}", child::SERVER_ARGS.join(" ")),
            Drive::Flood => format!("in-process Server + FrameworkBackend, workers={WORKERS}"),
        }),
        json_str(&format!("{:?}", a.workload.drive)),
        offered.join(","),
        report.phase.threads,
        report.phase.connections,
        sizes.join(","),
    );

    let mut metrics: Vec<String> = Vec::new();
    if a.trace {
        for (name, unit, tag) in PER_LAYER {
            let value = report
                .layers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or(format!("per-layer metric {name} was not measured"))?;
            println!(
                "{{\"layer\":{},\"value\":{value},\"unit\":{},\"moves\":{}}}",
                json_str(name),
                json_str(unit),
                json_str(tag)
            );
            metrics.push(format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            ));
        }
        if let Some((path, spans)) = &report.trace_file {
            println!("{{\"chrome_trace\":{},\"spans\":{spans}}}", json_str(path));
        }
    } else {
        for (name, unit, tag) in END_TO_END {
            let (_, value, samples) = report
                .e2e
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or(format!("end-to-end metric {name} was not measured"))?;
            println!(
                "{{\"metric\":{},\"value\":{value},\"unit\":{},\"samples\":{samples},\"about\":{}}}",
                json_str(name),
                json_str(unit),
                json_str(tag)
            );
            metrics.push(format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            ));
        }
    }
    let t = &report.tally;
    if t.attempted == 0 {
        return Err("no request was attempted".into());
    }
    let correct = t.mismatched == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.attempted,
        t.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("lddp-perfbench: {e}");
            std::process::exit(2);
        }
    }
}
