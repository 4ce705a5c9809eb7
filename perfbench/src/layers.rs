//! Per-layer probes of the traced run: timed calls into each layer's
//! public functions on the workload's own instance. Every grid a probe
//! computes is checked against the oracle answer of that instance.

use crate::spans::{SpanLog, PROBE_PID};
use crate::stats::{median, quantile, reps_for, time_median};
use lddp::cli;
use lddp::core::kernel::{ExecTier, Kernel};
use lddp::core::rolling;
use lddp::core::{Dims, Grid, TuneKey, TunerCache};
use lddp::parallel::ParallelEngine;
use lddp::serve_backend::FrameworkBackend;
use lddp::trace::live::{parse_prometheus, LiveRegistry};
use lddp::trace::NullSink;
use lddp_serve::{SolveBackend, SolveRequest, SolveResponse};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Named per-layer values, in emission order.
pub type Values = Vec<(String, f64)>;

/// Engine threads of the serving backend (`FrameworkBackend::new`
/// sizes its pool to the host), used for every multi-thread probe.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sum of every series of `name` (any labels) in a Prometheus scrape.
pub fn series_sum(scrape: &[(String, f64)], name: &str) -> f64 {
    scrape
        .iter()
        .filter(|(s, _)| s.split('{').next() == Some(name))
        .map(|(_, v)| v)
        .sum()
}

/// Runs `$body` with `$k` bound to the serving instance of `(problem,
/// n)` and `$answer` to its headline-answer formatter — the same
/// sequences and strings as the CLI problem registry, so a probe's
/// answer compares equal to the oracle's.
macro_rules! with_instance {
    ($problem:expr, $n:expr, |$k:ident, $answer:ident| $body:block) => {{
        let n: usize = $n;
        let seq = |seed: u64| lddp::workloads::random_seq(n, 4, seed);
        match $problem {
            "levenshtein" => {
                let $k = lddp::problems::LevenshteinKernel::new(seq(1), seq(2));
                let $answer = |k: &lddp::problems::LevenshteinKernel, g: &Grid<u32>| {
                    let d = k.dims();
                    format!("edit distance = {}", g.get(d.rows - 1, d.cols - 1))
                };
                $body
            }
            "lcs" => {
                let $k = lddp::problems::LcsKernel::new(seq(3), seq(4));
                let $answer = |k: &lddp::problems::LcsKernel, g: &Grid<u32>| {
                    let d = k.dims();
                    format!("LCS length = {}", g.get(d.rows - 1, d.cols - 1))
                };
                $body
            }
            "needleman-wunsch" => {
                let $k = lddp::problems::NeedlemanWunschKernel::new(seq(9), seq(10));
                let $answer = |k: &lddp::problems::NeedlemanWunschKernel, g: &Grid<i32>| {
                    let d = k.dims();
                    format!("global alignment score = {}", g.get(d.rows - 1, d.cols - 1))
                };
                $body
            }
            other => Err(format!("no layer probe for problem {other}")),
        }
    }};
}

/// Samples this process's `VmRSS` every millisecond while `f` runs and
/// returns `f`'s result with the peak rise over the starting value, MiB.
fn with_rss_peak<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let rss = || crate::child::vm_field("/proc/self/status", "VmRSS:").unwrap_or(0.0);
    let base = rss();
    let stop = AtomicBool::new(false);
    let peak = Mutex::new(base);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let now = rss();
                let mut p = peak.lock().expect("rss sampler poisoned");
                *p = p.max(now);
                drop(p);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    });
    let peak = peak.into_inner().expect("rss sampler poisoned");
    (out, (peak - base).max(0.0))
}

/// Medians of `reps` alternating timings of `a` and `b`, seconds.
fn interleaved(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        a();
        ta.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        b();
        tb.push(t.elapsed().as_secs_f64());
    }
    (median(&ta), median(&tb))
}

fn check(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: answer {got:?} differs from the oracle's {want:?}"
        ))
    }
}

fn engine_probes<K: Kernel>(
    k: &K,
    answer: &dyn Fn(&K, &Grid<K::Cell>) -> String,
    want: &str,
    out: &mut Values,
    log: &SpanLog,
) -> Result<(), String> {
    let d = k.dims();
    let cells = (d.rows * d.cols) as f64;
    let solve = |e: &ParallelEngine| -> Result<Grid<K::Cell>, String> {
        e.solve(k).map_err(|e| e.to_string())
    };
    let timed_solves = |e: &ParallelEngine, budget_s: f64, name: &str| -> Result<f64, String> {
        let t0 = Instant::now();
        let grid = solve(e)?;
        let one = t0.elapsed().as_secs_f64();
        check(name, &answer(k, &grid), want)?;
        drop(grid);
        let t = time_median(reps_for(one, budget_s, 3, 200), || {
            black_box(solve(e).ok());
        });
        log.push(log.span(name, PROBE_PID, 1, t0, Instant::now()));
        Ok(t)
    };

    // problems: kernel bodies at one thread, per tier.
    for (tier, label) in [
        (ExecTier::Scalar, "scalar"),
        (ExecTier::Bulk, "bulk"),
        (ExecTier::Simd, "simd"),
    ] {
        let e = ParallelEngine::new(1).with_tier(Some(tier));
        let t = timed_solves(&e, 0.4, &format!("problems.{label}"))?;
        out.push((format!("problems.cells_per_s.{label}"), cells / t));
    }
    out.push((
        "problems.bytes_per_cell".into(),
        rolling::full_table_bytes(k) as f64 / cells,
    ));

    // parallel: engine at 1 and 2 threads, barrier cost, pool contention.
    let t1 = timed_solves(&ParallelEngine::new(1), 0.4, "parallel.t1")?;
    let waves = (d.rows + d.cols - 1) as f64;
    // The plain engine and the live-instrumented one (what the server
    // runs), interleaved so drift on a shared host hits both alike.
    let live = Arc::new(LiveRegistry::new());
    let plain = ParallelEngine::new(2);
    let traced = ParallelEngine::new(2).with_live(Arc::clone(&live));
    let t0 = Instant::now();
    check("parallel.t2", &answer(k, &solve(&plain)?), want)?;
    check("trace.live", &answer(k, &solve(&traced)?), want)?;
    let reps = reps_for(t0.elapsed().as_secs_f64() / 2.0, 0.4, 21, 400);
    let (t2, t_live) = interleaved(reps, || drop(solve(&plain)), || drop(solve(&traced)));
    log.push(log.span("parallel.t2+trace.live", PROBE_PID, 1, t0, Instant::now()));
    out.push(("parallel.solve_ms.t1".into(), t1 * 1e3));
    out.push(("parallel.solve_ms.t2".into(), t2 * 1e3));
    out.push(("parallel.waves".into(), waves));
    let scrape = parse_prometheus(&live.to_prometheus());
    let barrier_s = series_sum(&scrape, "lddp_pool_barrier_wait_seconds_sum");
    let solves = series_sum(&scrape, "lddp_pool_solves_total").max(1.0);
    out.push((
        "parallel.barrier_us_per_wave".into(),
        barrier_s / solves / waves * 1e6,
    ));
    out.push(("trace.live_overhead_frac".into(), t_live / t2 - 1.0));

    let shared = ParallelEngine::new(2);
    let reps = reps_for(t2, 0.6, 10, 200);
    let lat = |e: &ParallelEngine| -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(solve(e).ok());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    };
    let solo = median(&lat(&shared));
    let both: Vec<f64> = std::thread::scope(|s| {
        let a = s.spawn(|| lat(&shared.clone()));
        let b = s.spawn(|| lat(&shared.clone()));
        let mut v = a.join().expect("probe thread panicked");
        v.extend(b.join().expect("probe thread panicked"));
        v
    });
    out.push(("parallel.run_lock_wait_ms".into(), median(&both) - solo));
    out.push((
        "parallel.solve_p99_over_p50".into(),
        quantile(&both, 0.99) / median(&both),
    ));
    Ok(())
}

/// Every probe on one instance: kernel, engine, tuner, backend and cost
/// model, appended to `out`.
pub fn probe_instance(
    problem: &str,
    n: usize,
    want: &str,
    out: &mut Values,
    log: &SpanLog,
) -> Result<(), String> {
    with_instance!(problem, n, |k, answer| {
        engine_probes(&k, &answer, want, out, log)?;
        let rolled = ParallelEngine::new(host_threads())
            .solve_rolling(&k, None)
            .map_err(|e| e.to_string())?;
        out.push(("core.rolling_peak_bytes".into(), rolled.peak_bytes as f64));
        Ok::<(), String>(())
    })?;

    // The bit-parallel row kernel only exists for lcs; other workloads
    // time it on the lcs instance of the same size.
    let (a, b) = (
        lddp::workloads::random_seq(n, 4, 3),
        lddp::workloads::random_seq(n, 4, 4),
    );
    let one = time_median(1, || {
        black_box(lddp::problems::lcs::lcs_length_bitparallel(&a, &b));
    });
    let t = time_median(reps_for(one, 0.2, 3, 2000), || {
        black_box(lddp::problems::lcs::lcs_length_bitparallel(&a, &b));
    });
    out.push((
        "problems.cells_per_s.bitparallel".into(),
        (n * n) as f64 / t,
    ));

    // core: a cold tune (fresh pool, empty cache), then a cache hit.
    let cache = TunerCache::new();
    let pattern = cli::classify_problem(problem, n)?;
    let key = TuneKey::new(pattern, Dims::new(n, n), "high");
    let engine = ParallelEngine::new(host_threads());
    let t0 = Instant::now();
    let (tuned, rss_mib) =
        with_rss_peak(|| cache.get_or_tune(&key, || cli::tune_config(problem, n, "high", &engine)));
    let (config, _) = tuned?;
    let cold = t0.elapsed();
    log.push(log.span("core.tune.cold", PROBE_PID, 2, t0, Instant::now()));
    let warm = time_median(1000, || {
        black_box(
            cache
                .get_or_tune(&key, || cli::tune_config(problem, n, "high", &engine))
                .ok(),
        );
    });
    // The tier half of a cold tune is one wall-clock solve per tier:
    // repeat it on fresh engines and count picks off the modal tier.
    let mut tiers = vec![config.tier];
    for _ in 1..reps_for(cold.as_secs_f64(), 2.0, 3, 9) {
        tiers
            .push(cli::tune_config(problem, n, "high", &ParallelEngine::new(host_threads()))?.tier);
    }
    let modal = tiers
        .iter()
        .map(|t| tiers.iter().filter(|u| *u == t).count())
        .max()
        .unwrap_or(0);
    out.push((
        "core.tune_tier_flip_frac".into(),
        1.0 - modal as f64 / tiers.len() as f64,
    ));
    out.push(("core.tune_ms.cold".into(), cold.as_secs_f64() * 1e3));
    out.push(("core.tune_ms.warm".into(), warm * 1e3));
    out.push(("core.tune_rss_delta_mib".into(), rss_mib));

    // hetero-sim: the §IV model's virtual time (deterministic) and the
    // admission-time estimate the server pays per request.
    let virtual_s = cli::estimate_virtual(problem, n, "high", config.params)?;
    out.push(("hetero-sim.virtual_ms".into(), virtual_s * 1e3));
    let backend = FrameworkBackend::new();
    let req = SolveRequest::new(problem, n);
    let (config, _) = backend.tune(&req, &NullSink)?;
    let est = time_median(2000, || {
        black_box(backend.estimate_ms(&req));
    });
    out.push(("hetero-sim.estimate_us".into(), est * 1e6));

    // backend: dispatch and input generation on top of the engine solve.
    let got = backend.solve(&req, config, &NullSink)?;
    check("backend.solve", &got.answer, want)?;
    let t0 = Instant::now();
    let one = time_median(1, || {
        black_box(backend.solve(&req, config, &NullSink).ok());
    });
    let reps = reps_for(one, 0.4, 21, 400);
    let via_backend = || {
        black_box(backend.solve(&req, config, &NullSink).ok());
    };
    // A bit-parallel lcs solve has no grid: its engine is the row kernel.
    let (via_backend, via_engine) = if config.tier == ExecTier::BitParallel {
        interleaved(reps, via_backend, || {
            black_box(lddp::problems::lcs::lcs_length_bitparallel(&a, &b));
        })
    } else {
        let engine = ParallelEngine::new(host_threads()).with_tier(Some(config.tier));
        with_instance!(problem, n, |k, answer| {
            let _ = answer;
            black_box(engine.solve(&k).ok());
            Ok::<_, String>(interleaved(reps, via_backend, || {
                black_box(engine.solve(&k).ok());
            }))
        })?
    };
    log.push(log.span("backend.overhead", PROBE_PID, 3, t0, Instant::now()));
    out.push((
        "backend.overhead_ms".into(),
        (via_backend - via_engine) * 1e3,
    ));
    Ok(())
}

/// Front-end codec costs on a real request and reply.
pub fn codec_probes(
    req: &SolveRequest,
    resp: &SolveResponse,
    out: &mut Values,
) -> Result<(), String> {
    let body = resp.to_json();
    SolveResponse::from_json(&body)?;
    let enc = time_median(20, || {
        for _ in 0..500 {
            black_box(black_box(req).to_json());
        }
    }) / 500.0;
    let dec = time_median(20, || {
        for _ in 0..500 {
            black_box(SolveResponse::from_json(black_box(&body)).ok());
        }
    }) / 500.0;
    out.push(("http.req_encode_us".into(), enc * 1e6));
    out.push(("http.resp_decode_us".into(), dec * 1e6));
    Ok(())
}
