//! Command-line interface logic for the `lddp-cli` binary.
//!
//! Hand-rolled argument parsing (no external dependencies) kept in a
//! library module so it is unit-testable. Commands:
//!
//! ```text
//! lddp-cli classify --set W,NW,N
//! lddp-cli solve   --problem levenshtein --n 1024 [--platform high|low]
//!                  [--t-switch X --t-share Y] [--json]
//! lddp-cli tune    --problem lcs --n 2048 [--refined]
//! lddp-cli compare --problem checkerboard --n 4096 [--json]
//! lddp-cli trace   --problem levenshtein --n 512 --out run.trace.json
//!                  [--metrics run.metrics.jsonl]
//! lddp-cli serve   --addr 127.0.0.1:8700 [--workers W] [--queue-cap Q]
//!                  [--max-batch B] [--deadline-ms D] [--trace serve.trace.json]
//!                  [--tune-cache cache.json]
//! lddp-cli loadgen --problem lcs --requests 500 [--addr HOST:PORT]
//!                  [--rps R] [--duration S] [--concurrency C] [--no-verify]
//!                  [--retries A]
//! lddp-cli chaos   [--seed S] [--campaign quick|heavy] [--out report.json]
//! ```
//!
//! `trace` writes a Chrome trace-event JSON timeline (loadable in
//! Perfetto / `chrome://tracing`, see docs/OBSERVABILITY.md); `--json`
//! switches `solve`/`compare` to machine-readable output. `serve` runs
//! the batching solve server (see docs/SERVING.md) and `loadgen` drives
//! it — over HTTP when `--addr` is given, against an in-process server
//! otherwise — checking every answer against the sequential oracle
//! unless `--no-verify` is passed. `chaos` runs a seeded fault-injection
//! campaign across the engine ladder, the hetero executor, and the
//! serving stack (see docs/ROBUSTNESS.md), failing loudly when any
//! recovered answer diverges from the oracle.

use crate::parallel::RollingSolve;
use crate::platforms::{cpu_only, hetero_high, hetero_low, Platform};
use crate::{Framework, PhaseStat};
use hetero_sim::report::{utilization, Utilization};
use lddp_chaos::{FaultInjector, FaultPlan, FaultPlanConfig, RetryPolicy};
use lddp_core::cell::{ContributingSet, RepCell};
use lddp_core::grid::Grid;
use lddp_core::kernel::{ExecTier, Kernel, MemoryMode};
use lddp_core::pattern::classify;
use lddp_core::rolling;
use lddp_core::schedule::{PhaseKind, ScheduleParams};
use lddp_core::tuner_cache::TunedConfig;
use lddp_core::wavefront::Dims;
use lddp_core::DegradeStep;
use lddp_problems as problems;
use lddp_serve::loadgen::{HttpTarget, LoadgenConfig};
use lddp_serve::{Priority, ServeConfig, Server, SolveBackend, SolveRequest};
use lddp_trace::json::{escape, num};
use lddp_trace::{chrome, metrics, NullSink, Recorder, TraceSink};
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Classify a contributing set.
    Classify {
        /// The set to classify.
        set: ContributingSet,
    },
    /// Solve a named problem instance.
    Solve {
        /// Problem name.
        problem: String,
        /// Instance size (table side).
        n: usize,
        /// Platform preset name.
        platform: String,
        /// Optional explicit parameters (otherwise tuned).
        params: Option<ScheduleParams>,
        /// Emit a machine-readable JSON summary instead of text.
        json: bool,
        /// Memory-mode pin (`None` = the tuner's budget-based choice).
        memory: Option<MemoryMode>,
    },
    /// Tune a named problem instance.
    Tune {
        /// Problem name.
        problem: String,
        /// Instance size.
        n: usize,
        /// Platform preset name.
        platform: String,
        /// Use the ternary-search tuner.
        refined: bool,
    },
    /// Solve with one-pass dynamic load balancing.
    Balance {
        /// Problem name.
        problem: String,
        /// Instance size.
        n: usize,
        /// Platform preset name.
        platform: String,
        /// CPU-only ramp length for ramp-shaped patterns.
        t_switch: usize,
    },
    /// Print CPU/GPU/Framework times for a problem instance.
    Compare {
        /// Problem name.
        problem: String,
        /// Instance size.
        n: usize,
        /// Platform preset name.
        platform: String,
        /// Emit a machine-readable JSON summary instead of text.
        json: bool,
    },
    /// Solve while recording a Chrome trace-event timeline.
    Trace {
        /// Problem name.
        problem: String,
        /// Instance size.
        n: usize,
        /// Platform preset name.
        platform: String,
        /// Optional explicit parameters (otherwise tuned, with the
        /// sweep recorded into the trace).
        params: Option<ScheduleParams>,
        /// Output path for the Chrome trace JSON.
        out: String,
        /// Optional output path for the JSON-lines metrics dump.
        metrics: Option<String>,
    },
    /// Run the batching solve server (see docs/SERVING.md).
    Serve {
        /// Listen address (`host:port`).
        addr: String,
        /// Worker threads executing batches.
        workers: usize,
        /// Admission-queue capacity (interactive class).
        queue_cap: usize,
        /// Batch-class queue capacity (`None` = same as `queue_cap`).
        batch_queue_cap: Option<usize>,
        /// Per-tenant admission quota, requests/second (`None` = no
        /// quotas).
        tenant_rps: Option<f64>,
        /// Token-bucket burst size for tenant quotas.
        tenant_burst: Option<f64>,
        /// Most jobs one batch may carry.
        max_batch: usize,
        /// Default per-request deadline, milliseconds.
        deadline_ms: Option<u64>,
        /// Per-solve watchdog budget, milliseconds.
        watchdog_ms: Option<u64>,
        /// Optional path for a Chrome trace of the whole serve run,
        /// written at shutdown.
        trace: Option<String>,
        /// Optional tuner-cache persistence file: loaded (if present)
        /// before serving, written back on graceful drain.
        tune_cache: Option<String>,
        /// Serve through the heterogeneous worker-pool fleet (cost-aware
        /// dispatcher over the platform presets, cross-device MultiPlan
        /// splits for large grids).
        fleet: bool,
    },
    /// Generate load against a solve server and report latency.
    Loadgen {
        /// Target server (`host:port`); `None` drives an in-process
        /// server instead.
        addr: Option<String>,
        /// Problem name.
        problem: String,
        /// Instance size.
        n: usize,
        /// Platform preset name.
        platform: String,
        /// Requests to send (0 = until `--duration` elapses).
        requests: usize,
        /// Open-loop arrival rate; `None` = closed loop.
        rps: Option<f64>,
        /// Wall-clock cap on the run, seconds.
        duration_s: Option<f64>,
        /// Closed-loop worker count.
        concurrency: usize,
        /// Per-request deadline, milliseconds.
        deadline_ms: Option<u64>,
        /// Skip the sequential-oracle answer check.
        no_verify: bool,
        /// Attempts per request (1 = no retries).
        retries: u32,
        /// Instance-size mix cycled round-robin across requests
        /// (empty = every request uses `n`).
        mix: Vec<usize>,
        /// Service class stamped on every request.
        priority: Priority,
        /// Tenant name stamped on every request (empty = unattributed).
        tenant: String,
        /// Drive the in-process server with the fleet backend.
        fleet: bool,
        /// Consume `POST /solve?stream=1` band streams and report
        /// time-to-first-band percentiles.
        stream: bool,
        /// Cap (milliseconds) on honoring 429/503 `Retry-After` hints.
        retry_after_cap_ms: Option<u64>,
    },
    /// Quick wall-clock benchmark of the real thread engine.
    Bench {
        /// Instance side per problem.
        n: usize,
        /// Run the score-only rolling-band benchmark instead of the
        /// full-table tier sweep.
        rolling: bool,
        /// Optional JSON output path (also printed to stdout).
        out: Option<String>,
    },
    /// Run a seeded fault-injection campaign (see docs/ROBUSTNESS.md).
    Chaos {
        /// Seed for the deterministic fault plan.
        seed: u64,
        /// Campaign intensity: `quick` or `heavy`.
        campaign: String,
        /// Optional JSON report output path (also printed to stdout).
        out: Option<String>,
    },
    /// Print usage.
    Help,
}

/// Problems the CLI knows how to build: every kernel in
/// [`lddp_problems::NAMES`] plus the `fig9` synthetic benchmark.
pub const PROBLEMS: &[&str] = &[
    "levenshtein",
    "lcs",
    "dtw",
    "checkerboard",
    "dithering",
    "seam",
    "maxsquare",
    "needleman-wunsch",
    "smith-waterman",
    "weighted-edit",
    "fig9",
];

/// Parses an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    let mut set = None;
    let mut problem = None;
    let mut n = None;
    let mut platform = "high".to_string();
    let mut t_switch = None;
    let mut t_share = None;
    let mut refined = false;
    let mut json = false;
    let mut out = None;
    let mut metrics = None;
    let mut addr = None;
    let mut workers = None;
    let mut queue_cap = None;
    let mut max_batch = None;
    let mut deadline_ms = None;
    let mut requests = None;
    let mut rps = None;
    let mut duration_s = None;
    let mut concurrency = None;
    let mut no_verify = false;
    let mut trace_out = None;
    let mut quick = false;
    let mut watchdog_ms = None;
    let mut retries = None;
    let mut seed = None;
    let mut campaign = None;
    let mut tune_cache = None;
    let mut fleet = false;
    let mut memory = None;
    let mut rolling = false;
    let mut mix: Vec<usize> = Vec::new();
    let mut batch_queue_cap = None;
    let mut tenant_rps = None;
    let mut tenant_burst = None;
    let mut priority = None;
    let mut tenant = None;
    let mut stream = false;
    let mut retry_after_cap_ms = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--set" => {
                let v = it.next().ok_or("--set needs a value like W,NW,N")?;
                set = Some(parse_set(v)?);
            }
            "--problem" => {
                let v = it.next().ok_or("--problem needs a name")?;
                if !PROBLEMS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown problem '{v}'; expected one of {}",
                        PROBLEMS.join(", ")
                    ));
                }
                problem = Some(v.clone());
            }
            "--n" => {
                let v = it.next().ok_or("--n needs a number")?;
                n = Some(v.parse::<usize>().map_err(|e| format!("--n: {e}"))?);
            }
            "--platform" => {
                let v = it.next().ok_or("--platform needs high|low|cpu-only")?;
                if v != "high" && v != "low" && v != "cpu-only" {
                    return Err(format!(
                        "unknown platform '{v}'; expected high, low, or cpu-only"
                    ));
                }
                platform = v.clone();
            }
            "--t-switch" => {
                let v = it.next().ok_or("--t-switch needs a number")?;
                t_switch = Some(v.parse::<usize>().map_err(|e| format!("--t-switch: {e}"))?);
            }
            "--t-share" => {
                let v = it.next().ok_or("--t-share needs a number")?;
                t_share = Some(v.parse::<usize>().map_err(|e| format!("--t-share: {e}"))?);
            }
            "--refined" => refined = true,
            "--json" => json = true,
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                out = Some(v.clone());
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a file path")?;
                metrics = Some(v.clone());
            }
            "--addr" => {
                let v = it.next().ok_or("--addr needs host:port")?;
                addr = Some(v.clone());
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a number")?;
                workers = Some(v.parse::<usize>().map_err(|e| format!("--workers: {e}"))?);
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a number")?;
                queue_cap = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("--queue-cap: {e}"))?,
                );
            }
            "--max-batch" => {
                let v = it.next().ok_or("--max-batch needs a number")?;
                max_batch = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("--max-batch: {e}"))?,
                );
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a number")?;
                deadline_ms = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--requests" => {
                let v = it.next().ok_or("--requests needs a number")?;
                requests = Some(v.parse::<usize>().map_err(|e| format!("--requests: {e}"))?);
            }
            "--rps" => {
                let v = it.next().ok_or("--rps needs a number")?;
                let r = v.parse::<f64>().map_err(|e| format!("--rps: {e}"))?;
                if !r.is_finite() || r <= 0.0 {
                    return Err("--rps must be a positive number".into());
                }
                rps = Some(r);
            }
            "--duration" => {
                let v = it.next().ok_or("--duration needs seconds")?;
                let d = v.parse::<f64>().map_err(|e| format!("--duration: {e}"))?;
                if !d.is_finite() || d <= 0.0 {
                    return Err("--duration must be positive seconds".into());
                }
                duration_s = Some(d);
            }
            "--concurrency" => {
                let v = it.next().ok_or("--concurrency needs a number")?;
                concurrency = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("--concurrency: {e}"))?,
                );
            }
            "--no-verify" => no_verify = true,
            "--quick" => quick = true,
            "--rolling" => rolling = true,
            "--watchdog-ms" => {
                let v = it.next().ok_or("--watchdog-ms needs a number")?;
                watchdog_ms = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("--watchdog-ms: {e}"))?,
                );
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a number")?;
                let r = v.parse::<u32>().map_err(|e| format!("--retries: {e}"))?;
                if r == 0 {
                    return Err("--retries counts attempts and must be at least 1".into());
                }
                retries = Some(r);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--campaign" => {
                let v = it.next().ok_or("--campaign needs quick|heavy")?;
                if v != "quick" && v != "heavy" {
                    return Err(format!("unknown campaign '{v}'; expected quick or heavy"));
                }
                campaign = Some(v.clone());
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file path")?;
                trace_out = Some(v.clone());
            }
            "--tune-cache" => {
                let v = it.next().ok_or("--tune-cache needs a file path")?;
                tune_cache = Some(v.clone());
            }
            "--fleet" => fleet = true,
            "--memory" => {
                let v = it.next().ok_or("--memory needs full|rolling")?;
                memory = Some(MemoryMode::parse(v).ok_or_else(|| {
                    format!("unknown memory mode '{v}'; expected full or rolling")
                })?);
            }
            "--mix" => {
                let v = it.next().ok_or("--mix needs sizes like 48,96,1100")?;
                mix = v
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().map_err(|e| format!("--mix: {e}")))
                    .collect::<Result<Vec<usize>, String>>()?;
                if mix.is_empty() || mix.iter().any(|&m| m < 2) {
                    return Err("--mix sizes must each be at least 2".into());
                }
            }
            "--batch-queue-cap" => {
                let v = it.next().ok_or("--batch-queue-cap needs a number")?;
                batch_queue_cap = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("--batch-queue-cap: {e}"))?,
                );
            }
            "--tenant-rps" => {
                let v = it.next().ok_or("--tenant-rps needs a rate")?;
                let r = v.parse::<f64>().map_err(|e| format!("--tenant-rps: {e}"))?;
                if !r.is_finite() || r <= 0.0 {
                    return Err("--tenant-rps must be a positive rate".into());
                }
                tenant_rps = Some(r);
            }
            "--tenant-burst" => {
                let v = it.next().ok_or("--tenant-burst needs a number")?;
                let b = v
                    .parse::<f64>()
                    .map_err(|e| format!("--tenant-burst: {e}"))?;
                if !b.is_finite() || b < 1.0 {
                    return Err("--tenant-burst must be at least 1".into());
                }
                tenant_burst = Some(b);
            }
            "--priority" => {
                let v = it.next().ok_or("--priority needs interactive|batch")?;
                priority = Some(Priority::parse(v).ok_or_else(|| {
                    format!("unknown priority '{v}'; expected interactive or batch")
                })?);
            }
            "--tenant" => {
                let v = it.next().ok_or("--tenant needs a name")?;
                tenant = Some(v.clone());
            }
            "--stream" => stream = true,
            "--retry-after-cap-ms" => {
                let v = it.next().ok_or("--retry-after-cap-ms needs milliseconds")?;
                retry_after_cap_ms = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("--retry-after-cap-ms: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    match cmd {
        "classify" => Ok(Command::Classify {
            set: set.ok_or("classify requires --set")?,
        }),
        "solve" => {
            let params = match (t_switch, t_share) {
                (None, None) => None,
                (sw, sh) => Some(ScheduleParams::new(sw.unwrap_or(0), sh.unwrap_or(0))),
            };
            Ok(Command::Solve {
                problem: problem.ok_or("solve requires --problem")?,
                n: n.unwrap_or(1024),
                platform,
                params,
                json,
                memory,
            })
        }
        "balance" => Ok(Command::Balance {
            problem: problem.ok_or("balance requires --problem")?,
            n: n.unwrap_or(1024),
            platform,
            t_switch: t_switch.unwrap_or(0),
        }),
        "tune" => Ok(Command::Tune {
            problem: problem.ok_or("tune requires --problem")?,
            n: n.unwrap_or(1024),
            platform,
            refined,
        }),
        "compare" => Ok(Command::Compare {
            problem: problem.ok_or("compare requires --problem")?,
            n: n.unwrap_or(1024),
            platform,
            json,
        }),
        "trace" => {
            let params = match (t_switch, t_share) {
                (None, None) => None,
                (sw, sh) => Some(ScheduleParams::new(sw.unwrap_or(0), sh.unwrap_or(0))),
            };
            Ok(Command::Trace {
                problem: problem.ok_or("trace requires --problem")?,
                n: n.unwrap_or(512),
                platform,
                params,
                out: out.unwrap_or_else(|| "run.trace.json".to_string()),
                metrics,
            })
        }
        "serve" => Ok(Command::Serve {
            addr: addr.unwrap_or_else(|| "127.0.0.1:8700".to_string()),
            workers: workers.unwrap_or(4),
            queue_cap: queue_cap.unwrap_or(256),
            batch_queue_cap,
            tenant_rps,
            tenant_burst,
            max_batch: max_batch.unwrap_or(8),
            deadline_ms,
            watchdog_ms,
            trace: trace_out,
            tune_cache,
            fleet,
        }),
        "loadgen" => {
            let requests = requests.unwrap_or(100);
            if requests == 0 && duration_s.is_none() {
                return Err("loadgen needs --requests > 0 or --duration".into());
            }
            if fleet && addr.is_some() {
                return Err(
                    "loadgen --fleet drives the in-process server; point --addr at a \
                     `serve --fleet` instance instead"
                        .into(),
                );
            }
            Ok(Command::Loadgen {
                addr,
                problem: problem.ok_or("loadgen requires --problem")?,
                n: n.unwrap_or(256),
                platform,
                requests,
                rps,
                duration_s,
                concurrency: concurrency.unwrap_or(4),
                deadline_ms,
                no_verify,
                retries: retries.unwrap_or(1),
                mix,
                priority: priority.unwrap_or_default(),
                tenant: tenant.unwrap_or_default(),
                fleet,
                stream,
                retry_after_cap_ms,
            })
        }
        "bench" => {
            if quick == rolling {
                return Err(
                    "bench needs exactly one of --quick or --rolling (the full suite \
                     runs under `cargo bench`)"
                        .into(),
                );
            }
            Ok(Command::Bench {
                n: n.unwrap_or(512),
                rolling,
                out,
            })
        }
        "chaos" => Ok(Command::Chaos {
            seed: seed.unwrap_or(42),
            campaign: campaign.unwrap_or_else(|| "quick".to_string()),
            out,
        }),
        other => Err(format!("unknown command '{other}'; try help")),
    }
}

/// Parses "W,NW,N" style contributing sets (case-insensitive).
pub fn parse_set(text: &str) -> Result<ContributingSet, String> {
    let mut set = ContributingSet::EMPTY;
    for part in text.split(',') {
        let cell = match part.trim().to_ascii_uppercase().as_str() {
            "W" => RepCell::W,
            "NW" => RepCell::Nw,
            "N" => RepCell::N,
            "NE" => RepCell::Ne,
            other => return Err(format!("unknown representative cell '{other}'")),
        };
        set = set.with(cell);
    }
    if set.is_empty() {
        return Err("contributing set must not be empty".into());
    }
    Ok(set)
}

fn platform_by_name(name: &str) -> Platform {
    match name {
        "low" => hetero_low(),
        "cpu" | "cpu-only" => cpu_only(),
        _ => hetero_high(),
    }
}

/// Usage text.
pub fn usage() -> String {
    format!(
        "lddp-cli — heterogeneous LDDP framework driver\n\
         \n\
         USAGE:\n\
         \x20 lddp-cli classify --set W,NW,N\n\
         \x20 lddp-cli solve   --problem <name> [--n N] [--platform high|low]\n\
         \x20                  [--t-switch X] [--t-share Y] [--json]\n\
         \x20                  [--memory full|rolling]\n\
         \x20 lddp-cli tune    --problem <name> [--n N] [--platform high|low] [--refined]\n\
         \x20 lddp-cli balance --problem <name> [--n N] [--platform high|low] [--t-switch X]\n\
         \x20 lddp-cli compare --problem <name> [--n N] [--platform high|low] [--json]\n\
         \x20 lddp-cli trace   --problem <name> [--n N] [--platform high|low]\n\
         \x20                  [--t-switch X] [--t-share Y]\n\
         \x20                  [--out trace.json] [--metrics metrics.jsonl]\n\
         \x20 lddp-cli serve   [--addr host:port] [--workers W] [--queue-cap Q]\n\
         \x20                  [--batch-queue-cap Q] [--tenant-rps R] [--tenant-burst B]\n\
         \x20                  [--max-batch B] [--deadline-ms D] [--watchdog-ms W]\n\
         \x20                  [--trace serve.trace.json] [--tune-cache cache.json]\n\
         \x20                  [--fleet]\n\
         \x20 lddp-cli loadgen --problem <name> [--n N] [--platform high|low]\n\
         \x20                  [--addr host:port] [--requests R] [--rps RATE]\n\
         \x20                  [--duration S] [--concurrency C] [--deadline-ms D]\n\
         \x20                  [--no-verify] [--retries A] [--mix 48,96,1100]\n\
         \x20                  [--priority interactive|batch] [--tenant NAME] [--fleet]\n\
         \x20                  [--stream] [--retry-after-cap-ms MS]\n\
         \x20 lddp-cli bench   --quick|--rolling [--n N] [--out BENCH.json]\n\
         \x20 lddp-cli chaos   [--seed S] [--campaign quick|heavy] [--out report.json]\n\
         \n\
         `trace` writes a Perfetto-loadable Chrome trace-event timeline\n\
         (see docs/OBSERVABILITY.md). `serve` runs the batching solve\n\
         server (`--tune-cache` persists tuned params + tier across\n\
         restarts; `--fleet` serves through the heterogeneous worker-pool\n\
         fleet with a cost-aware dispatcher and cross-device MultiPlan\n\
         splits, see docs/FLEET.md); `loadgen` drives it and prints a\n\
         JSON latency report, checking answers against the sequential\n\
         oracle (docs/SERVING.md); `--mix` cycles requests through a\n\
         size mix to exercise the fleet dispatcher; `--priority` and\n\
         `--tenant` stamp every request with a QoS class / tenant for\n\
         overload experiments (`serve --tenant-rps` meters named\n\
         tenants, `--batch-queue-cap` bounds the batch class);\n\
         `--stream` consumes `POST /solve?stream=1` band streams and\n\
         reports time-to-first-band percentiles, and\n\
         `--retry-after-cap-ms` caps how much of a 429/503 Retry-After\n\
         hint is honored (default 2000).\n\
         Set LDDP_FORCE_TIER=scalar|bulk|simd|bitparallel to cap the\n\
         execution tier of every engine in the process (a lower tier\n\
         pin still wins).\n\
         `solve --memory rolling` keeps only the live wavefronts\n\
         (O(n+m) bytes instead of the full table); without the flag the\n\
         tuner picks the mode from the platform's table-memory budget\n\
         (see DESIGN.md, \"Memory tiers\"). `bench --rolling`\n\
         measures that tier's peak working set and throughput.\n\
         `chaos` runs a seeded fault-injection campaign across the engine\n\
         ladder, the hetero executor, and the serving stack, verifying\n\
         every recovered answer against the oracle (docs/ROBUSTNESS.md).\n\
         \n\
         PROBLEMS: {}\n",
        PROBLEMS.join(", ")
    )
}

/// A uniform summary of one run, ready to print.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Problem name.
    pub problem: String,
    /// Instance description.
    pub instance: String,
    /// Classified / executed patterns.
    pub patterns: String,
    /// Parameters used.
    pub params: ScheduleParams,
    /// Execution tier the table was (or would be) computed on.
    pub tier: ExecTier,
    /// Memory mode the table was computed in.
    pub memory_mode: MemoryMode,
    /// Peak DP working-set bytes: the full table, or the rolling band
    /// ring (three wavefronts).
    pub table_bytes: usize,
    /// Virtual time, ms.
    pub hetero_ms: f64,
    /// Headline answer (problem-specific).
    pub answer: String,
}

impl RunSummary {
    /// Renders the summary block. Full-table runs keep the historic
    /// format; rolling runs add one `memory` line with the working-set
    /// compression.
    pub fn render(&self) -> String {
        let memory = if self.memory_mode == MemoryMode::Rolling {
            format!(
                "\nmemory    : rolling ({} peak working set)",
                fmt_bytes(self.table_bytes)
            )
        } else {
            String::new()
        };
        format!(
            "problem   : {}\ninstance  : {}\npattern   : {}\nparams    : t_switch={} t_share={}\n\
             tier      : {}{}\ntime      : {:.3} ms (virtual)\nanswer    : {}",
            self.problem,
            self.instance,
            self.patterns,
            self.params.t_switch,
            self.params.t_share,
            self.tier,
            memory,
            self.hetero_ms,
            self.answer
        )
    }
}

/// Human-readable byte count (binary units, one decimal).
fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

/// [`RunSummary`] plus the observability extras a traced solve yields.
#[derive(Debug, Clone)]
pub struct SolveOutput {
    /// The human-readable summary block.
    pub summary: RunSummary,
    /// Instance size.
    pub n: usize,
    /// Platform preset name as requested (`high`/`low`).
    pub platform: String,
    /// Engine utilization over the run.
    pub utilization: Utilization,
    /// Per-phase cost breakdown.
    pub phases: Vec<PhaseStat>,
}

/// Builds and solves the named problem, returning the summary.
pub fn run_solve(
    problem: &str,
    n: usize,
    platform_name: &str,
    params: Option<ScheduleParams>,
) -> Result<RunSummary, String> {
    run_solve_traced(problem, n, platform_name, params, &NullSink).map(|o| o.summary)
}

/// One problem-registry entry: the deterministic instance plus
/// everything a driver needs to solve it and phrase its headline answer.
struct Entry<K: Kernel, A> {
    kernel: K,
    /// `(to_gpu, from_gpu)` bytes the cost model charges for setup and
    /// result transfer.
    io: (usize, usize),
    /// The headline answer read off the full table.
    answer: A,
    /// How a wave problem answers from a rolling band walk; `None` when
    /// the answer needs the full table.
    rolling: Option<RollingAnswer<K::Cell>>,
}

/// The rolling-mode half of a wave problem's registry entry.
struct RollingAnswer<C> {
    /// Score whose arg-best cell the band walk captures (the
    /// Smith–Waterman endpoint); `None` for corner answers.
    best_of: Option<fn(&C) -> i64>,
    /// The headline answer read off the captured corner or arg-best
    /// cell — byte-identical to the full-table answer.
    answer: fn(&RollingSolve<C>) -> String,
}

/// Builds a registry [`Entry`]; taking the answer through the `Fn` bound
/// fixes its closure type from the kernel alone.
fn entry<K: Kernel, A: Fn(&K, &Grid<K::Cell>) -> String>(
    kernel: K,
    io: (usize, usize),
    answer: A,
    rolling: Option<RollingAnswer<K::Cell>>,
) -> Entry<K, A> {
    Entry {
        kernel,
        io,
        answer,
        rolling,
    }
}

/// A rolling answer read off the captured bottom-right corner.
fn corner_answer<C>(answer: fn(&RollingSolve<C>) -> String) -> Option<RollingAnswer<C>> {
    Some(RollingAnswer {
        best_of: None,
        answer,
    })
}

/// The bottom-right cell of a full table — the corner-answer problems'
/// headline cell.
fn corner<K: Kernel>(k: &K, g: &Grid<K::Cell>) -> K::Cell {
    let d = k.dims();
    g.get(d.rows - 1, d.cols - 1)
}

/// The `lcs` instance's two sequences, shared by its registry arm and
/// the bit-parallel row kernel, which answers without a grid.
fn lcs_sequences(n: usize) -> (Vec<u8>, Vec<u8>) {
    let seq = |seed: u64| crate::workloads::random_seq(n, 4, seed);
    (seq(3), seq(4))
}

/// Dispatches over the problem registry: for the named problem it builds
/// the deterministic instance at size `n` as an [`Entry`] and invokes
/// the caller's `$go!(entry)` macro. Every driver that needs a
/// per-problem kernel (hetero solve, served solve, sequential oracle,
/// classification, tuning) goes through this one registry, so a new
/// problem — or a new rolling-capable one — is added in exactly one
/// place.
macro_rules! with_problem {
    ($problem:expr, $n:expr, $go:ident) => {{
        let n: usize = $n;
        let seq = |seed: u64| crate::workloads::random_seq(n, 4, seed);
        match $problem {
            "levenshtein" => $go!(entry(
                problems::LevenshteinKernel::new(seq(1), seq(2)),
                (2 * n, 8),
                |k, g| format!("edit distance = {}", corner(k, g)),
                corner_answer(|s| format!("edit distance = {}", s.corner.unwrap_or_default())),
            )),
            "lcs" => $go!(entry(
                {
                    let (a, b) = lcs_sequences(n);
                    problems::LcsKernel::new(a, b)
                },
                (2 * n, 8),
                |k, g| format!("LCS length = {}", corner(k, g)),
                corner_answer(|s| format!("LCS length = {}", s.corner.unwrap_or_default())),
            )),
            "dtw" => $go!(entry(
                problems::DtwKernel::random_walk(n, n, 5),
                (8 * n, 8),
                |k, g| format!("DTW distance = {:.3}", corner(k, g)),
                corner_answer(|s| format!("DTW distance = {:.3}", s.corner.unwrap_or_default())),
            )),
            "checkerboard" => $go!(entry(
                problems::CheckerboardKernel::random(n, n, 9, 6),
                (n * n, 0),
                |_, g| {
                    let best = (0..n).map(|j| g.get(n - 1, j)).min().unwrap();
                    format!("cheapest path cost = {best}")
                },
                None,
            )),
            "dithering" => $go!(entry(
                problems::DitherKernel::noise(n, n, 7),
                (n * n, n * n),
                |_, g| {
                    let on = (0..n)
                        .flat_map(|i| (0..n).map(move |j| (i, j)))
                        .filter(|&(i, j)| g.get(i, j).out == 255)
                        .count();
                    format!("{on} of {} pixels on", n * n)
                },
                None,
            )),
            "seam" => $go!(entry(
                problems::SeamCarvingKernel::new(
                    n,
                    n,
                    (0..n * n)
                        .map(|x| ((x as u64).wrapping_mul(2654435761) >> 7) as u32 % 64)
                        .collect(),
                ),
                (4 * n * n, 0),
                |_, g| {
                    let best = (0..n).map(|j| g.get(n - 1, j)).min().unwrap();
                    format!("minimal seam energy = {best}")
                },
                None,
            )),
            "maxsquare" => $go!(entry(
                problems::MaxSquareKernel::random(n, n, 0.8, 8),
                (n * n / 8, 8),
                |_, g| {
                    let mut best = 0;
                    for i in 0..n {
                        for j in 0..n {
                            best = best.max(g.get(i, j));
                        }
                    }
                    format!("largest all-ones square side = {best}")
                },
                None,
            )),
            "needleman-wunsch" => $go!(entry(
                problems::NeedlemanWunschKernel::new(seq(9), seq(10)),
                (2 * n, 8),
                |k, g| format!("global alignment score = {}", corner(k, g)),
                corner_answer(|s| {
                    format!("global alignment score = {}", s.corner.unwrap_or_default())
                }),
            )),
            "smith-waterman" => $go!(entry(
                problems::SmithWatermanKernel::new(seq(11), seq(12)),
                (2 * n, 8),
                |k, g| {
                    let d = k.dims();
                    let mut best = 0;
                    for i in 0..d.rows {
                        for j in 0..d.cols {
                            best = best.max(g.get(i, j).best());
                        }
                    }
                    format!("best local alignment score = {best}")
                },
                Some(RollingAnswer {
                    best_of: Some(|c| c.best() as i64),
                    answer: |s| {
                        let best = s.best.map(|(_, _, c)| c.best()).unwrap_or(0);
                        format!("best local alignment score = {best}")
                    },
                }),
            )),
            "weighted-edit" => $go!(entry(
                problems::WeightedEditKernel::new(
                    seq(13),
                    seq(14),
                    problems::weighted_edit::EditCosts::default(),
                ),
                (2 * n, 8),
                |k, g| format!("weighted edit distance = {}", k.distance_from(g)),
                None,
            )),
            "fig9" => $go!(entry(
                problems::synthetic::fig9_kernel(lddp_core::wavefront::Dims::new(n, n), 1),
                (0, 0),
                |_, g| format!("corner value = {}", g.get(n - 1, n - 1)),
                None,
            )),
            other => Err(format!("unknown problem '{other}'")),
        }
    }};
}

/// Builds and solves the named problem with observability: tuner sweep
/// points and the run's phase/wave/transfer events go into `sink`, and
/// the output carries utilization + per-phase stats for rendering.
pub fn run_solve_traced(
    problem: &str,
    n: usize,
    platform_name: &str,
    params: Option<ScheduleParams>,
    sink: &dyn TraceSink,
) -> Result<SolveOutput, String> {
    let platform = platform_by_name(platform_name);
    macro_rules! go {
        ($entry:expr) => {{
            let e = $entry;
            let kernel = &e.kernel;
            let fw = Framework::new(platform.clone()).with_io_bytes(e.io.0, e.io.1);
            let solution = fw
                .solve_traced(kernel, params, sink)
                .map_err(|e| e.to_string())?;
            let class = &solution.classification;
            Ok(SolveOutput {
                summary: RunSummary {
                    problem: problem.to_string(),
                    instance: format!("{n} x {n} on {}", platform.name),
                    patterns: format!(
                        "{} → executed as {}",
                        class.raw_pattern, class.exec_pattern
                    ),
                    params: solution.params,
                    tier: solution.tier,
                    memory_mode: MemoryMode::Full,
                    table_bytes: rolling::full_table_bytes(kernel),
                    hetero_ms: solution.total_s * 1e3,
                    answer: (e.answer)(kernel, &solution.grid),
                },
                n,
                platform: platform_name.to_string(),
                utilization: utilization(&solution.breakdown, solution.total_s),
                phases: solution.phases.clone(),
            })
        }};
    }
    with_problem!(problem, n, go)
}

/// Solves the named problem on the sequential row-major reference
/// engine and returns the same headline answer string the solve paths
/// print. This is the oracle the serving load generator checks
/// responses against: instances are deterministic in `(problem, n)`, so
/// equal answers mean the heterogeneous execution computed the same
/// table.
pub fn run_solve_seq(problem: &str, n: usize) -> Result<String, String> {
    macro_rules! oracle {
        ($entry:expr) => {{
            let e = $entry;
            let grid = lddp_core::seq::solve_row_major(&e.kernel).map_err(|e| e.to_string())?;
            Ok((e.answer)(&e.kernel, &grid))
        }};
    }
    with_problem!(problem, n, oracle)
}

/// How [`run_solve_served`] runs one instance: everything a serving
/// backend decided about it.
#[derive(Default)]
pub struct ServedSpec<'a> {
    /// Schedule parameters. Cached or pinned ones may come from another
    /// instance in the same tune bucket, so the dispatcher re-legalizes
    /// them for this exact size before use.
    pub params: ScheduleParams,
    /// Tier pin (a cached tuner decision); `None` lets the engine pick.
    /// [`ExecTier::BitParallel`] is honored for `lcs`, where the answer
    /// is a length, not a table — the bit-parallel row kernel computes
    /// it without materializing the grid; every other problem (and any
    /// injected or band solve) treats it as no pin.
    pub tier: Option<ExecTier>,
    /// Memory mode; see [`serves_rolling`] for when `Rolling` applies.
    pub memory: MemoryMode,
    /// Fault injector (the chaos serving path): one device-fault draw
    /// per request degrades the cost model from heterogeneous to the
    /// CPU-only baseline, and the engine walks its degradation ladder.
    /// An injected solve never streams.
    pub injector: Option<&'a dyn FaultInjector>,
    /// Band emitter (`POST /solve?stream=1`): a problem with a rolling
    /// answer runs on the band path whatever the memory mode — a
    /// full-table solve only produces its corner at the very end — and
    /// `emit` is called once per sealed band, in order, from behind the
    /// band's barrier. A blocking `emit` stalls the pool
    /// (backpressure); one returning `false` stops emission while the
    /// solve completes. Full-table problems ignore it.
    pub emit: Option<&'a (dyn Fn(rolling::BandEvent) -> bool + Sync)>,
}

/// Whether a served solve of `problem` in `memory` under tier pin
/// `tier` runs in rolling (wave-band) memory: a rolling memory mode on
/// a problem with a rolling answer, unless a bit-parallel pin answers it
/// gridless.
pub fn serves_rolling(problem: &str, memory: MemoryMode, tier: Option<ExecTier>) -> bool {
    memory == MemoryMode::Rolling
        && tier != Some(ExecTier::BitParallel)
        && rolling_supported(problem)
}

/// The served solve: builds the named instance and runs it on a shared
/// thread-pool engine as `spec` says — the one dispatcher behind every
/// serving backend. The table (or band ring) is computed by `engine`'s
/// persistent workers — a bit-parallel `lcs` pin runs the row kernel on
/// the calling thread instead — while the reported virtual time is the
/// framework's cost-model estimate for the re-legalized parameters, so
/// timings stay comparable with the traced solve path.
/// Answer strings are byte-identical across every path, so the
/// sequential oracle check holds unchanged. Returns the summary plus
/// the wire codes of every degradation rung taken (e.g.
/// `"bulk_to_scalar"`); an empty vector means the fully configured path
/// served the request.
pub fn run_solve_served(
    problem: &str,
    n: usize,
    platform_name: &str,
    engine: &crate::parallel::ParallelEngine,
    spec: &ServedSpec<'_>,
) -> Result<(RunSummary, Vec<String>), String> {
    let platform = platform_by_name(platform_name);
    // A degraded rung would replay bands the client already holds, so
    // injected solves keep to the non-streamed ladder.
    let emit = spec.emit.filter(|_| spec.injector.is_none());
    let engine = engine.clone().with_tier(spec.tier);
    macro_rules! served {
        ($entry:expr) => {{
            let e = $entry;
            let kernel = &e.kernel;
            let fw = Framework::new(platform.clone()).with_io_bytes(e.io.0, e.io.1);
            let class = fw.classify(kernel).map_err(|e| e.to_string())?;
            let params = spec.params.clamped_for(class.exec_pattern, Dims::new(n, n));
            let mut degraded: Vec<String> = Vec::new();
            // One device-fault draw per request: the modelled device
            // dying costs the request its heterogeneous speedup, not its
            // answer.
            let hetero_s = match spec.injector {
                Some(inj) if inj.active() && inj.device_fault(0) => {
                    degraded.push(DegradeStep::HeteroToCpuOnly.code().to_string());
                    fw.cpu_baseline(kernel).map_err(|e| e.to_string())?
                }
                _ => fw.estimate(kernel, params).map_err(|e| e.to_string())?,
            };
            let band = e
                .rolling
                .filter(|_| emit.is_some() || serves_rolling(problem, spec.memory, spec.tier));
            let bitparallel = problem == "lcs"
                && spec.tier == Some(ExecTier::BitParallel)
                && spec.injector.is_none();
            let (tier, memory_mode, table_bytes, answer) = if let Some(band) = band {
                let hook = emit.map(|emit| crate::parallel::StreamHook {
                    bands: crate::serve_backend::STREAM_BANDS,
                    score_of: BandScore::band_score,
                    emit,
                });
                let engine_spec = crate::parallel::SolveSpec {
                    memory: MemoryMode::Rolling,
                    best_of: band.best_of,
                    stream: hook.as_ref(),
                    injector: spec.injector,
                    ..crate::parallel::SolveSpec::default()
                };
                let (solved, steps) = engine
                    .solve_with(kernel, &engine_spec)
                    .map_err(|e| e.to_string())?;
                degraded.extend(steps.iter().map(|s| s.code().to_string()));
                let solve = solved.rolling().expect("a rolling spec yields a band solve");
                let answer = (band.answer)(&solve);
                (solve.tier, MemoryMode::Rolling, solve.peak_bytes, answer)
            } else if bitparallel {
                let (a, b) = lcs_sequences(n);
                let len = problems::lcs::lcs_length_bitparallel(&a, &b);
                // No grid: 256 per-symbol match masks plus the row state.
                let table_bytes = (256 + 1) * n.div_ceil(64) * 8;
                let answer = format!("LCS length = {len}");
                (ExecTier::BitParallel, MemoryMode::Full, table_bytes, answer)
            } else {
                let engine_spec = crate::parallel::SolveSpec {
                    injector: spec.injector,
                    ..crate::parallel::SolveSpec::default()
                };
                let tier = engine.select_tier(kernel);
                let (solved, steps) = engine
                    .solve_with(kernel, &engine_spec)
                    .map_err(|e| e.to_string())?;
                degraded.extend(steps.iter().map(|s| s.code().to_string()));
                let grid = solved.grid().expect("a full-memory spec yields a grid");
                let answer = (e.answer)(kernel, &grid);
                (tier, MemoryMode::Full, rolling::full_table_bytes(kernel), answer)
            };
            Ok((
                RunSummary {
                    problem: problem.to_string(),
                    instance: format!("{n} x {n} on {}", platform.name),
                    patterns: format!(
                        "{} → executed as {}",
                        class.raw_pattern, class.exec_pattern
                    ),
                    params,
                    tier,
                    memory_mode,
                    table_bytes,
                    hetero_ms: hetero_s * 1e3,
                    answer,
                },
                degraded,
            ))
        }};
    }
    with_problem!(problem, n, served)
}

/// The §IV cost model's virtual-time estimate for one instance on one
/// platform preset with the given (already legalized) parameters — the
/// scoring input of the fleet dispatcher, which compares this estimate
/// across every pool before placing a batch.
pub fn estimate_virtual(
    problem: &str,
    n: usize,
    platform_name: &str,
    params: ScheduleParams,
) -> Result<f64, String> {
    let platform = platform_by_name(platform_name);
    macro_rules! est_of {
        ($entry:expr) => {{
            let e = $entry;
            let fw = Framework::new(platform.clone()).with_io_bytes(e.io.0, e.io.1);
            let class = fw.classify(&e.kernel).map_err(|e| e.to_string())?;
            let legal = params.clamped_for(class.exec_pattern, e.kernel.dims());
            fw.estimate(&e.kernel, legal).map_err(|e| e.to_string())
        }};
    }
    with_problem!(problem, n, est_of)
}

/// The simulated device set cross-device splits run on: the Hetero-High
/// CPU as device 0, then the fleet's two GPUs (K20 and GT650M) cycled
/// until `devices` are filled.
fn fleet_multi_platform(devices: usize) -> hetero_sim::multi::MultiPlatform {
    let high = hetero_high();
    let low = hetero_low();
    let accels = (1..devices)
        .map(|d| {
            if d % 2 == 1 {
                hetero_sim::multi::Accelerator {
                    name: "K20".into(),
                    gpu: high.gpu.clone(),
                    link: high.link.clone(),
                }
            } else {
                hetero_sim::multi::Accelerator {
                    name: "GT650M".into(),
                    gpu: low.gpu.clone(),
                    link: low.link.clone(),
                }
            }
        })
        .collect();
    hetero_sim::multi::MultiPlatform {
        name: "fleet multi-device".into(),
        cpu: high.cpu,
        accels,
    }
}

/// Solves one instance as a `devices`-way cross-device [`MultiPlan`]
/// column-band split (§VII made concrete): even band boundaries, the
/// parameters re-legalized for this exact size and then **per band**
/// (a parameter tuned on the whole grid can be illegal for a narrow
/// band), functional execution with per-device grids, and the
/// reassembled table's answer. Problems whose raw pattern needs a
/// kernel adapter (transposed/mirrored execution) have no direct band
/// split and return `Err` — callers fall back to a pooled solve.
///
/// With `emit` — the fleet's `MultiPlan` leg of `POST /solve?stream=1`
/// — one frame per device band is emitted as the split reassembles.
/// The split is by *columns*, not waves, so a frame's
/// `wave_lo..=wave_hi` range is reinterpreted as the band's column
/// range, `rows_completed` only reaches `rows` on the final band (a
/// grid row seals at its last column), and `score` is the bottom cell
/// of the band's last column. Emission is observation only: the answer
/// is the same, and an `emit` returning `false` stops further frames
/// without touching the solve.
///
/// [`MultiPlan`]: lddp_core::multi::MultiPlan
pub fn run_solve_multi(
    problem: &str,
    n: usize,
    params: ScheduleParams,
    devices: usize,
    emit: Option<&(dyn Fn(rolling::BandEvent) -> bool + Sync)>,
) -> Result<RunSummary, String> {
    if devices < 2 {
        return Err("a cross-device split needs at least 2 devices".into());
    }
    let platform = fleet_multi_platform(devices);
    macro_rules! multi_of {
        ($entry:expr) => {{
            let e = $entry;
            let kernel = &e.kernel;
            let set = kernel.contributing_set();
            let raw = classify(set).ok_or("empty contributing set")?;
            if !raw.is_canonical() {
                return Err(format!(
                    "problem '{problem}' executes {raw} through an adapter; \
                     no direct cross-device band split"
                ));
            }
            let exec = lddp_core::framework::choose_execution(set).map_err(|e| e.to_string())?;
            let params = params.clamped_for(exec.exec_pattern, Dims::new(n, n));
            let dims = kernel.dims();
            let boundaries = crate::fleet::split_bands(dims.cols, devices);
            // Per-band re-legalization: the plan carries one t_switch,
            // so take the strictest of the per-band clamps (each band
            // checked against its own rows × width dims, not the grid).
            let t_switch =
                crate::fleet::per_band_params(params, raw, dims.rows, &boundaries, dims.cols)
                    .iter()
                    .map(|p| p.t_switch)
                    .chain(std::iter::once(params.clamped_for(raw, dims).t_switch))
                    .min()
                    .unwrap_or(0);
            let plan =
                lddp_core::multi::MultiPlan::new(raw, set, dims, t_switch, boundaries.clone())
                    .map_err(|e| e.to_string())?;
            let report = hetero_sim::multi::run_multi(kernel, &plan, &platform, true)
                .map_err(|e| e.to_string())?;
            let grid = report.grid.expect("functional multi run returns a grid");
            if let Some(emit) = emit {
                // One frame per device band, cut at the plan's column
                // boundaries, scored off the reassembled table.
                let cells_total = (dims.rows * dims.cols) as u64;
                let mut lo = 0usize;
                let mut cells_done = 0u64;
                for (band, hi) in boundaries
                    .iter()
                    .copied()
                    .chain(std::iter::once(dims.cols))
                    .enumerate()
                {
                    if hi <= lo {
                        // Degenerate (empty) band: more devices than
                        // columns. Nothing sealed, nothing to frame.
                        continue;
                    }
                    cells_done += (dims.rows * (hi - lo)) as u64;
                    let last = hi == dims.cols;
                    let frame = rolling::BandEvent {
                        band,
                        bands: devices,
                        wave_lo: lo,
                        wave_hi: hi - 1,
                        rows_completed: if last { dims.rows } else { 0 },
                        rows: dims.rows,
                        cells_done,
                        cells_total,
                        score: grid.get(dims.rows - 1, hi - 1).band_score(),
                        best: None,
                    };
                    lo = hi;
                    if !emit(frame) {
                        break;
                    }
                }
            }
            Ok(RunSummary {
                problem: problem.to_string(),
                instance: format!("{n} x {n} split {}-way on {}", devices, platform.name),
                patterns: format!("{raw} → {} column bands", devices),
                params: ScheduleParams::new(t_switch, params.t_share),
                tier: ExecTier::Scalar,
                memory_mode: MemoryMode::Full,
                table_bytes: rolling::full_table_bytes(kernel),
                hetero_ms: report.total_s * 1e3,
                answer: (e.answer)(kernel, &grid),
            })
        }};
    }
    with_problem!(problem, n, multi_of)
}

/// Projects a grid cell to the `f64` frontier score a streamed band
/// frame carries — generic over the registry's cell types, one number
/// per band boundary (wave bands in [`run_solve_served`], device column
/// bands in [`run_solve_multi`]).
trait BandScore {
    fn band_score(&self) -> f64;
}

macro_rules! band_score_as_f64 {
    ($($ty:ty),*) => {$(
        impl BandScore for $ty {
            fn band_score(&self) -> f64 {
                *self as f64
            }
        }
    )*};
}

band_score_as_f64!(u32, i32, u64, f32);

impl BandScore for problems::SwCell {
    fn band_score(&self) -> f64 {
        self.best() as f64
    }
}

impl BandScore for problems::DitherCell {
    fn band_score(&self) -> f64 {
        self.out as f64
    }
}

/// The execution pattern the framework classifies the named problem to
/// — the pattern half of a [`lddp_core::tuner_cache::TuneKey`].
pub fn classify_problem(problem: &str, n: usize) -> Result<lddp_core::pattern::Pattern, String> {
    macro_rules! class_of {
        ($entry:expr) => {{
            let class = lddp_core::framework::choose_execution($entry.kernel.contributing_set())
                .map_err(|e| e.to_string())?;
            Ok(class.exec_pattern)
        }};
    }
    with_problem!(problem, n, class_of)
}

/// Runs the §V-A two-stage sweep for the named instance and returns the
/// tuned parameters — the expensive step the serving tuner cache
/// amortizes across batches.
pub fn tune_params(problem: &str, n: usize, platform_name: &str) -> Result<ScheduleParams, String> {
    let platform = platform_by_name(platform_name);
    macro_rules! tune_of {
        ($entry:expr) => {{
            let e = $entry;
            let fw = Framework::new(platform.clone()).with_io_bytes(e.io.0, e.io.1);
            let tuned = fw.tune(&e.kernel).map_err(|e| e.to_string())?;
            Ok(tuned.params)
        }};
    }
    with_problem!(problem, n, tune_of)
}

/// The execution tier `engine` selects for the named instance, with no
/// measurement — availability-based (pattern + fast-path hooks + host
/// SIMD support). Used where a tier is needed without paying for the
/// wall-clock sweep (pinned-parameter serving requests, JSON output).
pub fn select_tier(
    problem: &str,
    n: usize,
    engine: &crate::parallel::ParallelEngine,
) -> Result<ExecTier, String> {
    macro_rules! tier_of {
        ($entry:expr) => {
            Ok(engine.select_tier(&$entry.kernel))
        };
    }
    with_problem!(problem, n, tier_of)
}

/// Problems the rolling (wave-band) memory mode can serve: anti-diagonal
/// wave kernels whose headline answer is the corner value or the best
/// cell, both captured on the fly — no full table, no traceback needed.
pub fn rolling_supported(problem: &str) -> bool {
    macro_rules! has_rolling {
        ($entry:expr) => {
            Ok::<bool, String>($entry.rolling.is_some())
        };
    }
    with_problem!(problem, 2, has_rolling).unwrap_or(false)
}

/// DP-table memory budget of a platform preset, in bytes — the knob the
/// tuner's memory-mode axis compares the full-table footprint against.
/// Hetero-Low models a 1 GiB-card laptop, so it gets the tight budget.
pub fn platform_table_budget(platform_name: &str) -> usize {
    match platform_name {
        "low" => 128 << 20,
        _ => 512 << 20,
    }
}

/// `(full_table_bytes, rolling_bytes)` of the named instance — the two
/// points of the memory model the tuner chooses between.
pub fn table_footprint(problem: &str, n: usize) -> Result<(usize, usize), String> {
    macro_rules! foot_of {
        ($entry:expr) => {{
            let kernel = &$entry.kernel;
            Ok((
                rolling::full_table_bytes(kernel),
                rolling::rolling_bytes(kernel),
            ))
        }};
    }
    with_problem!(problem, n, foot_of)
}

/// The tuner's memory-mode axis: rolling iff the problem supports it
/// and the full table would breach the platform's memory budget.
/// Rolling trades the materialized grid for a three-band ring, so it
/// only wins when the full table does not fit — the model prefers full
/// tables (traceback stays available) whenever they are affordable.
pub fn choose_memory_mode(problem: &str, n: usize, platform_name: &str) -> MemoryMode {
    if !rolling_supported(problem) {
        return MemoryMode::Full;
    }
    match table_footprint(problem, n) {
        Ok((full, _)) if full > platform_table_budget(platform_name) => MemoryMode::Rolling,
        _ => MemoryMode::Full,
    }
}

/// The full tuning step the serving cache amortizes: the §V-A parameter
/// sweep plus a wall-clock execution-tier sweep on `engine`
/// ([`ParallelEngine::tune_tier`](crate::parallel::ParallelEngine::tune_tier)).
/// For `lcs` the bit-parallel row kernel joins the sweep as a fourth
/// candidate — it computes the answer without a grid, so it competes on
/// the same best-of-wall-clock terms as the grid tiers.
pub fn tune_config(
    problem: &str,
    n: usize,
    platform_name: &str,
    engine: &crate::parallel::ParallelEngine,
) -> Result<TunedConfig, String> {
    let params = tune_params(problem, n, platform_name)?;
    macro_rules! tier_of {
        ($entry:expr) => {
            engine.tune_tier(&$entry.kernel).map_err(|e| e.to_string())
        };
    }
    let (mut tier, points): (ExecTier, Vec<lddp_core::tuner::TierPoint>) =
        with_problem!(problem, n, tier_of)?;
    if problem == "lcs" {
        let grid_secs = points
            .iter()
            .find(|p| p.tier == tier)
            .map(|p| p.secs)
            .unwrap_or(f64::INFINITY);
        let (a, b) = lcs_sequences(n);
        let bp_secs = best_secs(1, || {
            std::hint::black_box(problems::lcs::lcs_length_bitparallel(&a, &b));
        });
        if bp_secs < grid_secs {
            tier = ExecTier::BitParallel;
        }
    }
    Ok(
        TunedConfig::new(params, tier).with_memory_mode(choose_memory_mode(
            problem,
            n,
            platform_name,
        )),
    )
}

/// Renders a [`SolveOutput`] as one machine-readable JSON object.
pub fn render_solve_json(out: &SolveOutput) -> String {
    let s = &out.summary;
    let mut phases = String::new();
    for (i, p) in out.phases.iter().enumerate() {
        if i > 0 {
            phases.push(',');
        }
        let kind = match p.kind {
            PhaseKind::CpuOnly => "cpu_only",
            PhaseKind::Shared => "shared",
        };
        phases.push_str(&format!(
            "{{\"kind\":\"{}\",\"wave_lo\":{},\"wave_hi\":{},\"wall_ms\":{},\
             \"cpu_busy_ms\":{},\"gpu_busy_ms\":{},\"copy_ms\":{}}}",
            kind,
            p.waves.start,
            p.waves.end,
            num(p.wall_s * 1e3),
            num(p.cpu_busy_s * 1e3),
            num(p.gpu_busy_s * 1e3),
            num(p.copy_s * 1e3),
        ));
    }
    format!(
        "{{\"problem\":\"{}\",\"n\":{},\"platform\":\"{}\",\"pattern\":\"{}\",\
         \"t_switch\":{},\"t_share\":{},\"tier\":\"{}\",\"memory_mode\":\"{}\",\
         \"table_bytes\":{},\"total_ms\":{},\
         \"utilization\":{{\"cpu\":{},\"gpu\":{},\"copy\":{}}},\
         \"phases\":[{}],\"answer\":\"{}\"}}",
        escape(&s.problem),
        out.n,
        escape(&out.platform),
        escape(&s.patterns),
        s.params.t_switch,
        s.params.t_share,
        s.tier.as_str(),
        s.memory_mode.as_str(),
        s.table_bytes,
        num(s.hetero_ms),
        num(out.utilization.cpu),
        num(out.utilization.gpu),
        num(out.utilization.copy),
        phases,
        escape(&s.answer),
    )
}

/// Renders a rolling-mode [`RunSummary`] as one machine-readable JSON
/// object — the rolling counterpart of [`render_solve_json`]. No grid
/// is materialized, so there is no utilization / per-phase breakdown;
/// `table_bytes` is the peak band-ring working set instead.
pub fn render_rolling_json(s: &RunSummary, n: usize, platform: &str) -> String {
    format!(
        "{{\"problem\":\"{}\",\"n\":{},\"platform\":\"{}\",\"pattern\":\"{}\",\
         \"t_switch\":{},\"t_share\":{},\"tier\":\"{}\",\"memory_mode\":\"{}\",\
         \"table_bytes\":{},\"total_ms\":{},\"answer\":\"{}\"}}",
        escape(&s.problem),
        n,
        escape(platform),
        escape(&s.patterns),
        s.params.t_switch,
        s.params.t_share,
        s.tier.as_str(),
        s.memory_mode.as_str(),
        s.table_bytes,
        num(s.hetero_ms),
        escape(&s.answer),
    )
}

/// Solves the named problem while recording a full trace, writes the
/// Chrome trace-event JSON to `out_path` (and, optionally, the
/// JSON-lines metrics dump to `metrics_path`), and returns a short
/// confirmation.
pub fn run_trace(
    problem: &str,
    n: usize,
    platform_name: &str,
    params: Option<ScheduleParams>,
    out_path: &str,
    metrics_path: Option<&str>,
) -> Result<String, String> {
    let rec = Recorder::new();
    let output = run_solve_traced(problem, n, platform_name, params, &rec)?;
    let data = rec.into_data();
    let trace_json = chrome::to_chrome_json(&data);
    std::fs::write(out_path, &trace_json).map_err(|e| format!("writing {out_path}: {e}"))?;
    let mut msg = format!(
        "{} spans, {} instants, {} counter series -> {out_path}\n\
         load it at https://ui.perfetto.dev or chrome://tracing\n{}",
        data.spans.len(),
        data.instants.len(),
        data.counters.len(),
        output.summary.render(),
    );
    if let Some(mp) = metrics_path {
        std::fs::write(mp, metrics::to_jsonl(&data)).map_err(|e| format!("writing {mp}: {e}"))?;
        msg.push_str(&format!("\nmetrics   : {mp}"));
    }
    Ok(msg)
}

/// Runs `classify` and renders the result.
pub fn run_classify(set: ContributingSet) -> Result<String, String> {
    let raw = classify(set).ok_or("empty contributing set")?;
    let class = lddp_core::framework::choose_execution(set).map_err(|e| e.to_string())?;
    Ok(format!(
        "contributing set : {set}\npattern          : {raw}\nexecuted as      : {} \
         (adapter: {:?})\nlayout           : {:?}\ntransfers        : {:?}",
        class.exec_pattern, class.adapter, class.layout, class.transfer
    ))
}

/// Runs `tune` and renders both curves.
pub fn run_tune(
    problem: &str,
    n: usize,
    platform_name: &str,
    refined: bool,
) -> Result<String, String> {
    // Tuning happens inside run_solve when params are None; for the tune
    // command we want the curves, so special-case the two string
    // problems that dominate usage and fall back to fig9 otherwise.
    let platform = platform_by_name(platform_name);
    let fw = Framework::new(platform);
    macro_rules! tune_of {
        ($k:expr) => {{
            let kernel = $k;
            let result = if refined {
                fw.tune_refined(&kernel).map_err(|e| e.to_string())?
            } else {
                fw.tune(&kernel).map_err(|e| e.to_string())?
            };
            let mut out = format!(
                "tuned params: t_switch={} t_share={}\n\nt_switch sweep (t_share=0):\n",
                result.params.t_switch, result.params.t_share
            );
            for p in &result.t_switch_curve {
                out.push_str(&format!("  {:>8}  {:>10.3} ms\n", p.value, p.time * 1e3));
            }
            out.push_str("\nt_share sweep:\n");
            for p in &result.t_share_curve {
                out.push_str(&format!("  {:>8}  {:>10.3} ms\n", p.value, p.time * 1e3));
            }
            Ok(out)
        }};
    }
    let seq = |seed: u64| crate::workloads::random_seq(n, 4, seed);
    match problem {
        "levenshtein" => tune_of!(problems::LevenshteinKernel::new(seq(1), seq(2))),
        "lcs" => tune_of!(problems::LcsKernel::new(seq(3), seq(4))),
        "checkerboard" => tune_of!(problems::CheckerboardKernel::random(n, n, 9, 6)),
        "dithering" => tune_of!(problems::DitherKernel::noise(n, n, 7)),
        _ => tune_of!(problems::synthetic::fig9_kernel(
            lddp_core::wavefront::Dims::new(n, n),
            1
        )),
    }
}

/// Runs `balance`: dynamic load balancing vs the tuned static plan.
pub fn run_balance(
    problem: &str,
    n: usize,
    platform_name: &str,
    t_switch: usize,
) -> Result<String, String> {
    let platform = platform_by_name(platform_name);
    macro_rules! balance_of {
        ($k:expr) => {{
            let kernel = $k;
            let fw = Framework::new(platform.clone());
            let tuned = fw.tune(&kernel).map_err(|e| e.to_string())?;
            let static_s = fw
                .estimate(&kernel, tuned.params)
                .map_err(|e| e.to_string())?;
            let balanced = fw
                .solve_balanced(&kernel, t_switch)
                .map_err(|e| e.to_string())?;
            Ok(format!(
                "{problem} {n}x{n} on {}\n  tuned static : {:>10.3} ms (t_switch={} t_share={})\n  balanced     : {:>10.3} ms (t_switch={} avg band={})",
                platform.name,
                static_s * 1e3,
                tuned.params.t_switch,
                tuned.params.t_share,
                balanced.total_s * 1e3,
                balanced.params.t_switch,
                balanced.params.t_share,
            ))
        }};
    }
    let seq = |seed: u64| crate::workloads::random_seq(n, 4, seed);
    match problem {
        "levenshtein" => balance_of!(problems::LevenshteinKernel::new(seq(1), seq(2))),
        "lcs" => balance_of!(problems::LcsKernel::new(seq(3), seq(4))),
        "checkerboard" => balance_of!(problems::CheckerboardKernel::random(n, n, 9, 6)),
        "dithering" => balance_of!(problems::DitherKernel::noise(n, n, 7)),
        _ => balance_of!(problems::synthetic::fig9_kernel(
            lddp_core::wavefront::Dims::new(n, n),
            1
        )),
    }
}

/// CPU/GPU/Framework virtual times for one instance.
#[derive(Debug, Clone)]
pub struct CompareOutput {
    /// Platform display name.
    pub platform_label: String,
    /// Pure multicore-CPU baseline, seconds.
    pub cpu_s: f64,
    /// Pure-GPU baseline, seconds.
    pub gpu_s: f64,
    /// Tuned heterogeneous framework, seconds.
    pub framework_s: f64,
    /// The tuned parameters the framework time used.
    pub params: ScheduleParams,
}

/// Computes the CPU/GPU/Framework triple for `compare`.
pub fn run_compare_data(
    problem: &str,
    n: usize,
    platform_name: &str,
) -> Result<CompareOutput, String> {
    let platform = platform_by_name(platform_name);
    macro_rules! compare_of {
        ($k:expr, $io:expr) => {{
            let kernel = $k;
            let fw = Framework::new(platform.clone()).with_io_bytes($io.0, $io.1);
            let cpu = fw.cpu_baseline(&kernel).map_err(|e| e.to_string())?;
            let gpu = fw.gpu_baseline(&kernel).map_err(|e| e.to_string())?;
            let tuned = fw.tune(&kernel).map_err(|e| e.to_string())?;
            let het = fw
                .estimate(&kernel, tuned.params)
                .map_err(|e| e.to_string())?;
            Ok(CompareOutput {
                platform_label: platform.name.to_string(),
                cpu_s: cpu,
                gpu_s: gpu,
                framework_s: het,
                params: tuned.params,
            })
        }};
    }
    let seq = |seed: u64| crate::workloads::random_seq(n, 4, seed);
    match problem {
        "levenshtein" => compare_of!(problems::LevenshteinKernel::new(seq(1), seq(2)), (2 * n, 8)),
        "lcs" => compare_of!(problems::LcsKernel::new(seq(3), seq(4)), (2 * n, 8)),
        "checkerboard" => compare_of!(problems::CheckerboardKernel::random(n, n, 9, 6), (n * n, 0)),
        "dithering" => compare_of!(problems::DitherKernel::noise(n, n, 7), (n * n, n * n)),
        _ => compare_of!(
            problems::synthetic::fig9_kernel(lddp_core::wavefront::Dims::new(n, n), 1),
            (0, 0)
        ),
    }
}

/// Runs `compare` and renders the CPU/GPU/Framework triple.
pub fn run_compare(problem: &str, n: usize, platform_name: &str) -> Result<String, String> {
    let c = run_compare_data(problem, n, platform_name)?;
    Ok(format!(
        "{problem} {n}x{n} on {}\n  CPU parallel : {:>10.3} ms\n  GPU          : {:>10.3} ms\n  Framework    : {:>10.3} ms  (t_switch={} t_share={})",
        c.platform_label,
        c.cpu_s * 1e3,
        c.gpu_s * 1e3,
        c.framework_s * 1e3,
        c.params.t_switch,
        c.params.t_share
    ))
}

/// Renders `compare` results as one machine-readable JSON object.
pub fn render_compare_json(
    problem: &str,
    n: usize,
    platform_name: &str,
    c: &CompareOutput,
) -> String {
    format!(
        "{{\"problem\":\"{}\",\"n\":{},\"platform\":\"{}\",\"cpu_ms\":{},\"gpu_ms\":{},\
         \"framework_ms\":{},\"t_switch\":{},\"t_share\":{}}}",
        escape(problem),
        n,
        escape(platform_name),
        num(c.cpu_s * 1e3),
        num(c.gpu_s * 1e3),
        num(c.framework_s * 1e3),
        c.params.t_switch,
        c.params.t_share
    )
}

/// Runs the batching solve server until `POST /shutdown` drains it,
/// then returns the final stats snapshot (and writes the serve-run
/// Chrome trace when `trace_out` is given). `fleet` swaps the single
/// [`FrameworkBackend`](crate::serve_backend::FrameworkBackend) for
/// the heterogeneous worker-pool fleet
/// ([`FleetBackend`](crate::fleet_backend::FleetBackend)).
pub fn run_serve(
    addr: &str,
    config: ServeConfig,
    trace_out: Option<&str>,
    tune_cache: Option<&str>,
    fleet: bool,
) -> Result<String, String> {
    // One registry shared by the server and the backend, so serve-side
    // and pool/tuner/fleet-side series land in the same /metrics
    // exposition.
    let live = std::sync::Arc::new(lddp_trace::live::LiveRegistry::new());
    if fleet {
        let backend =
            crate::fleet_backend::FleetBackend::new().with_live(std::sync::Arc::clone(&live));
        serve_with(
            addr,
            config,
            trace_out,
            tune_cache,
            &backend,
            backend.cache(),
            live,
        )
    } else {
        let backend =
            crate::serve_backend::FrameworkBackend::new().with_live(std::sync::Arc::clone(&live));
        serve_with(
            addr,
            config,
            trace_out,
            tune_cache,
            &backend,
            backend.cache(),
            live,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_with(
    addr: &str,
    config: ServeConfig,
    trace_out: Option<&str>,
    tune_cache: Option<&str>,
    backend: &dyn SolveBackend,
    cache: &lddp_core::tuner_cache::TunerCache,
    live: std::sync::Arc<lddp_trace::live::LiveRegistry>,
) -> Result<String, String> {
    let mut prewarmed = 0;
    if let Some(path) = tune_cache {
        // A missing file just means a first run — start cold and
        // create the file at drain.
        if std::path::Path::new(path).exists() {
            prewarmed = cache
                .load_from(path)
                .map_err(|e| format!("loading tuner cache {path}: {e}"))?;
        }
    }
    let recorder = trace_out.map(|_| Recorder::new());
    let sink: &(dyn TraceSink + Sync) = match &recorder {
        Some(r) => r,
        None => &NullSink,
    };
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let workers = config.workers;
    let queue_cap = config.queue_capacity;
    let max_batch = config.max_batch;
    let pools = backend.pool_health();
    let mut server = Server::new(config, backend, sink);
    server.attach_live(live);
    let snapshot = server.run(Some(listener), |client| {
        println!(
            "lddp-serve listening on http://{local} (workers={workers}, queue={queue_cap}, max-batch={max_batch})"
        );
        if !pools.is_empty() {
            println!(
                "fleet: {} pools ({})",
                pools.len(),
                pools
                    .iter()
                    .map(|p| p.platform.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        if let Some(path) = tune_cache {
            println!("tune-cache: {path} ({prewarmed} entries pre-warmed)");
        }
        println!(
            "routes: POST /solve | POST /solve?stream=1 | GET /healthz | GET /stats | \
             GET /metrics | GET /debug/trace | POST /shutdown"
        );
        client.wait_shutdown();
        client.snapshot()
    });
    let mut msg = format!("drained; final stats:\n{}", snapshot.to_json());
    if let Some(path) = tune_cache {
        cache
            .save_to(path)
            .map_err(|e| format!("writing tuner cache {path}: {e}"))?;
        msg.push_str(&format!("\ntune-cache: {} entries -> {path}", cache.len()));
    }
    if let (Some(rec), Some(path)) = (recorder, trace_out) {
        let data = rec.into_data();
        let trace_json = chrome::to_chrome_json(&data);
        std::fs::write(path, &trace_json).map_err(|e| format!("writing {path}: {e}"))?;
        msg.push_str(&format!(
            "\ntrace     : {} spans, {} counter series -> {path}",
            data.spans.len(),
            data.counters.len()
        ));
    }
    Ok(msg)
}

/// Loadgen knobs as parsed from the command line.
#[derive(Debug, Clone)]
pub struct LoadgenOpts {
    /// Target server; `None` = in-process.
    pub addr: Option<String>,
    /// Problem name.
    pub problem: String,
    /// Instance size.
    pub n: usize,
    /// Platform preset name.
    pub platform: String,
    /// Requests to send (0 = until duration elapses).
    pub requests: usize,
    /// Open-loop arrival rate.
    pub rps: Option<f64>,
    /// Wall-clock cap, seconds.
    pub duration_s: Option<f64>,
    /// Closed-loop workers.
    pub concurrency: usize,
    /// Per-request deadline, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Skip the oracle answer check.
    pub no_verify: bool,
    /// Attempts per request (1 = no retries).
    pub retries: u32,
    /// Instance-size mix cycled round-robin (empty = uniform `n`).
    pub mix: Vec<usize>,
    /// Service class stamped on every request.
    pub priority: Priority,
    /// Tenant name stamped on every request (empty = unattributed).
    pub tenant: String,
    /// Drive the in-process server with the fleet backend.
    pub fleet: bool,
    /// Consume `POST /solve?stream=1` band streams and report
    /// time-to-first-band percentiles.
    pub stream: bool,
    /// Cap on how much of a 429/503 `Retry-After` hint is honored,
    /// milliseconds (`None` = the loadgen default).
    pub retry_after_cap_ms: Option<u64>,
}

/// Runs one load experiment (HTTP when `addr` is set, against an
/// in-process server otherwise) and returns the JSON report.
pub fn run_loadgen(opts: &LoadgenOpts) -> Result<String, String> {
    let mut request = SolveRequest::new(opts.problem.clone(), opts.n);
    request.platform = opts.platform.clone();
    request.deadline_ms = opts.deadline_ms;
    request.priority = opts.priority;
    request.tenant = opts.tenant.clone();
    let expect_answer = if opts.no_verify {
        None
    } else {
        Some(run_solve_seq(&opts.problem, opts.n)?)
    };
    // A size mix carries one oracle per size — each request is checked
    // against the answer for *its* instance, not the template's.
    let mut mix: Vec<(usize, Option<String>)> = Vec::with_capacity(opts.mix.len());
    for &size in &opts.mix {
        let oracle = if opts.no_verify {
            None
        } else {
            Some(run_solve_seq(&opts.problem, size)?)
        };
        mix.push((size, oracle));
    }
    let retry = if opts.retries > 1 {
        RetryPolicy {
            max_attempts: opts.retries,
            ..RetryPolicy::default_serving(opts.retries as u64)
        }
    } else {
        RetryPolicy::none()
    };
    let cfg = LoadgenConfig {
        request,
        total: opts.requests,
        rps: opts.rps,
        duration: opts.duration_s.map(Duration::from_secs_f64),
        concurrency: opts.concurrency,
        expect_answer,
        retry,
        mix,
        stream: opts.stream,
        retry_after_cap: opts
            .retry_after_cap_ms
            .map(Duration::from_millis)
            .unwrap_or(lddp_serve::loadgen::DEFAULT_RETRY_AFTER_CAP),
    };
    let report = match &opts.addr {
        Some(addr) => {
            // Bracket the run with /metrics scrapes so the report can
            // carry the server-side counter deltas this load caused. A
            // failed scrape (old server, transient error) degrades to a
            // report without the delta rather than failing the run.
            let scrape_timeout = Duration::from_secs(5);
            let target = HttpTarget::new(addr.clone(), Duration::from_secs(60));
            let before = lddp_serve::loadgen::scrape_metrics(addr, scrape_timeout).ok();
            let mut report = lddp_serve::loadgen::run(&target, &cfg);
            if let (Some(before), Ok(after)) = (
                before,
                lddp_serve::loadgen::scrape_metrics(addr, scrape_timeout),
            ) {
                report.server_metrics_delta = lddp_serve::loadgen::metrics_delta(&before, &after);
            }
            report
        }
        None if opts.fleet => {
            let live = std::sync::Arc::new(lddp_trace::live::LiveRegistry::new());
            let backend =
                crate::fleet_backend::FleetBackend::new().with_live(std::sync::Arc::clone(&live));
            let mut server = Server::new(ServeConfig::default(), &backend, &NullSink);
            server.attach_live(live);
            server.run(None, |client| {
                let before = lddp_trace::live::parse_prometheus(&client.metrics_text());
                let mut report = lddp_serve::loadgen::run(client, &cfg);
                let after = lddp_trace::live::parse_prometheus(&client.metrics_text());
                report.server_metrics_delta = lddp_serve::loadgen::metrics_delta(&before, &after);
                report
            })
        }
        None => {
            let live = std::sync::Arc::new(lddp_trace::live::LiveRegistry::new());
            let backend = crate::serve_backend::FrameworkBackend::new()
                .with_live(std::sync::Arc::clone(&live));
            let mut server = Server::new(ServeConfig::default(), &backend, &NullSink);
            server.attach_live(live);
            server.run(None, |client| {
                let before = lddp_trace::live::parse_prometheus(&client.metrics_text());
                let mut report = lddp_serve::loadgen::run(client, &cfg);
                let after = lddp_trace::live::parse_prometheus(&client.metrics_text());
                report.server_metrics_delta = lddp_serve::loadgen::metrics_delta(&before, &after);
                report
            })
        }
    };
    Ok(report.to_json())
}

/// Problems covered by `bench --quick`: the kernels with a bulk
/// [`lddp_core::kernel::WaveKernel`] fast path.
pub const BENCH_PROBLEMS: &[&str] = &[
    "lcs",
    "levenshtein",
    "needleman-wunsch",
    "smith-waterman",
    "dtw",
];

/// Runs `f` several times and returns the best wall-clock seconds —
/// minimum, not mean, because scheduling noise only ever adds time.
fn best_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Quick wall-clock benchmark of the real thread engine: cells/s per
/// problem across the execution tiers (scalar, bulk, SIMD, and — for
/// `lcs` — the bit-parallel row kernel), pooled-vs-fresh-engine solve
/// times, and a worker-count sweep through the shared pool. Prints (and
/// optionally writes) one JSON object — the perf trajectory record CI
/// archives as `BENCH_pr5.json` so future changes have a baseline.
pub fn run_bench_quick(n: usize, out_path: Option<&str>) -> Result<String, String> {
    // Bench with a live registry attached — the numbers CI compares
    // against the baseline must include the telemetry the serving path
    // always pays, not a telemetry-free best case.
    let live = std::sync::Arc::new(lddp_trace::live::LiveRegistry::new());
    let engine = crate::parallel::ParallelEngine::host().with_live(live);
    let scalar_engine = engine.clone().with_tier(Some(ExecTier::Scalar));
    let bulk_engine = engine.clone().with_tier(Some(ExecTier::Bulk));
    let simd_engine = engine.clone().with_tier(Some(ExecTier::Simd));
    let threads = engine.threads();
    let iters = 3;

    let mut entries: Vec<String> = Vec::new();
    for problem in BENCH_PROBLEMS {
        macro_rules! qb {
            ($entry:expr) => {{
                let kernel = $entry.kernel;
                let d = kernel.dims();
                let cells = (d.rows * d.cols) as f64;
                // Warm the pool, the allocator, and the page cache once
                // before timing.
                engine.solve(&kernel).map_err(|e| e.to_string())?;
                let auto_s = best_secs(iters, || {
                    engine.solve(&kernel).unwrap();
                });
                let bulk_s = best_secs(iters, || {
                    bulk_engine.solve(&kernel).unwrap();
                });
                // On hosts without SIMD support (or for kernels without
                // a SIMD hook) this measures the downgraded tier — the
                // recorded "tier" key says which one actually ran.
                let simd_s = best_secs(iters, || {
                    simd_engine.solve(&kernel).unwrap();
                });
                let scalar_s = best_secs(iters, || {
                    scalar_engine.solve(&kernel).unwrap();
                });
                // A fresh engine per solve pays thread spawn + teardown
                // — the pre-pool cost model.
                let spawn_s = best_secs(iters, || {
                    crate::parallel::ParallelEngine::new(threads)
                        .solve(&kernel)
                        .unwrap();
                });
                let bitparallel = if *problem == "lcs" {
                    let (a, b) = lcs_sequences(n);
                    let bp_s = best_secs(iters, || {
                        std::hint::black_box(problems::lcs::lcs_length_bitparallel(&a, &b));
                    });
                    format!(",\"cells_per_s_bitparallel\":{}", num(cells / bp_s))
                } else {
                    String::new()
                };
                // Single-worker regression guard on the two problems the
                // roadmap flagged: with one thread both the pooled and the
                // fresh-engine paths bypass the pool's barrier handoff, so
                // the ratio must sit near 1.0. The pre-bypass engine paid
                // the spin-barrier here and reported pool_speedup well
                // below 1; a lenient floor keeps that from coming back
                // silently.
                let one_thread = if matches!(*problem, "lcs" | "needleman-wunsch") {
                    let pool_1t_engine = crate::parallel::ParallelEngine::new(1);
                    let pool_1t = best_secs(iters, || {
                        pool_1t_engine.solve(&kernel).unwrap();
                    });
                    let spawn_1t = best_secs(iters, || {
                        crate::parallel::ParallelEngine::new(1).solve(&kernel).unwrap();
                    });
                    let speedup_1t = spawn_1t / pool_1t;
                    if speedup_1t < 0.5 {
                        return Err(format!(
                            "bench regression: {problem} pool_speedup_1t = {speedup_1t:.3} \
                             (< 0.5); the single-worker solve is paying a pool handoff it \
                             should bypass"
                        ));
                    }
                    format!(
                        ",\"solve_ms_pool_1t\":{},\"solve_ms_spawn_1t\":{},\"pool_speedup_1t\":{}",
                        num(pool_1t * 1e3),
                        num(spawn_1t * 1e3),
                        num(speedup_1t),
                    )
                } else {
                    String::new()
                };
                Ok(format!(
                    "{{\"problem\":\"{}\",\"cells\":{},\"tier\":\"{}\",\
                     \"cells_per_s_scalar\":{},\"cells_per_s_bulk\":{},\"cells_per_s_simd\":{},\
                     \"bulk_speedup\":{},\"simd_speedup\":{}{},\
                     \"solve_ms_pool\":{},\"solve_ms_spawn\":{},\"pool_speedup\":{}{}}}",
                    escape(problem),
                    num(cells),
                    engine.select_tier(&kernel).as_str(),
                    num(cells / scalar_s),
                    num(cells / bulk_s),
                    num(cells / simd_s),
                    num(scalar_s / bulk_s),
                    num(bulk_s / simd_s),
                    bitparallel,
                    num(auto_s * 1e3),
                    num(spawn_s * 1e3),
                    num(spawn_s / auto_s),
                    one_thread,
                ))
            }};
        }
        let entry: Result<String, String> = with_problem!(*problem, n, qb);
        entries.push(entry?);
    }

    // §V-A-style worker-count sweep, every candidate through the same
    // pool (no fresh thread set per point).
    let sweep: Result<String, String> = {
        macro_rules! sweep_of {
            ($entry:expr) => {{
                let (best, points) = engine
                    .tune_worker_count(&$entry.kernel, &[])
                    .map_err(|e| e.to_string())?;
                let pts: Vec<String> = points
                    .iter()
                    .map(|p| format!("{{\"workers\":{},\"ms\":{}}}", p.value, num(p.time * 1e3)))
                    .collect();
                Ok(format!(
                    "{{\"problem\":\"lcs\",\"best_workers\":{best},\"points\":[{}]}}",
                    pts.join(",")
                ))
            }};
        }
        with_problem!("lcs", n, sweep_of)
    };

    let json = format!(
        "{{\"bench\":\"quick\",\"n\":{n},\"threads\":{threads},\"iters\":{iters},\
         \"simd\":\"{}\",\"avx512\":{},\"problems\":[{}],\"worker_sweep\":{}}}",
        lddp_core::kernel::simd_backend(),
        lddp_core::kernel::avx512_available(),
        entries.join(","),
        sweep?
    );
    if let Some(path) = out_path {
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(json)
}

/// Score-only benchmark of the rolling (wave-band) memory mode: each
/// wave problem is solved with only the ring of three live wavefronts
/// resident, and the entry records the measured peak working set next
/// to the full-table footprint it avoided. CI runs this at n = 8192
/// under a virtual-memory cap the full table could not allocate — the
/// run completing at all is the proof that the linear-space tier stays
/// inside its `O(rows + cols)` budget. Answers are not oracle-checked
/// here (a full-table oracle would defeat the memory cap); bit-identity
/// is covered by the property tests at smaller sizes.
pub fn run_bench_rolling(n: usize, out_path: Option<&str>) -> Result<String, String> {
    let live = std::sync::Arc::new(lddp_trace::live::LiveRegistry::new());
    let engine = crate::parallel::ParallelEngine::host().with_live(live);
    let threads = engine.threads();
    let iters = 2;
    let params = ScheduleParams::default();

    let mut entries: Vec<String> = Vec::new();
    for problem in BENCH_PROBLEMS {
        let (full_bytes, band_bytes) = table_footprint(problem, n)?;
        let cells = (n * n) as f64;
        let mut last: Option<RunSummary> = None;
        let mut err: Option<String> = None;
        let secs = best_secs(iters, || {
            let spec = ServedSpec {
                params,
                memory: MemoryMode::Rolling,
                ..ServedSpec::default()
            };
            match run_solve_served(problem, n, "high", &engine, &spec) {
                Ok((s, _)) => last = Some(s),
                Err(e) => err = Some(e),
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        let summary = last.expect("best_secs ran at least once");
        // The ring must actually be band-sized. Equality with the
        // analytic floor holds today; the lenient bound only has to
        // catch a rolling path that quietly re-materializes the grid.
        if n >= 64 && summary.table_bytes.saturating_mul(4) > full_bytes {
            return Err(format!(
                "bench regression: {problem} rolling peak {} bytes is not meaningfully \
                 below the {} byte full table",
                summary.table_bytes, full_bytes
            ));
        }
        entries.push(format!(
            "{{\"problem\":\"{}\",\"cells\":{},\"tier\":\"{}\",\
             \"full_table_bytes\":{},\"rolling_band_bytes\":{},\"rolling_peak_bytes\":{},\
             \"table_shrink\":{},\"cells_per_s\":{},\"solve_ms\":{},\"answer\":\"{}\"}}",
            escape(problem),
            num(cells),
            summary.tier.as_str(),
            full_bytes,
            band_bytes,
            summary.table_bytes,
            num(full_bytes as f64 / summary.table_bytes.max(1) as f64),
            num(cells / secs),
            num(secs * 1e3),
            escape(&summary.answer),
        ));
    }

    let json = format!(
        "{{\"bench\":\"rolling\",\"n\":{n},\"threads\":{threads},\"iters\":{iters},\
         \"simd\":\"{}\",\"avx512\":{},\"problems\":[{}]}}",
        lddp_core::kernel::simd_backend(),
        lddp_core::kernel::avx512_available(),
        entries.join(",")
    );
    if let Some(path) = out_path {
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(json)
}

/// Problems the chaos campaign drives through the engine's
/// degradation ladder: a mix of kernels with a bulk fast path (where
/// the `bulk_to_scalar` rung is reachable) and scalar-only kernels
/// (where recovery must come from `parallel_to_sequential`).
pub const CHAOS_PROBLEMS: &[&str] = &["lcs", "dtw", "seam", "dithering", "weighted-edit"];

/// Runs a seeded fault-injection campaign and returns its JSON report.
///
/// Three stages, all oracle-checked (any divergence is a hard `Err`,
/// which the binary turns into a nonzero exit):
///
/// 1. **Engine ladder** — repeated pooled solves under injected worker
///    and bulk panics; every answer must match the sequential oracle
///    regardless of which degradation rungs fired, and the shared pool
///    must still serve a clean solve afterwards.
/// 2. **Hetero executor** — solves under injected device faults; a
///    fault degrades the run to the modelled CPU-only baseline and the
///    answer must be unchanged.
/// 3. **Serving stack** — an HTTP loadgen run against a server whose
///    backend and front end both draw from seeded fault plans (worker
///    panics, device faults, torn/slow connections, queue stalls),
///    with retrying clients; completed answers must all pass the
///    oracle and every request must be accounted for.
pub fn run_chaos(seed: u64, campaign: &str, out_path: Option<&str>) -> Result<String, String> {
    // The campaign injects panics by design; the default hook would
    // spray hundreds of backtraces over the report. Silence it for the
    // run and restore it afterwards, on success or failure alike.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = run_chaos_inner(seed, campaign, out_path);
    let _ = std::panic::take_hook();
    std::panic::set_hook(prev_hook);
    result
}

fn run_chaos_inner(seed: u64, campaign: &str, out_path: Option<&str>) -> Result<String, String> {
    let cfg = match campaign {
        "quick" => FaultPlanConfig::quick(),
        "heavy" => FaultPlanConfig::heavy(),
        other => {
            return Err(format!(
                "unknown campaign '{other}'; expected quick or heavy"
            ))
        }
    };
    let (ladder_iters, hetero_iters, serve_total) = if campaign == "heavy" {
        (12usize, 16usize, 240usize)
    } else {
        (6, 8, 120)
    };
    let n = 48;

    // Stage 1: the engine's degradation ladder under worker/bulk
    // panics, every answer checked against the sequential oracle.
    // A fixed worker count (not host-sized) for two reasons: the
    // single-threaded shortcut path never consults the injector, so a
    // one-core host would silently skip the whole stage; and a pinned
    // pool makes the per-(worker, wave) draw sequence — and thus the
    // campaign report — identical on every machine.
    let engine = crate::parallel::ParallelEngine::new(4);
    let ladder_plan = FaultPlan::new(seed, cfg);
    let mut ladder_solves = 0u64;
    let mut ladder_degraded = 0u64;
    let mut rung_bulk = 0u64;
    let mut rung_seq = 0u64;
    for problem in CHAOS_PROBLEMS {
        let oracle = run_solve_seq(problem, n)?;
        for _ in 0..ladder_iters {
            macro_rules! ladder {
                ($entry:expr) => {{
                    let e = $entry;
                    let spec = crate::parallel::SolveSpec {
                        injector: Some(&ladder_plan),
                        ..crate::parallel::SolveSpec::default()
                    };
                    let (solved, steps) = engine
                        .solve_with(&e.kernel, &spec)
                        .map_err(|e| e.to_string())?;
                    let grid = solved.grid().expect("a full-memory spec yields a grid");
                    Ok(((e.answer)(&e.kernel, &grid), steps))
                }};
            }
            let probe: Result<(String, Vec<DegradeStep>), String> =
                with_problem!(*problem, n, ladder);
            let (answer, steps) = probe?;
            if answer != oracle {
                return Err(format!(
                    "chaos: degraded {problem} answer diverged from the oracle \
                     (got \"{answer}\", want \"{oracle}\", rungs {steps:?})"
                ));
            }
            ladder_solves += 1;
            if !steps.is_empty() {
                ladder_degraded += 1;
            }
            for step in &steps {
                match step {
                    DegradeStep::BulkToScalar => rung_bulk += 1,
                    DegradeStep::ParallelToSequential => rung_seq += 1,
                    DegradeStep::HeteroToCpuOnly => {}
                }
            }
        }
    }
    // The pool must come out of the campaign healthy: one clean solve,
    // no injector, same oracle.
    {
        let oracle = run_solve_seq("lcs", n)?;
        macro_rules! health {
            ($entry:expr) => {{
                let e = $entry;
                let grid = engine.solve(&e.kernel).map_err(|e| e.to_string())?;
                Ok((e.answer)(&e.kernel, &grid))
            }};
        }
        let clean: Result<String, String> = with_problem!("lcs", n, health);
        if clean? != oracle {
            return Err("chaos: pool unhealthy after the ladder stage".into());
        }
    }

    // Stage 2: device faults in the hetero executor degrade to the
    // CPU-only rung without changing the answer.
    let hetero_plan = FaultPlan::new(seed ^ 0x9e37_79b9_7f4a_7c15, cfg);
    let hetero_n = 64;
    let hetero_oracle = run_solve_seq("lcs", hetero_n)?;
    macro_rules! hetero_probe {
        ($entry:expr) => {{
            let e = $entry;
            let kernel = &e.kernel;
            let fw = Framework::new(platform_by_name("high")).with_io_bytes(e.io.0, e.io.1);
            // Pinned rather than tuned: on instances this small the
            // tuner often picks a CPU-only schedule, which has no
            // device-involved waves and therefore nothing to fault.
            // An early switch with a narrow CPU band guarantees the
            // device participates in most waves.
            let params = ScheduleParams::new(8, 32);
            let mut cpu_only = 0u64;
            for _ in 0..hetero_iters {
                let sol = fw
                    .solve_chaos(kernel, params, &hetero_plan)
                    .map_err(|e| e.to_string())?;
                if !sol.degradation.is_empty() {
                    cpu_only += 1;
                }
                let answer = (e.answer)(kernel, &sol.grid);
                if answer != hetero_oracle {
                    return Err(format!(
                        "chaos: hetero answer diverged after a device fault \
                         (got \"{answer}\", want \"{hetero_oracle}\")"
                    ));
                }
            }
            Ok(cpu_only)
        }};
    }
    let cpu_only: Result<u64, String> = with_problem!("lcs", hetero_n, hetero_probe);
    let cpu_only_reruns = cpu_only?;

    // Stage 3: the serving stack over real HTTP, faults on both sides
    // of the wire, retrying clients, oracle-checked answers.
    let serve_oracle = run_solve_seq("lcs", n)?;
    let backend_plan = std::sync::Arc::new(FaultPlan::new(seed ^ 0xd1b5_4a32_d192_ed03, cfg));
    let server_plan = FaultPlan::new(seed ^ 0x94d0_49bb_1331_11eb, cfg);
    let backend = crate::serve_backend::FrameworkBackend::with_injector(backend_plan.clone());
    let server = Server::with_injector(
        ServeConfig {
            workers: 2,
            queue_capacity: 128,
            max_batch: 4,
            ..ServeConfig::default()
        },
        &backend,
        &NullSink,
        &server_plan,
    );
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding loopback: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let (report, snapshot) = server.run(Some(listener), |client| {
        let target = HttpTarget::new(local.to_string(), Duration::from_secs(30));
        let lg = LoadgenConfig {
            request: SolveRequest::new("lcs", n),
            total: serve_total,
            concurrency: 4,
            expect_answer: Some(serve_oracle.clone()),
            retry: RetryPolicy::default_serving(seed),
            ..LoadgenConfig::default()
        };
        let report = lddp_serve::loadgen::run(&target, &lg);
        client.shutdown();
        (report, client.snapshot())
    });
    if report.mismatches != 0 {
        return Err(format!(
            "chaos: {} served answers diverged from the oracle (report: {})",
            report.mismatches,
            report.to_json()
        ));
    }
    if report.completed + report.rejected + report.errors != report.sent {
        return Err(format!(
            "chaos: request accounting leaked ({} sent vs {} completed + {} rejected + {} errors)",
            report.sent, report.completed, report.rejected, report.errors
        ));
    }

    let json = format!(
        "{{\"chaos\":{{\"seed\":{seed},\"campaign\":\"{}\",\
         \"engine\":{{\"solves\":{ladder_solves},\"degraded\":{ladder_degraded},\
         \"rungs\":{{\"bulk_to_scalar\":{rung_bulk},\"parallel_to_sequential\":{rung_seq}}},\
         \"pool_healthy_after\":true}},\
         \"hetero\":{{\"solves\":{hetero_iters},\"cpu_only_reruns\":{cpu_only_reruns}}},\
         \"serving\":{{\"report\":{},\"stats\":{}}},\
         \"faults\":{{\"engine\":{},\"hetero\":{},\"backend\":{},\"server\":{}}},\
         \"verdict\":\"pass\"}}}}",
        escape(campaign),
        report.to_json(),
        snapshot.to_json(),
        ladder_plan.report().to_json(),
        hetero_plan.report().to_json(),
        backend_plan.report().to_json(),
        server_plan.report().to_json(),
    );
    if let Some(path) = out_path {
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(json)
}

/// Executes a parsed command, returning the output text.
pub fn execute(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(usage()),
        Command::Classify { set } => run_classify(set),
        Command::Solve {
            problem,
            n,
            platform,
            params,
            json,
            memory,
        } => {
            // Explicit --memory pins the mode; otherwise the tuner's
            // budget model decides (rolling only when the full table
            // would not fit the platform's table-memory budget).
            let mode = memory.unwrap_or_else(|| choose_memory_mode(&problem, n, &platform));
            if mode == MemoryMode::Rolling {
                if !rolling_supported(&problem) {
                    return Err(format!(
                        "problem '{problem}' has no rolling-mode solve \
                         (its answer needs the full table)"
                    ));
                }
                let engine = crate::parallel::ParallelEngine::host();
                let params = match params {
                    Some(p) => p,
                    None => tune_params(&problem, n, &platform)?,
                };
                let spec = ServedSpec {
                    params,
                    memory: MemoryMode::Rolling,
                    ..ServedSpec::default()
                };
                let (summary, _) = run_solve_served(&problem, n, &platform, &engine, &spec)?;
                if json {
                    Ok(render_rolling_json(&summary, n, &platform))
                } else {
                    Ok(summary.render())
                }
            } else if json {
                run_solve_traced(&problem, n, &platform, params, &NullSink)
                    .map(|o| render_solve_json(&o))
            } else {
                run_solve(&problem, n, &platform, params).map(|s| s.render())
            }
        }
        Command::Tune {
            problem,
            n,
            platform,
            refined,
        } => run_tune(&problem, n, &platform, refined),
        Command::Balance {
            problem,
            n,
            platform,
            t_switch,
        } => run_balance(&problem, n, &platform, t_switch),
        Command::Compare {
            problem,
            n,
            platform,
            json,
        } => {
            if json {
                run_compare_data(&problem, n, &platform)
                    .map(|c| render_compare_json(&problem, n, &platform, &c))
            } else {
                run_compare(&problem, n, &platform)
            }
        }
        Command::Trace {
            problem,
            n,
            platform,
            params,
            out,
            metrics,
        } => run_trace(&problem, n, &platform, params, &out, metrics.as_deref()),
        Command::Serve {
            addr,
            workers,
            queue_cap,
            batch_queue_cap,
            tenant_rps,
            tenant_burst,
            max_batch,
            deadline_ms,
            watchdog_ms,
            trace,
            tune_cache,
            fleet,
        } => run_serve(
            &addr,
            ServeConfig {
                workers,
                queue_capacity: queue_cap,
                batch_queue_capacity: batch_queue_cap,
                tenant_quota_rps: tenant_rps,
                tenant_quota_burst: tenant_burst
                    .unwrap_or(ServeConfig::default().tenant_quota_burst),
                max_batch,
                default_deadline_ms: deadline_ms,
                watchdog_ms,
                ..ServeConfig::default()
            },
            trace.as_deref(),
            tune_cache.as_deref(),
            fleet,
        ),
        Command::Loadgen {
            addr,
            problem,
            n,
            platform,
            requests,
            rps,
            duration_s,
            concurrency,
            deadline_ms,
            no_verify,
            retries,
            mix,
            priority,
            tenant,
            fleet,
            stream,
            retry_after_cap_ms,
        } => run_loadgen(&LoadgenOpts {
            addr,
            problem,
            n,
            platform,
            requests,
            rps,
            duration_s,
            concurrency,
            deadline_ms,
            no_verify,
            retries,
            mix,
            priority,
            tenant,
            fleet,
            stream,
            retry_after_cap_ms,
        }),
        Command::Bench { n, rolling, out } => {
            if rolling {
                run_bench_rolling(n, out.as_deref())
            } else {
                run_bench_quick(n, out.as_deref())
            }
        }
        Command::Chaos {
            seed,
            campaign,
            out,
        } => run_chaos(seed, &campaign, out.as_deref()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_classify() {
        let cmd = parse(&argv("classify --set W,NW,N")).unwrap();
        assert_eq!(
            cmd,
            Command::Classify {
                set: ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N])
            }
        );
    }

    #[test]
    fn parse_solve_with_params() {
        let cmd = parse(&argv(
            "solve --problem levenshtein --n 256 --platform low --t-switch 8 --t-share 16",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Solve {
                problem: "levenshtein".into(),
                n: 256,
                platform: "low".into(),
                params: Some(ScheduleParams::new(8, 16)),
                json: false,
                memory: None,
            }
        );
        let cmd = parse(&argv("solve --problem lcs --memory rolling")).unwrap();
        assert!(matches!(
            cmd,
            Command::Solve {
                memory: Some(MemoryMode::Rolling),
                ..
            }
        ));
        assert!(parse(&argv("solve --problem lcs --memory sideways")).is_err());
    }

    #[test]
    fn parse_trace_and_json_flags() {
        let cmd = parse(&argv(
            "trace --problem lcs --n 128 --out t.json --metrics m.jsonl",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                problem: "lcs".into(),
                n: 128,
                platform: "high".into(),
                params: None,
                out: "t.json".into(),
                metrics: Some("m.jsonl".into()),
            }
        );
        let cmd = parse(&argv("trace --problem lcs --t-switch 8 --t-share 32")).unwrap();
        match cmd {
            Command::Trace { params, .. } => {
                assert_eq!(params, Some(ScheduleParams::new(8, 32)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // --out defaults; --metrics stays off unless given.
        let cmd = parse(&argv("trace --problem lcs")).unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                problem: "lcs".into(),
                n: 512,
                platform: "high".into(),
                params: None,
                out: "run.trace.json".into(),
                metrics: None,
            }
        );
        let cmd = parse(&argv("solve --problem lcs --json")).unwrap();
        assert!(matches!(cmd, Command::Solve { json: true, .. }));
        let cmd = parse(&argv("compare --problem lcs --json")).unwrap();
        assert!(matches!(cmd, Command::Compare { json: true, .. }));
        assert!(parse(&argv("trace --problem lcs --out")).is_err());
        assert!(parse(&argv("trace")).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(&argv("solve --problem nonsense")).is_err());
        assert!(parse(&argv("solve")).is_err());
        assert!(parse(&argv("classify")).is_err());
        assert!(parse(&argv("classify --set X")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("solve --problem lcs --platform mid")).is_err());
        assert!(parse(&argv("solve --problem lcs --n NaN")).is_err());
    }

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parse_set_variants() {
        assert_eq!(
            parse_set("w,ne").unwrap(),
            ContributingSet::new(&[RepCell::W, RepCell::Ne])
        );
        assert!(parse_set("").is_err());
        assert!(parse_set("Q").is_err());
    }

    #[test]
    fn classify_renders_all_fields() {
        let out = run_classify(ContributingSet::new(&[RepCell::Nw])).unwrap();
        assert!(out.contains("Inverted-L"));
        assert!(out.contains("executed as"));
        assert!(out.contains("Horizontal"));
    }

    #[test]
    fn solve_small_instances_of_every_problem() {
        for problem in PROBLEMS {
            let summary =
                run_solve(problem, 48, "high", None).unwrap_or_else(|e| panic!("{problem}: {e}"));
            assert!(summary.hetero_ms > 0.0, "{problem}");
            assert!(!summary.answer.is_empty(), "{problem}");
        }
    }

    #[test]
    fn compare_and_tune_render() {
        let out = run_compare("lcs", 64, "low").unwrap();
        assert!(out.contains("CPU parallel"));
        assert!(out.contains("Framework"));
        let out = run_tune("lcs", 64, "high", false).unwrap();
        assert!(out.contains("t_switch sweep"));
        let out = run_tune("lcs", 64, "high", true).unwrap();
        assert!(out.contains("tuned params"));
    }

    #[test]
    fn balance_command_parses_and_runs() {
        let cmd = parse(&argv("balance --problem lcs --n 64 --t-switch 4")).unwrap();
        assert_eq!(
            cmd,
            Command::Balance {
                problem: "lcs".into(),
                n: 64,
                platform: "high".into(),
                t_switch: 4,
            }
        );
        let out = run_balance("lcs", 64, "high", 4).unwrap();
        assert!(out.contains("balanced"));
        assert!(out.contains("tuned static"));
    }

    #[test]
    fn solve_json_is_parseable_and_has_phases() {
        let out = run_solve_traced("levenshtein", 64, "high", None, &NullSink).unwrap();
        let text = render_solve_json(&out);
        let v = lddp_trace::json::parse(&text).unwrap();
        assert_eq!(
            v.get("problem").and_then(|j| j.as_str()),
            Some("levenshtein")
        );
        assert_eq!(v.get("n").and_then(|j| j.as_f64()), Some(64.0));
        let tier = v.get("tier").and_then(|j| j.as_str()).expect("tier key");
        assert!(ExecTier::parse(tier).is_some(), "unknown tier {tier:?}");
        assert!(v.get("total_ms").and_then(|j| j.as_f64()).unwrap() > 0.0);
        let util = v.get("utilization").unwrap();
        assert!(util.get("cpu").and_then(|j| j.as_f64()).unwrap() > 0.0);
        let phases = v.get("phases").and_then(|j| j.as_arr()).unwrap();
        assert!(!phases.is_empty(), "traced solve must report phases");
        for p in phases {
            assert!(p.get("wall_ms").and_then(|j| j.as_f64()).unwrap() >= 0.0);
            let kind = p.get("kind").and_then(|j| j.as_str()).unwrap();
            assert!(kind == "cpu_only" || kind == "shared");
        }
        assert!(v.get("answer").and_then(|j| j.as_str()).is_some());
    }

    #[test]
    fn compare_json_is_parseable() {
        let c = run_compare_data("lcs", 64, "low").unwrap();
        let text = render_compare_json("lcs", 64, "low", &c);
        let v = lddp_trace::json::parse(&text).unwrap();
        assert!(v.get("cpu_ms").and_then(|j| j.as_f64()).unwrap() > 0.0);
        assert!(v.get("framework_ms").and_then(|j| j.as_f64()).unwrap() > 0.0);
        assert_eq!(v.get("platform").and_then(|j| j.as_str()), Some("low"));
    }

    #[test]
    fn trace_command_writes_loadable_chrome_json() {
        let dir = std::env::temp_dir();
        let out = dir.join("lddp_cli_test.trace.json");
        let metrics = dir.join("lddp_cli_test.metrics.jsonl");
        // Explicit parameters that force a shared phase, so the trace
        // contains Link transfer spans (the tuner picks a CPU-only
        // schedule for small Levenshtein instances).
        let msg = run_trace(
            "levenshtein",
            256,
            "high",
            Some(ScheduleParams::new(8, 64)),
            out.to_str().unwrap(),
            Some(metrics.to_str().unwrap()),
        )
        .unwrap();
        assert!(msg.contains("spans"));
        let text = std::fs::read_to_string(&out).unwrap();
        let v = lddp_trace::json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(|j| j.as_arr()).unwrap();
        // Phase spans, wave spans and transfer spans all present.
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|j| j.as_str()))
            .collect();
        assert!(names.iter().any(|n| n.starts_with("phase.")));
        assert!(names.contains(&"wave"));
        assert!(names.contains(&"copy"));
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.lines().count() > 3);
        for line in m.lines() {
            lddp_trace::json::parse(line).unwrap();
        }

        // A tuned trace additionally records the sweep.
        let msg = run_trace("levenshtein", 64, "high", None, out.to_str().unwrap(), None).unwrap();
        assert!(msg.contains("spans"));
        let text = std::fs::read_to_string(&out).unwrap();
        let v = lddp_trace::json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(|j| j.as_arr()).unwrap();
        assert!(events
            .iter()
            .filter_map(|e| e.get("name").and_then(|j| j.as_str()))
            .any(|n| n == "tuner.sweep"));
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn execute_dispatches() {
        let out = execute(Command::Help).unwrap();
        assert!(out.contains("USAGE"));
        let out = execute(parse(&argv("classify --set NE")).unwrap()).unwrap();
        assert!(out.contains("mInverted-L"));
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:8700".into(),
                workers: 4,
                queue_cap: 256,
                batch_queue_cap: None,
                tenant_rps: None,
                tenant_burst: None,
                max_batch: 8,
                deadline_ms: None,
                watchdog_ms: None,
                trace: None,
                tune_cache: None,
                fleet: false,
            }
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 0.0.0.0:9000 --workers 2 --queue-cap 32 --max-batch 4 \
                 --batch-queue-cap 16 --tenant-rps 5 --tenant-burst 10 \
                 --deadline-ms 500 --watchdog-ms 250 --trace serve.trace.json \
                 --tune-cache tc.json --fleet"
            ))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                workers: 2,
                queue_cap: 32,
                batch_queue_cap: Some(16),
                tenant_rps: Some(5.0),
                tenant_burst: Some(10.0),
                max_batch: 4,
                deadline_ms: Some(500),
                watchdog_ms: Some(250),
                trace: Some("serve.trace.json".into()),
                tune_cache: Some("tc.json".into()),
                fleet: true,
            }
        );
        assert!(parse(&argv("serve --tune-cache")).is_err());
        assert!(parse(&argv("serve --workers")).is_err());
        assert!(parse(&argv("serve --queue-cap many")).is_err());
        assert!(parse(&argv("serve --watchdog-ms soon")).is_err());
        assert!(parse(&argv("serve --tenant-rps 0")).is_err());
        assert!(parse(&argv("serve --tenant-burst 0.5")).is_err());
    }

    #[test]
    fn parse_loadgen_defaults_and_flags() {
        assert_eq!(
            parse(&argv("loadgen --problem lcs")).unwrap(),
            Command::Loadgen {
                addr: None,
                problem: "lcs".into(),
                n: 256,
                platform: "high".into(),
                requests: 100,
                rps: None,
                duration_s: None,
                concurrency: 4,
                deadline_ms: None,
                no_verify: false,
                retries: 1,
                mix: vec![],
                priority: Priority::Interactive,
                tenant: String::new(),
                fleet: false,
                stream: false,
                retry_after_cap_ms: None,
            }
        );
        let cmd = parse(&argv(
            "loadgen --addr 127.0.0.1:8700 --problem dtw --n 128 --requests 500 \
             --rps 50 --duration 10 --concurrency 8 --deadline-ms 2000 --no-verify \
             --retries 3 --mix 48,96,1100 --priority batch --tenant acme \
             --stream --retry-after-cap-ms 500",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Loadgen {
                addr: Some("127.0.0.1:8700".into()),
                problem: "dtw".into(),
                n: 128,
                platform: "high".into(),
                requests: 500,
                rps: Some(50.0),
                duration_s: Some(10.0),
                concurrency: 8,
                deadline_ms: Some(2000),
                no_verify: true,
                retries: 3,
                mix: vec![48, 96, 1100],
                priority: Priority::Batch,
                tenant: "acme".into(),
                fleet: false,
                stream: true,
                retry_after_cap_ms: Some(500),
            }
        );
        assert!(parse(&argv("loadgen --problem lcs --priority urgent")).is_err());
        assert!(parse(&argv("loadgen --problem lcs --retry-after-cap-ms soon")).is_err());
        match parse(&argv("loadgen --problem lcs --fleet")).unwrap() {
            Command::Loadgen { fleet, addr, .. } => {
                assert!(fleet);
                assert!(addr.is_none());
            }
            other => panic!("expected Loadgen, got {other:?}"),
        }
        assert!(
            parse(&argv("loadgen --addr 127.0.0.1:8700 --problem lcs --fleet")).is_err(),
            "--fleet is the in-process server's; a remote server chooses its own backend"
        );
        assert!(parse(&argv("loadgen --problem lcs --mix")).is_err());
        assert!(parse(&argv("loadgen --problem lcs --mix 48,banana")).is_err());
        assert!(parse(&argv("loadgen --problem lcs --mix 48,1")).is_err());
        assert!(parse(&argv("loadgen")).is_err(), "requires --problem");
        assert!(parse(&argv("loadgen --problem lcs --requests 0")).is_err());
        assert!(
            parse(&argv("loadgen --problem lcs --retries 0")).is_err(),
            "--retries counts attempts, so 0 is nonsense"
        );
        assert!(parse(&argv("loadgen --problem lcs --rps -3")).is_err());
        assert!(parse(&argv("loadgen --problem lcs --duration 0")).is_err());
        assert!(
            parse(&argv("loadgen --problem lcs --requests 0 --duration 2")).is_ok(),
            "duration-bounded unlimited runs are legal"
        );
    }

    #[test]
    fn parse_chaos_defaults_and_flags() {
        assert_eq!(
            parse(&argv("chaos")).unwrap(),
            Command::Chaos {
                seed: 42,
                campaign: "quick".into(),
                out: None,
            }
        );
        assert_eq!(
            parse(&argv("chaos --seed 7 --campaign heavy --out chaos.json")).unwrap(),
            Command::Chaos {
                seed: 7,
                campaign: "heavy".into(),
                out: Some("chaos.json".into()),
            }
        );
        assert!(parse(&argv("chaos --campaign catastrophic")).is_err());
        assert!(parse(&argv("chaos --seed many")).is_err());
    }

    #[test]
    fn parse_bench_requires_quick() {
        assert_eq!(
            parse(&argv("bench --quick")).unwrap(),
            Command::Bench {
                n: 512,
                rolling: false,
                out: None,
            }
        );
        assert_eq!(
            parse(&argv("bench --quick --n 128 --out BENCH_pr3.json")).unwrap(),
            Command::Bench {
                n: 128,
                rolling: false,
                out: Some("BENCH_pr3.json".into()),
            }
        );
        assert_eq!(
            parse(&argv("bench --rolling --n 8192 --out BENCH_pr8.json")).unwrap(),
            Command::Bench {
                n: 8192,
                rolling: true,
                out: Some("BENCH_pr8.json".into()),
            }
        );
        assert!(parse(&argv("bench")).is_err());
        assert!(parse(&argv("bench --quick --rolling")).is_err());
        assert!(parse(&argv("bench")).is_err(), "full suite is cargo bench");
    }

    #[test]
    fn quick_bench_emits_parseable_json_with_all_problems() {
        let text = run_bench_quick(24, None).unwrap();
        let parsed = lddp_trace::json::parse(&text).expect("bench JSON parses");
        let problems = match parsed.get("problems") {
            Some(lddp_trace::json::Json::Arr(items)) => items.clone(),
            other => panic!("problems array missing: {other:?}"),
        };
        assert_eq!(problems.len(), BENCH_PROBLEMS.len());
        for entry in &problems {
            for key in [
                "cells_per_s_scalar",
                "cells_per_s_bulk",
                "cells_per_s_simd",
                "bulk_speedup",
                "simd_speedup",
                "solve_ms_pool",
                "solve_ms_spawn",
                "pool_speedup",
            ] {
                match entry.get(key) {
                    Some(lddp_trace::json::Json::Num(v)) => {
                        assert!(*v > 0.0, "{key} must be positive, got {v}")
                    }
                    other => panic!("{key} missing or non-numeric: {other:?}"),
                }
            }
            let tier = entry.get("tier").and_then(|j| j.as_str()).expect("tier");
            assert!(ExecTier::parse(tier).is_some(), "unknown tier {tier:?}");
            let is_lcs = entry.get("problem").and_then(|j| j.as_str()) == Some("lcs");
            assert_eq!(
                entry.get("cells_per_s_bitparallel").is_some(),
                is_lcs,
                "bit-parallel throughput is reported exactly for lcs"
            );
        }
        assert!(parsed.get("simd").and_then(|j| j.as_str()).is_some());
        let sweep = parsed.get("worker_sweep").expect("worker_sweep present");
        assert!(matches!(
            sweep.get("best_workers"),
            Some(lddp_trace::json::Json::Num(_))
        ));
    }

    #[test]
    fn pooled_solve_honors_tier_pins_and_bitparallel_matches() {
        let engine = crate::parallel::ParallelEngine::new(2);
        let params = ScheduleParams::new(4, 16);
        let pooled = |problem: &str, tier: Option<ExecTier>| {
            let spec = ServedSpec {
                params,
                tier,
                ..ServedSpec::default()
            };
            run_solve_served(problem, 64, "high", &engine, &spec)
                .unwrap()
                .0
        };
        let auto = pooled("lcs", None);
        let scalar = pooled("lcs", Some(ExecTier::Scalar));
        assert_eq!(scalar.tier, ExecTier::Scalar);
        assert_eq!(scalar.answer, auto.answer);
        let bp = pooled("lcs", Some(ExecTier::BitParallel));
        assert_eq!(bp.tier, ExecTier::BitParallel);
        assert_eq!(bp.answer, auto.answer);
        // Only lcs has a bit-parallel kernel; everything else downgrades
        // the pin to the best available grid tier.
        let lev = pooled("levenshtein", Some(ExecTier::BitParallel));
        assert_ne!(lev.tier, ExecTier::BitParallel);
        assert!(lev.answer.contains("edit distance"));
    }

    #[test]
    fn tune_config_sweeps_tiers_and_returns_a_reachable_one() {
        let engine = crate::parallel::ParallelEngine::new(1);
        let config = tune_config("levenshtein", 48, "high", &engine).unwrap();
        // Levenshtein has no bit-parallel kernel, so the sweep can only
        // land on a grid tier the engine can actually execute.
        assert_ne!(config.tier, ExecTier::BitParallel);
        // The winner came from the sweep's candidates, which stop at the
        // best tier the engine can reach for this kernel.
        let reachable = select_tier("levenshtein", 48, &engine).unwrap();
        assert!(config.tier <= reachable);
    }

    #[test]
    fn loadgen_in_process_reports_clean_run() {
        let opts = LoadgenOpts {
            addr: None,
            problem: "lcs".into(),
            n: 48,
            platform: "high".into(),
            requests: 20,
            rps: None,
            duration_s: None,
            concurrency: 4,
            deadline_ms: None,
            no_verify: false,
            retries: 1,
            mix: vec![],
            priority: Priority::Interactive,
            tenant: String::new(),
            fleet: false,
            stream: false,
            retry_after_cap_ms: None,
        };
        let text = run_loadgen(&opts).unwrap();
        let v = lddp_trace::json::parse(&text).unwrap();
        assert_eq!(v.get("sent").and_then(|j| j.as_f64()), Some(20.0));
        assert_eq!(v.get("completed").and_then(|j| j.as_f64()), Some(20.0));
        assert_eq!(v.get("errors").and_then(|j| j.as_f64()), Some(0.0));
        assert_eq!(v.get("mismatches").and_then(|j| j.as_f64()), Some(0.0));
        let latency = v
            .get("latency_ms")
            .and_then(|l| l.get("total"))
            .expect("latency summary");
        assert!(latency.get("p50_ms").and_then(|j| j.as_f64()).is_some());
        assert!(latency.get("p99_ms").and_then(|j| j.as_f64()).is_some());
        assert!(v.get("rejection_rate").and_then(|j| j.as_f64()).is_some());
    }

    #[test]
    fn loadgen_in_process_stream_reports_bands_and_ttfb() {
        let opts = LoadgenOpts {
            addr: None,
            problem: "lcs".into(),
            n: 96,
            platform: "high".into(),
            requests: 6,
            rps: None,
            duration_s: None,
            concurrency: 2,
            deadline_ms: None,
            no_verify: false,
            retries: 1,
            mix: vec![],
            priority: Priority::Interactive,
            tenant: String::new(),
            fleet: false,
            stream: true,
            retry_after_cap_ms: Some(500),
        };
        let text = run_loadgen(&opts).unwrap();
        let v = lddp_trace::json::parse(&text).unwrap();
        assert_eq!(v.get("completed").and_then(|j| j.as_f64()), Some(6.0));
        assert_eq!(v.get("mismatches").and_then(|j| j.as_f64()), Some(0.0));
        assert_eq!(
            v.get("retry_after_cap_ms").and_then(|j| j.as_f64()),
            Some(500.0)
        );
        let bands = v
            .get("stream")
            .and_then(|s| s.get("bands"))
            .and_then(|j| j.as_f64())
            .expect("stream band count");
        assert!(bands >= 6.0, "every request delivers at least one band");
        let ttfb = v
            .get("latency_ms")
            .and_then(|l| l.get("ttfb"))
            .expect("ttfb summary");
        assert_eq!(ttfb.get("count").and_then(|j| j.as_f64()), Some(6.0));
    }
}
