//! The [`SolveBackend`] that wires `lddp-serve` to the [`Framework`](crate::Framework):
//! validation against the CLI problem registry, §V-A tuning amortized
//! through a [`TunerCache`], and traced heterogeneous solves.
//!
//! This is the dependency seam of the serving stack: `lddp-serve` only
//! knows `lddp-core` types, so the umbrella crate (which owns the
//! problem registry and the execution engines) supplies the backend.

use crate::cli;
use lddp_chaos::FaultInjector;
use lddp_core::kernel::MemoryMode;
use lddp_core::schedule::ScheduleParams;
use lddp_core::tuner_cache::{TuneKey, TunedConfig, TunerCache};
use lddp_core::wavefront::Dims;
use lddp_parallel::ParallelEngine;
use lddp_serve::{BackendSolve, BandFrame, BatchPlan, SolveBackend, SolveRequest};
use lddp_trace::live::LiveRegistry;
use lddp_trace::TraceSink;
use std::sync::Arc;

/// Largest instance side the server accepts. Solves are O(n²) cells on
/// a modelled platform; this cap keeps one request from monopolizing a
/// worker for minutes.
pub const MAX_SERVE_N: usize = 8192;

/// Bands a streamed solve (`POST /solve?stream=1`) is cut into: enough
/// granularity that the first frame lands a few percent into the
/// schedule (time-to-first-band ≪ total latency) without the per-band
/// barrier bookkeeping showing up in throughput.
pub const STREAM_BANDS: usize = 32;

/// Bridges an engine [`BandEvent`](lddp_core::rolling::BandEvent) to
/// the serve-layer wire frame. `elapsed_ms` is stamped by the server
/// at emission (it owns the request clock), so it is zero here.
pub(crate) fn band_frame_of(ev: lddp_core::rolling::BandEvent) -> BandFrame {
    BandFrame {
        band: ev.band,
        bands: ev.bands,
        wave_lo: ev.wave_lo,
        wave_hi: ev.wave_hi,
        rows_completed: ev.rows_completed,
        rows: ev.rows,
        cells_done: ev.cells_done,
        cells_total: ev.cells_total,
        score: ev.score,
        best: ev.best,
        elapsed_ms: 0.0,
    }
}

/// Checks `req` against the problem registry, the size bounds and the
/// admissible platform names — the validation every serving backend
/// shares.
pub(crate) fn validate_request(req: &SolveRequest, platforms: &[&str]) -> Result<(), String> {
    if !cli::PROBLEMS.contains(&req.problem.as_str()) {
        return Err(format!(
            "unknown problem \"{}\"; expected one of {}",
            req.problem,
            cli::PROBLEMS.join(", ")
        ));
    }
    if req.n < 2 {
        return Err("\"n\" must be at least 2".to_string());
    }
    if req.n > MAX_SERVE_N {
        return Err(format!("\"n\" exceeds the serving cap of {MAX_SERVE_N}"));
    }
    if !platforms.contains(&req.platform.as_str()) {
        let expected = match platforms {
            [a, b] => format!("{a} or {b}"),
            [rest @ .., last] => format!("{}, or {last}", rest.join(", ")),
            [] => String::new(),
        };
        return Err(format!(
            "unknown platform \"{}\"; expected {expected}",
            req.platform
        ));
    }
    if req.memory_mode == Some(MemoryMode::Rolling) && !cli::rolling_supported(&req.problem) {
        return Err(format!(
            "problem \"{}\" has no rolling-mode solve (its answer needs the full table)",
            req.problem
        ));
    }
    Ok(())
}

/// The wire result of a served solve: its summary, the degradation
/// rungs taken, and where it ran.
pub(crate) fn backend_solve(
    summary: cli::RunSummary,
    degraded: Vec<String>,
    placed_on: Option<String>,
    devices: usize,
) -> BackendSolve {
    BackendSolve {
        answer: summary.answer,
        virtual_ms: summary.hetero_ms,
        params: summary.params,
        tier: summary.tier,
        memory_mode: summary.memory_mode,
        table_bytes: summary.table_bytes,
        degraded,
        placed_on,
        devices,
        workers: summary.workers,
    }
}

/// [`SolveBackend`] over the real [`Framework`](crate::Framework)
/// solve path, with tuned parameters cached per
/// `(pattern, dims bucket, platform)` and tables computed on one
/// persistent [`ParallelEngine`]: its worker pool spins up on the first
/// request and is reused by every batch for the lifetime of the server,
/// so steady-state serving pays no thread spawns.
pub struct FrameworkBackend {
    cache: TunerCache,
    engine: ParallelEngine,
    injector: Option<Arc<dyn FaultInjector>>,
    live: Option<Arc<LiveRegistry>>,
}

impl std::fmt::Debug for FrameworkBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameworkBackend")
            .field("cache", &self.cache)
            .field("engine", &self.engine)
            .field("injected", &self.injector.is_some())
            .finish()
    }
}

impl Default for FrameworkBackend {
    fn default() -> FrameworkBackend {
        FrameworkBackend::new()
    }
}

impl FrameworkBackend {
    /// A backend with an empty tuner cache and a host-sized engine.
    pub fn new() -> FrameworkBackend {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        FrameworkBackend {
            cache: TunerCache::new(),
            engine: ParallelEngine::new(threads),
            injector: None,
            live: None,
        }
    }

    /// Attaches a [`LiveRegistry`]: the pooled engine records its
    /// `lddp_pool_*` utilization families into it on every solve, and
    /// tuning sweeps executed on a cache miss count under
    /// `lddp_tuner_sweeps_total`. Pass the server's own registry
    /// (`Server::live`) so backend and server series land in the same
    /// `/metrics` exposition.
    pub fn with_live(mut self, live: Arc<LiveRegistry>) -> FrameworkBackend {
        self.engine = self.engine.with_live(Arc::clone(&live));
        self.live = Some(live);
        self
    }

    /// A backend whose solves consult `injector` — chaos campaigns
    /// attach a seeded [`lddp_chaos::FaultPlan`] here. Injected solves
    /// run the engine's graceful-degradation ladder and report the
    /// rungs taken in [`BackendSolve::degraded`], so the server can
    /// count and surface them per response.
    pub fn with_injector(injector: Arc<dyn FaultInjector>) -> FrameworkBackend {
        let mut backend = FrameworkBackend::new();
        // The engine's single-threaded shortcut bypasses injection
        // entirely, so a one-core host would mute the campaign; give an
        // injected backend at least two workers.
        if backend.engine.threads() < 2 {
            backend.engine = ParallelEngine::new(2);
        }
        backend.injector = Some(injector);
        backend
    }

    /// The tuner cache (for stats and tests).
    pub fn cache(&self) -> &TunerCache {
        &self.cache
    }

    fn tune_key(&self, req: &SolveRequest) -> Result<TuneKey, String> {
        let pattern = cli::classify_problem(&req.problem, req.n)?;
        Ok(TuneKey::new(
            pattern,
            Dims::new(req.n, req.n),
            req.platform.clone(),
        ))
    }

    /// Runs one request on the shared pooled engine through the
    /// served-solve dispatcher. The serve spans (queue wait, batch,
    /// solve) come from the server; the per-wave framework trace is
    /// deliberately skipped here, as it would emit thousands of spans
    /// per request.
    fn serve(
        &self,
        req: &SolveRequest,
        config: TunedConfig,
        emit: Option<&(dyn Fn(lddp_core::rolling::BandEvent) -> bool + Sync)>,
    ) -> Result<BackendSolve, String> {
        let spec = cli::ServedSpec {
            params: config.params,
            tier: Some(config.tier),
            memory: config.memory_mode,
            injector: self.injector.as_deref(),
            emit,
            threads: config.workers,
        };
        let (summary, degraded) =
            cli::run_solve_served(&req.problem, req.n, &req.platform, &self.engine, &spec)?;
        Ok(backend_solve(summary, degraded, None, 1))
    }
}

impl SolveBackend for FrameworkBackend {
    fn validate(&self, req: &SolveRequest) -> Result<(), String> {
        validate_request(req, &["high", "low"])
    }

    fn tune(
        &self,
        probe: &SolveRequest,
        _sink: &dyn TraceSink,
    ) -> Result<(TunedConfig, bool), String> {
        if let Some(params) = probe.params {
            // Pinned parameters skip tuning; never a cache hit. The tier
            // is still the engine's own pick — requests pin schedule
            // parameters, not execution machinery. The memory mode is
            // the request's pin, or the tuner's budget model.
            let tier = cli::select_tier(&probe.problem, probe.n, &self.engine)?;
            let memory = probe.memory_mode.unwrap_or_else(|| {
                cli::choose_memory_mode(&probe.problem, probe.n, &probe.platform)
            });
            return Ok((
                TunedConfig::new(params, tier).with_memory_mode(memory),
                false,
            ));
        }
        let key = self.tune_key(probe)?;
        let (config, hit) = self.cache.get_or_tune(&key, || {
            if let Some(live) = &self.live {
                live.counter(
                    "lddp_tuner_sweeps_total",
                    &[],
                    "Full tuning sweeps executed on a tuner-cache miss.",
                )
                .inc();
            }
            cli::tune_config(&probe.problem, probe.n, &probe.platform, &self.engine)
        })?;
        // A per-request memory-mode pin overrides the tuner's choice for
        // this batch without touching the cached artifact (the batch key
        // keeps pinned and unpinned requests apart).
        let config = match probe.memory_mode {
            Some(memory) => config.with_memory_mode(memory),
            None => config,
        };
        Ok((config, hit))
    }

    fn estimate_ms(&self, req: &SolveRequest) -> Option<f64> {
        // Admission-time feasibility must stay cheap: pinned or cached
        // parameters when available, a nominal probe otherwise — never
        // a tuning sweep. The returned figure is the §IV cost model's
        // *virtual* (modelled-platform) milliseconds, the same clock
        // `SolveResponse::virtual_ms` reports.
        let params = req
            .params
            .or_else(|| {
                self.tune_key(req)
                    .ok()
                    .and_then(|key| self.cache.get(&key))
                    .map(|config| config.params)
            })
            .unwrap_or_else(|| ScheduleParams::new(2, 16));
        cli::estimate_virtual(&req.problem, req.n, &req.platform, params)
            .ok()
            .map(|s| s * 1e3)
    }

    fn supports_rolling(&self, req: &SolveRequest) -> bool {
        cli::rolling_supported(&req.problem)
    }

    fn solve(
        &self,
        req: &SolveRequest,
        config: TunedConfig,
        _sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String> {
        self.serve(req, config, None)
    }

    fn solve_streamed(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        _sink: &dyn TraceSink,
        emit: &(dyn Fn(BandFrame) -> bool + Sync),
    ) -> Result<BackendSolve, String> {
        self.serve(req, plan.config, Some(&|ev| emit(band_frame_of(ev))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lddp_chaos::{FaultPlan, FaultPlanConfig};
    use lddp_core::kernel::ExecTier;
    use lddp_core::schedule::ScheduleParams;
    use lddp_trace::NullSink;

    #[test]
    fn validate_enforces_registry_and_bounds() {
        let b = FrameworkBackend::new();
        assert!(b.validate(&SolveRequest::new("lcs", 64)).is_ok());
        assert!(b.validate(&SolveRequest::new("nonsense", 64)).is_err());
        assert!(b.validate(&SolveRequest::new("lcs", 1)).is_err());
        assert!(b
            .validate(&SolveRequest::new("lcs", MAX_SERVE_N + 1))
            .is_err());
        let mut bad_platform = SolveRequest::new("lcs", 64);
        bad_platform.platform = "mid".into();
        assert!(b.validate(&bad_platform).is_err());
    }

    #[test]
    fn tune_caches_within_bucket_and_skips_pinned() {
        let b = FrameworkBackend::new();
        let (c1, hit1) = b.tune(&SolveRequest::new("lcs", 100), &NullSink).unwrap();
        assert!(!hit1);
        // 100 and 128 share the 128 bucket.
        let (c2, hit2) = b.tune(&SolveRequest::new("lcs", 128), &NullSink).unwrap();
        assert!(hit2);
        assert_eq!(c1, c2);
        assert_eq!(b.cache().len(), 1);

        let mut pinned = SolveRequest::new("lcs", 100);
        pinned.params = Some(ScheduleParams::new(3, 7));
        let (c3, hit3) = b.tune(&pinned, &NullSink).unwrap();
        assert!(!hit3);
        assert_eq!(c3.params, ScheduleParams::new(3, 7));
        assert_eq!(b.cache().len(), 1, "pinned params never enter the cache");
    }

    #[test]
    fn solve_clamps_cached_params_for_smaller_instances() {
        let b = FrameworkBackend::new();
        // Deliberately illegal for n=32: t_switch far beyond the wave
        // count. The backend must clamp instead of erroring.
        let solved = b
            .solve(
                &SolveRequest::new("lcs", 32),
                TunedConfig::new(ScheduleParams::new(10_000, 10_000), ExecTier::Bulk),
                &NullSink,
            )
            .unwrap();
        assert!(solved.params.t_switch <= 63);
        assert!(solved.params.t_share <= 32);
        assert!(!solved.answer.is_empty());
    }

    #[test]
    fn solve_answer_matches_sequential_oracle() {
        // Every registry problem, plain and with an inactive fault plan
        // (which still routes the engine through its ladder); rolling
        // memory and the streamed path too where the problem has a
        // rolling answer.
        let inactive = Arc::new(FaultPlan::new(7, FaultPlanConfig::none()));
        for b in [
            FrameworkBackend::new(),
            FrameworkBackend::with_injector(inactive),
        ] {
            let injected = b.injector.is_some();
            for &problem in cli::PROBLEMS {
                let label = format!("{problem} injected={injected}");
                let req = SolveRequest::new(problem, 48);
                let oracle = cli::run_solve_seq(problem, 48).unwrap();
                let (config, _) = b.tune(&req, &NullSink).unwrap();
                let served = b.solve(&req, config, &NullSink).unwrap();
                assert_eq!(served.answer, oracle, "{label}");
                if !cli::rolling_supported(problem) {
                    continue;
                }
                let rolling = config.with_memory_mode(MemoryMode::Rolling);
                let served = b.solve(&req, rolling, &NullSink).unwrap();
                assert_eq!(served.answer, oracle, "{label} rolling");
                let plan = BatchPlan {
                    config,
                    cache_hit: false,
                    placement: None,
                    predicted_s: None,
                };
                let streamed = b.solve_streamed(&req, &plan, &NullSink, &|_| true).unwrap();
                assert_eq!(streamed.answer, oracle, "{label} streamed");
            }
        }
    }

    /// A config that asks for one worker, on the engine's own tier.
    fn one_worker(problem: &str, n: usize, engine: &ParallelEngine) -> TunedConfig {
        let tier = cli::select_tier(problem, n, engine).unwrap();
        TunedConfig {
            workers: Some(1),
            ..TunedConfig::new(ScheduleParams::new(4, 16), tier)
        }
    }

    #[test]
    fn one_worker_configs_solve_inline_with_oracle_answers() {
        // Plain and with a live registry (the served configuration,
        // which routes the engine through its instrumented path).
        let live = Arc::new(LiveRegistry::new());
        for b in [
            FrameworkBackend::new(),
            FrameworkBackend::new().with_live(live),
        ] {
            for &problem in cli::PROBLEMS {
                let req = SolveRequest::new(problem, 48);
                let oracle = cli::run_solve_seq(problem, 48).unwrap();
                let config = one_worker(problem, 48, &b.engine);
                let mut served = vec![b.solve(&req, config, &NullSink).unwrap()];
                if cli::rolling_supported(problem) {
                    let rolling = config.with_memory_mode(MemoryMode::Rolling);
                    served.push(b.solve(&req, rolling, &NullSink).unwrap());
                    let plan = BatchPlan {
                        config,
                        cache_hit: false,
                        placement: None,
                        predicted_s: None,
                    };
                    let frames = std::sync::atomic::AtomicUsize::new(0);
                    let emit = |_: BandFrame| {
                        frames.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        true
                    };
                    served.push(b.solve_streamed(&req, &plan, &NullSink, &emit).unwrap());
                    assert!(frames.into_inner() > 0, "{problem} streamed no bands");
                }
                for s in served {
                    assert_eq!(s.answer, oracle, "{problem}");
                    assert_eq!(s.workers, 1, "{problem}");
                }
            }
            assert!(
                !b.engine.pool_started(),
                "a one-worker solve touched the pool"
            );
        }
    }

    #[test]
    fn concurrent_one_worker_solves_run_side_by_side() {
        let b = FrameworkBackend::new();
        let req = SolveRequest::new("levenshtein", 256);
        let oracle = cli::run_solve_seq("levenshtein", 256).unwrap();
        let config = one_worker("levenshtein", 256, &b.engine);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let solvers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        b.solve(&req, config, &NullSink).unwrap()
                    })
                })
                .collect();
            for solver in solvers {
                assert_eq!(solver.join().unwrap().answer, oracle);
            }
        });
        assert!(!b.engine.pool_started());
    }

    #[test]
    fn injected_solves_ignore_the_tuned_worker_count() {
        // An inline solve draws no faults, so a chaos backend keeps its
        // pool whatever the tuner measured.
        let always = FaultPlanConfig {
            worker_panic_prob: 1.0,
            ..FaultPlanConfig::none()
        };
        let reg = Arc::new(LiveRegistry::new());
        let plain = FrameworkBackend::with_injector(Arc::new(FaultPlan::new(3, always)));
        let live = FrameworkBackend::with_injector(Arc::new(FaultPlan::new(3, always)))
            .with_live(Arc::clone(&reg));
        let req = SolveRequest::new("levenshtein", 64);
        let oracle = cli::run_solve_seq("levenshtein", 64).unwrap();
        for b in [plain, live] {
            let config = one_worker("levenshtein", 64, &b.engine);
            let served = b.solve(&req, config, &NullSink).unwrap();
            assert_eq!(served.answer, oracle);
            assert!(!served.degraded.is_empty(), "an always-fire plan degrades");
            assert_eq!(served.workers, b.engine.threads());
        }
        let text = reg.to_prometheus();
        let injected: f64 = text
            .lines()
            .filter(|l| l.starts_with("lddp_chaos_injected_total{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum();
        assert!(injected > 0.0, "{text}");
    }

    #[test]
    fn live_registry_counts_tuner_sweeps_and_pool_solves() {
        let reg = Arc::new(LiveRegistry::new());
        let b = FrameworkBackend::new().with_live(Arc::clone(&reg));
        let req = SolveRequest::new("lcs", 100);
        let (config, hit) = b.tune(&req, &NullSink).unwrap();
        assert!(!hit);
        // Same bucket: served from the cache, no second sweep.
        let (_, hit2) = b.tune(&SolveRequest::new("lcs", 128), &NullSink).unwrap();
        assert!(hit2);
        b.solve(&req, config, &NullSink).unwrap();
        let text = reg.to_prometheus();
        assert!(text.contains("lddp_tuner_sweeps_total 1"), "{text}");
        assert!(text.contains("lddp_pool_solves_total"), "{text}");
    }

    #[test]
    fn validate_rejects_rolling_pin_on_full_table_problems() {
        let b = FrameworkBackend::new();
        let mut req = SolveRequest::new("dithering", 64);
        req.memory_mode = Some(MemoryMode::Rolling);
        assert!(b.validate(&req).is_err());
        req.memory_mode = Some(MemoryMode::Full);
        assert!(b.validate(&req).is_ok());
        let mut wave = SolveRequest::new("lcs", 64);
        wave.memory_mode = Some(MemoryMode::Rolling);
        assert!(b.validate(&wave).is_ok());
    }

    #[test]
    fn rolling_mode_serves_the_oracle_answer_with_band_sized_tables() {
        let b = FrameworkBackend::new();
        for problem in [
            "lcs",
            "levenshtein",
            "dtw",
            "needleman-wunsch",
            "smith-waterman",
        ] {
            let req = SolveRequest::new(problem, 48);
            let config = TunedConfig::new(ScheduleParams::new(4, 16), ExecTier::Bulk)
                .with_memory_mode(MemoryMode::Rolling);
            let served = b.solve(&req, config, &NullSink).unwrap();
            assert_eq!(served.memory_mode, MemoryMode::Rolling, "{problem}");
            // Three band buffers of ≤ 49 cells each, not a 49×49 grid.
            assert!(
                served.table_bytes <= 3 * 49 * 12,
                "{problem}: {} bytes",
                served.table_bytes
            );
            let oracle = crate::cli::run_solve_seq(problem, 48).unwrap();
            assert_eq!(served.answer, oracle, "{problem}");
        }
    }

    #[test]
    fn estimate_is_finite_and_grows_with_instance_size() {
        let b = FrameworkBackend::new();
        let small = b.estimate_ms(&SolveRequest::new("lcs", 64)).unwrap();
        let large = b.estimate_ms(&SolveRequest::new("lcs", 2048)).unwrap();
        assert!(small.is_finite() && small > 0.0);
        assert!(
            large > small * 10.0,
            "O(n²) model: {large} ms for 2048 vs {small} ms for 64"
        );
        // Unknown problems yield no estimate (validation rejects them
        // earlier anyway).
        assert!(b.estimate_ms(&SolveRequest::new("nonsense", 64)).is_none());
    }

    #[test]
    fn rolling_support_tracks_the_problem_registry() {
        let b = FrameworkBackend::new();
        assert!(b.supports_rolling(&SolveRequest::new("lcs", 64)));
        assert!(!b.supports_rolling(&SolveRequest::new("dithering", 64)));
    }

    #[test]
    fn bitparallel_config_serves_the_oracle_answer_for_lcs() {
        let b = FrameworkBackend::new();
        let served = b
            .solve(
                &SolveRequest::new("lcs", 80),
                TunedConfig::new(ScheduleParams::new(4, 16), ExecTier::BitParallel),
                &NullSink,
            )
            .unwrap();
        assert_eq!(served.tier, ExecTier::BitParallel);
        let oracle = crate::cli::run_solve_seq("lcs", 80).unwrap();
        assert_eq!(served.answer, oracle);
    }
}
