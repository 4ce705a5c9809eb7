//! Real wavefront execution on host threads.
//!
//! This is the substitute for the paper's OpenMP 3.0 CPU path (§II-A,
//! §IV-A): a few heavy-weight worker threads, each responsible for a
//! contiguous chunk of every wave, synchronized by a barrier between
//! waves. Unlike `hetero-sim` this engine runs on the wall clock — it is
//! what the Criterion benchmarks measure.
//!
//! Two perf-critical design points live here:
//!
//! * **Persistent workers.** The engine owns a lazily created
//!   [`WorkerPool`] (long-lived threads plus a reusable sense-reversing
//!   barrier) instead of re-spawning a `thread::scope` per solve. The
//!   pool is created on first use and shared by every subsequent solve,
//!   every [`tune_worker_count`](ParallelEngine::tune_worker_count)
//!   candidate, and — through `Clone`, which shares the pool — every
//!   batch the serving path executes.
//! * **Bulk interior runs.** When the kernel exposes a
//!   [`WaveKernel`] and the executed pattern equals the set's raw
//!   classification, each worker splits its chunk of a wave into the
//!   *interior* runs precomputed by [`Layout::interior_runs`] and the
//!   border remainder. Interior cells have every dependency in bounds,
//!   so whole runs are handed to [`WaveKernel::compute_run`] as plain
//!   slices — no per-cell `Option` checks, no bounds branches, and a
//!   shape LLVM can autovectorize. Border cells still go through the
//!   scalar [`Kernel::compute`] path, and kernels without a `WaveKernel`
//!   are entirely unaffected.
//! * **SIMD interior runs.** Kernels that additionally expose a
//!   [`SimdWaveKernel`] get their interior runs routed through
//!   [`SimdWaveKernel::compute_run_simd`] whenever the host has a
//!   vector backend ([`simd_available`]), with worker chunk boundaries
//!   rounded down to lane multiples so at most one partial vector per
//!   (worker, wave) is peeled. The resolved [`ExecTier`] is recorded on
//!   every traced wave span. `LDDP_FORCE_TIER=scalar|bulk|simd` (read
//!   once per process) and [`ParallelEngine::with_tier`] both *cap* the
//!   tier for debugging and ablations — the lower cap wins — and a
//!   capped tier a kernel cannot support downgrades gracefully.
//!
//! Every solve goes through one entry, [`ParallelEngine::solve_with`],
//! driven by a [`SolveSpec`]: memory mode (full grid or rolling band
//! ring), execution pattern, arg-best capture, band streaming, fault
//! injection (which runs the degradation ladder), trace sink and worker
//! count. [`solve`](ParallelEngine::solve) and
//! [`solve_rolling`](ParallelEngine::solve_rolling) are its shorthands.
//! An enabled [`SolveSpec::sink`] adds wall-clock instrumentation: one
//! span per non-empty (worker, wave) chunk, per-worker busy time, and a
//! histogram of time spent waiting at the inter-wave barrier — the
//! otherwise invisible synchronization cost of the heavy-thread design.
//! With a disabled sink the solve takes the untraced path, so `NullSink`
//! costs nothing.
//!
//! # Safety architecture
//!
//! Workers share one backing array. Within a wave each worker writes a
//! *disjoint* chunk of that wave's contiguous range (wave-major layout),
//! and reads only cells from strictly earlier waves — guaranteed by the
//! pattern-compatibility check (`schedule::compatible`) and re-asserted
//! in debug builds. The pool's [`SenseBarrier`](crate::SenseBarrier)
//! separates waves, carrying the release/acquire edges that make
//! earlier-wave writes visible. Bulk runs obey the same discipline in
//! slice form: the output slice lies in the current wave's
//! worker-exclusive range, and every dependency slice lies in a sealed
//! earlier wave (asserted in debug builds via the layout's contiguity
//! property). The few `unsafe` blocks below encapsulate exactly this
//! discipline.

use crate::pool::{chunk_aligned, PoolError, WorkerPool};
use lddp_chaos::FaultInjector;
use lddp_core::cell::{ContributingSet, RepCell};
use lddp_core::grid::{Grid, Layout, LayoutKind};
use lddp_core::kernel::{
    simd_available, ExecTier, Kernel, MemoryMode, Neighbors, SimdWaveKernel, WaveKernel,
};
use lddp_core::pattern::{classify, Pattern};
use lddp_core::rolling;
use lddp_core::schedule::compatible;
use lddp_core::tuner::{pick_tier, SweepPoint, TierPoint};
use lddp_core::wavefront::{self, Dims};
use lddp_core::{DegradeStep, Error, Result};
use lddp_trace::live::LiveRegistry;
use lddp_trace::{tracks, NullSink, Span, TraceSink};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Shared mutable cell store with externally enforced aliasing
/// discipline (see module docs).
struct SharedCells<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: all concurrent access goes through `read`/`write`/`slice`/
// `slice_mut` under the wave/barrier discipline documented on the
// module: writes within a wave target pairwise-disjoint indices, reads
// target indices finalized before the last barrier.
unsafe impl<T: Send> Sync for SharedCells<T> {}

impl<T: Copy> SharedCells<T> {
    fn new(slice: &mut [T]) -> Self {
        SharedCells {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Reads a cell finalized in an earlier wave.
    ///
    /// # Safety
    /// `idx < len` and no thread may be writing `idx` concurrently (it
    /// belongs to a wave sealed by a barrier).
    #[inline]
    unsafe fn read(&self, idx: usize) -> T {
        debug_assert!(idx < self.len);
        unsafe { *self.ptr.add(idx) }
    }

    /// Writes a cell of the current wave.
    ///
    /// # Safety
    /// `idx < len` and `idx` is inside the calling worker's exclusive
    /// chunk of the current wave.
    #[inline]
    unsafe fn write(&self, idx: usize, v: T) {
        debug_assert!(idx < self.len);
        unsafe { *self.ptr.add(idx) = v };
    }

    /// Borrows `base..base + len` as a slice of sealed cells.
    ///
    /// # Safety
    /// The range is in bounds and every cell in it belongs to a wave
    /// sealed by an earlier barrier (no concurrent writer).
    #[inline]
    unsafe fn slice(&self, base: usize, len: usize) -> &[T] {
        debug_assert!(base + len <= self.len);
        unsafe { std::slice::from_raw_parts(self.ptr.add(base), len) }
    }

    /// Borrows `base..base + len` mutably as the calling worker's
    /// exclusive output run of the current wave.
    ///
    /// # Safety
    /// The range is in bounds, lies entirely inside this worker's chunk
    /// of the current wave, and does not overlap any slice handed out
    /// for sealed waves (current-wave and earlier-wave ranges are
    /// disjoint in a coalesced layout).
    #[inline]
    #[allow(clippy::mut_from_ref)] // the aliasing discipline is the caller contract
    unsafe fn slice_mut(&self, base: usize, len: usize) -> &mut [T] {
        debug_assert!(base + len <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(base), len) }
    }
}

/// Computes one worker's chunk of wave `w` cell by cell.
///
/// # Safety
/// Caller upholds the wave/barrier discipline: `range` is this worker's
/// exclusive slice of wave `w`, and all of wave `w`'s dependencies are
/// sealed by an earlier barrier.
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn compute_chunk<K: Kernel + ?Sized>(
    kernel: &K,
    set: ContributingSet,
    pattern: Pattern,
    dims: Dims,
    layout: &Layout,
    cells: &SharedCells<K::Cell>,
    w: usize,
    range: Range<usize>,
) {
    for pos in range {
        let (i, j) = wavefront::cell_at(pattern, dims, w, pos);
        let mut nbrs = Neighbors::empty();
        for dep in set.iter() {
            if let Some((si, sj)) = dep.source(i, j, dims.rows, dims.cols) {
                debug_assert!(
                    wavefront::wave_of(pattern, dims, si, sj) < w,
                    "dependency must be sealed"
                );
                // SAFETY: (si, sj) lies in a wave sealed by a previous
                // barrier (caller contract).
                let v = unsafe { cells.read(layout.index(si, sj)) };
                nbrs.set(dep, v);
            }
        }
        let v = kernel.compute(i, j, &nbrs);
        // SAFETY: `pos` is in this worker's exclusive chunk of wave `w`
        // (caller contract); wave ranges are disjoint.
        unsafe { cells.write(layout.index(i, j), v) };
    }
}

/// The bulk executor a solve resolved to: the scalar-bulk
/// [`WaveKernel`] path or the vectorized [`SimdWaveKernel`] path. Both
/// consume the same interior-run slices; keeping the choice in one
/// value lets the hot loops dispatch with a single match instead of
/// re-deriving tier logic per run.
enum BulkExec<'a, T> {
    Wave(&'a dyn WaveKernel<Cell = T>),
    Simd(&'a dyn SimdWaveKernel<Cell = T>),
}

impl<T> Clone for BulkExec<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for BulkExec<'_, T> {}

impl<T: Copy + Send + Sync + PartialEq + std::fmt::Debug + Default> BulkExec<'_, T> {
    /// The lane width worker chunks should align to (1 for the scalar
    /// bulk path).
    fn lanes(&self) -> usize {
        match self {
            BulkExec::Wave(_) => 1,
            BulkExec::Simd(k) => k.lanes().max(1),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn compute_run(
        &self,
        i: usize,
        j0: usize,
        out: &mut [T],
        w: &[T],
        nw: &[T],
        n: &[T],
        ne: &[T],
    ) {
        match self {
            BulkExec::Wave(k) => k.compute_run(i, j0, out, w, nw, n, ne),
            BulkExec::Simd(k) => k.compute_run_simd(i, j0, out, w, nw, n, ne),
        }
    }
}

/// The process-wide `LDDP_FORCE_TIER` debugging cap, read once.
/// Unparseable values are treated as unset.
fn env_forced_tier() -> Option<ExecTier> {
    static FORCED: OnceLock<Option<ExecTier>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("LDDP_FORCE_TIER")
            .ok()
            .and_then(|s| ExecTier::parse(&s))
    })
}

/// The tier a solve requests before kernel support is checked: the
/// fastest `available` tier, capped by the `LDDP_FORCE_TIER` value and
/// by the engine's pin — the lower cap wins, so neither can raise a
/// tier the other lowered. A [`ExecTier::BitParallel`] cap is no cap:
/// bit-parallel execution is answer-level, above every grid tier.
fn requested_tier(available: ExecTier, env: Option<ExecTier>, pin: Option<ExecTier>) -> ExecTier {
    [env, pin]
        .into_iter()
        .flatten()
        .fold(available, ExecTier::min)
}

/// Computes one contiguous interior run of wave `w` through the kernel's
/// bulk path, materializing the dependency and output slices.
///
/// # Safety
/// As [`compute_chunk`], plus: `run` must be (a sub-range of) an
/// interior run reported by [`Layout::interior_runs`] for this
/// `(pattern, set, w)`, so that every dependency of every cell in it is
/// in bounds and each dependency direction occupies contiguous backing
/// slots (the property tested in `lddp-core::grid`).
#[allow(clippy::too_many_arguments)]
unsafe fn compute_run_bulk<T: Copy + Send + Sync + PartialEq + std::fmt::Debug + Default>(
    wk: BulkExec<'_, T>,
    set: ContributingSet,
    pattern: Pattern,
    dims: Dims,
    layout: &Layout,
    cells: &SharedCells<T>,
    w: usize,
    run: Range<usize>,
) {
    let len = run.len();
    if len == 0 {
        return;
    }
    let (i0, j0) = wavefront::cell_at(pattern, dims, w, run.start);
    let out_base = layout.index(i0, j0);
    if len > 1 {
        let (il, jl) = wavefront::cell_at(pattern, dims, w, run.end - 1);
        debug_assert_eq!(
            layout.index(il, jl),
            out_base + len - 1,
            "wave run must be contiguous in a coalesced layout"
        );
    }
    let mut dep_slices: [&[T]; 4] = [&[]; 4];
    for dep in set.iter() {
        let (si, sj) = dep
            .source(i0, j0, dims.rows, dims.cols)
            .expect("interior cells have every dependency in bounds");
        let base = layout.index(si, sj);
        debug_assert!(wavefront::wave_of(pattern, dims, si, sj) < w);
        if len > 1 {
            let (il, jl) = wavefront::cell_at(pattern, dims, w, run.end - 1);
            let (sl_i, sl_j) = dep.source(il, jl, dims.rows, dims.cols).unwrap();
            debug_assert_eq!(
                layout.index(sl_i, sl_j),
                base + len - 1,
                "dependency run must be contiguous (layout contiguity property)"
            );
        }
        // SAFETY: the whole dependency run lies in sealed earlier waves
        // (asserted above); contiguity is the layout property the
        // interior-run decomposition guarantees.
        let sl = unsafe { cells.slice(base, len) };
        dep_slices[dep as usize] = sl;
    }
    // SAFETY: the output run is inside this worker's exclusive chunk of
    // wave `w`; it cannot overlap the dependency slices, which live in
    // strictly earlier waves.
    let out = unsafe { cells.slice_mut(out_base, len) };
    wk.compute_run(
        i0,
        j0,
        out,
        dep_slices[RepCell::W as usize],
        dep_slices[RepCell::Nw as usize],
        dep_slices[RepCell::N as usize],
        dep_slices[RepCell::Ne as usize],
    );
}

/// Computes one worker's chunk of wave `w`, routing interior runs
/// through the bulk path when one is available and falling back to the
/// scalar path for border cells (and entirely, when `wk` is `None`).
///
/// # Safety
/// As [`compute_chunk`]; `runs` must be the interior runs of wave `w`
/// for this `(pattern, set)` whenever `wk` is `Some`.
#[allow(clippy::too_many_arguments)]
unsafe fn compute_chunk_auto<K: Kernel + ?Sized>(
    kernel: &K,
    wk: Option<BulkExec<'_, K::Cell>>,
    set: ContributingSet,
    pattern: Pattern,
    dims: Dims,
    layout: &Layout,
    runs: &[Range<usize>],
    cells: &SharedCells<K::Cell>,
    w: usize,
    range: Range<usize>,
) {
    let Some(wk) = wk else {
        // SAFETY: forwarded caller contract.
        unsafe { compute_chunk(kernel, set, pattern, dims, layout, cells, w, range) };
        return;
    };
    let mut pos = range.start;
    for run in runs {
        if run.end <= pos {
            continue;
        }
        if run.start >= range.end {
            break;
        }
        let lo = run.start.max(pos);
        let hi = run.end.min(range.end);
        if lo > pos {
            // Border cells before this interior run.
            // SAFETY: forwarded caller contract.
            unsafe { compute_chunk(kernel, set, pattern, dims, layout, cells, w, pos..lo) };
        }
        // SAFETY: `lo..hi` is a sub-range of an interior run.
        unsafe { compute_run_bulk(wk, set, pattern, dims, layout, cells, w, lo..hi) };
        pos = hi;
    }
    if pos < range.end {
        // SAFETY: forwarded caller contract.
        unsafe { compute_chunk(kernel, set, pattern, dims, layout, cells, w, pos..range.end) };
    }
}

/// What one worker measured about itself during a traced run.
#[derive(Debug, Default)]
struct WorkerTrace {
    /// Non-empty chunks: (wave, start_s, dur_s, cells).
    spans: Vec<(usize, f64, f64, usize)>,
    /// Total compute time across all waves.
    busy_s: f64,
    /// Time spent blocked at the inter-wave barrier, one entry per wave.
    barrier_wait_s: Vec<f64>,
}

/// A chunk-per-thread wavefront solver backed by a persistent
/// [`WorkerPool`].
///
/// Cloning the engine shares the pool: a clone solves on the same
/// long-lived worker threads rather than spawning its own.
#[derive(Debug, Clone)]
pub struct ParallelEngine {
    threads: usize,
    tier: Option<ExecTier>,
    live: Option<Arc<LiveRegistry>>,
    /// Shared by every clone, including clones taken before the first
    /// pooled solve creates the pool.
    pool: Arc<OnceLock<WorkerPool>>,
}

impl ParallelEngine {
    /// Creates an engine with the given worker count (min 1). Workers
    /// are not spawned until the first solve that needs them.
    pub fn new(threads: usize) -> Self {
        ParallelEngine {
            threads: threads.max(1),
            tier: None,
            live: None,
            pool: Arc::new(OnceLock::new()),
        }
    }

    /// Engine sized to the host's available parallelism.
    pub fn host() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParallelEngine::new(threads)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pins (caps) the execution tier instead of auto-selecting the
    /// fastest available one (`None`, the default, restores
    /// auto-selection). A pinned tier a kernel cannot support downgrades
    /// gracefully (`Simd → Bulk → Scalar`); pinning
    /// [`ExecTier::BitParallel`] is equivalent to auto, because the
    /// engine solves full tables and bit-parallel execution is an
    /// answer-only specialization the caller must route itself. A
    /// [`ExecTier::Scalar`] pin sends every cell through the scalar
    /// [`Kernel::compute`] path — what differential tests and the
    /// degradation ladder's `bulk_to_scalar` rung use. The
    /// `LDDP_FORCE_TIER` environment variable caps the tier too; the
    /// lower of the two caps wins.
    pub fn with_tier(mut self, tier: Option<ExecTier>) -> Self {
        self.tier = tier;
        self
    }

    /// The pinned tier, if any (`LDDP_FORCE_TIER` not considered).
    pub fn tier_override(&self) -> Option<ExecTier> {
        self.tier
    }

    /// Attaches a [`LiveRegistry`]: every pooled solve records pool
    /// utilization into it (`lddp_pool_*` families — per-worker busy
    /// seconds, barrier-wait histogram, solves by tier, waves, cells)
    /// regardless of whether a [`TraceSink`] is attached. Injected
    /// faults additionally count under
    /// `lddp_chaos_injected_total{site=worker_panic|bulk_panic}`.
    ///
    /// Attaching a registry routes solves through the instrumented
    /// path (per-wave wall-clock timestamps), so it is not free —
    /// though the cost is per *wave*, not per cell, and disappears
    /// into the noise for all but trivially small grids.
    pub fn with_live(mut self, live: Arc<LiveRegistry>) -> Self {
        self.live = Some(live);
        self
    }

    /// The attached live registry, if any.
    pub fn live_registry(&self) -> Option<&Arc<LiveRegistry>> {
        self.live.as_ref()
    }

    /// Workers of the engine's shared pool that have died (panicked or
    /// otherwise terminated) and not yet been healed. Zero when the
    /// pool is healthy — including before the pool's lazy creation,
    /// since a pool that doesn't exist yet has nothing wrong with it.
    /// This is the readiness signal fleet `/healthz` reports per
    /// platform pool.
    pub fn pool_dead_workers(&self) -> usize {
        self.pool.get().map_or(0, |p| p.dead_workers())
    }

    /// True once a solve has spun up the worker pool. Single-worker
    /// plans compute inline and must leave this false — the regression
    /// guard for the "pool handoff at one thread" overhead class.
    pub fn pool_started(&self) -> bool {
        self.pool.get().is_some()
    }

    /// Respawns any dead workers in the shared pool (no-op while the
    /// pool is healthy or not yet created). Returns how many workers
    /// were respawned.
    pub fn heal_pool(&self) -> usize {
        self.pool.get().map_or(0, |p| p.heal())
    }

    /// The tier a [`solve`](ParallelEngine::solve) of `kernel` will
    /// execute on, honoring `LDDP_FORCE_TIER`, the pinned tier and the
    /// host's vector backend. Kernels whose contributing set does not
    /// classify run scalar.
    pub fn select_tier<K: Kernel>(&self, kernel: &K) -> ExecTier {
        match classify(kernel.contributing_set()).map(Pattern::canonical) {
            Some(pattern) => self.resolve_exec(kernel, pattern).0,
            None => ExecTier::Scalar,
        }
    }

    /// Resolves the tier and bulk executor for solving `kernel` under
    /// `pattern`: the fastest-available tier capped by `LDDP_FORCE_TIER`
    /// and the pinned tier, downgraded to what the kernel and host
    /// actually support under this execution pattern.
    fn resolve_exec<'k, K: Kernel + ?Sized>(
        &self,
        kernel: &'k K,
        pattern: Pattern,
    ) -> (ExecTier, Option<BulkExec<'k, K::Cell>>) {
        let bulk_ok = classify(kernel.contributing_set()) == Some(pattern);
        let wave = if bulk_ok { kernel.wave_kernel() } else { None };
        let simd = if bulk_ok && simd_available() {
            kernel.simd_kernel()
        } else {
            None
        };
        let auto = if simd.is_some() {
            ExecTier::Simd
        } else if wave.is_some() {
            ExecTier::Bulk
        } else {
            ExecTier::Scalar
        };
        let requested = requested_tier(auto, env_forced_tier(), self.tier);
        // A kernel may expose a SIMD hook without a scalar-bulk one;
        // downgrade past any missing rung rather than mis-reporting.
        let (tier, exec) = match requested {
            ExecTier::Simd if simd.is_some() => (ExecTier::Simd, simd.map(BulkExec::Simd)),
            ExecTier::Simd | ExecTier::Bulk if wave.is_some() => {
                (ExecTier::Bulk, wave.map(BulkExec::Wave))
            }
            _ => (ExecTier::Scalar, None),
        };
        (tier, exec)
    }

    /// Measures one solve per *available* tier of `kernel` (scalar,
    /// bulk, SIMD — whichever the kernel and host support) on this
    /// engine's pool and returns the fastest together with the sweep.
    /// Ties prefer the simpler tier. Under `LDDP_FORCE_TIER` the sweep
    /// stops at the forced cap: candidates above it resolve to a lower
    /// tier and are skipped.
    pub fn tune_tier<K: Kernel>(&self, kernel: &K) -> Result<(ExecTier, Vec<TierPoint>)> {
        let mut points = Vec::new();
        for tier in [ExecTier::Scalar, ExecTier::Bulk, ExecTier::Simd] {
            let candidate = self.clone().with_tier(Some(tier));
            if candidate.select_tier(kernel) != tier {
                continue; // unavailable: would re-measure a lower tier
            }
            let t0 = Instant::now();
            candidate.solve(kernel)?;
            points.push(TierPoint {
                tier,
                secs: t0.elapsed().as_secs_f64(),
            });
        }
        Ok((pick_tier(&points).unwrap_or(ExecTier::Scalar), points))
    }

    /// The engine's worker pool, created on first use.
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.threads))
    }

    /// Solves the kernel under its classified canonical pattern.
    ///
    /// ```
    /// use lddp_parallel::ParallelEngine;
    /// use lddp_core::kernel::{ClosureKernel, Neighbors};
    /// use lddp_core::cell::{ContributingSet, RepCell};
    /// use lddp_core::wavefront::Dims;
    ///
    /// // Pascal's triangle as an LDDP kernel: C(i,j) = NW + N.
    /// let k = ClosureKernel::new(
    ///     Dims::new(8, 8),
    ///     ContributingSet::new(&[RepCell::Nw, RepCell::N]),
    ///     |_i, j, n: &Neighbors<u64>| match (n.nw, n.n) {
    ///         (Some(a), Some(b)) => a + b,
    ///         _ => u64::from(j == 0), // first row/column
    ///     },
    /// );
    /// let grid = ParallelEngine::new(4).solve(&k).unwrap();
    /// // Row i holds the binomial coefficients C(i, j).
    /// assert_eq!(grid.get(4, 2), 6);
    /// assert_eq!(grid.get(7, 3), 35);
    /// ```
    pub fn solve<K: Kernel>(&self, kernel: &K) -> Result<Grid<K::Cell>> {
        let (solved, _) = self.solve_with(kernel, &SolveSpec::default())?;
        Ok(solved.grid().expect("a full-memory spec yields a grid"))
    }

    /// Solves in rolling (wave-band) memory mode: no grid is
    /// materialized, only a ring of three band buffers
    /// (`O(rows + cols)` bytes) plus the captured answers — the
    /// bottom-right corner and, when `best_of` is given, the arg-best
    /// cell under that score (the Smith–Waterman endpoint). Interior
    /// runs execute on the same resolved tier as a full-table solve;
    /// workers split each wave's interior run exactly as they split
    /// full-table waves. Non-anti-diagonal kernels are rejected with
    /// [`Error::PlanMismatch`].
    pub fn solve_rolling<K: Kernel>(
        &self,
        kernel: &K,
        best_of: Option<fn(&K::Cell) -> i64>,
    ) -> Result<RollingSolve<K::Cell>> {
        let spec = SolveSpec {
            memory: MemoryMode::Rolling,
            best_of,
            ..SolveSpec::default()
        };
        let (solved, _) = self.solve_with(kernel, &spec)?;
        Ok(solved
            .rolling()
            .expect("a rolling spec yields a band solve"))
    }

    /// The one solve entry: runs `kernel` as `spec` describes and
    /// returns the answer ([`Solved::Full`] grid or [`Solved::Rolling`]
    /// band capture, per [`SolveSpec::memory`]) together with the
    /// degradation rungs taken.
    ///
    /// Without an injector the steps are always empty and an execution
    /// fault fails the solve. With one, the solve walks the graceful
    /// degradation ladder: the full configuration first, then (when a
    /// bulk tier was in play) the scalar tier, then a panic-isolated
    /// single-threaded solve that no injector touches. An injected
    /// worker panic never unwinds the caller, and a pool left with dead
    /// workers is healed before the next rung.
    pub fn solve_with<K: Kernel>(
        &self,
        kernel: &K,
        spec: &SolveSpec<'_, K::Cell>,
    ) -> Result<(Solved<K::Cell>, Vec<DegradeStep>)> {
        let active = spec.threads.unwrap_or(self.threads);
        let injector = spec.injector;
        match spec.memory {
            MemoryMode::Full => {
                let pattern = match spec.pattern {
                    Some(pattern) => pattern,
                    None => classify(kernel.contributing_set())
                        .map(Pattern::canonical)
                        .ok_or(Error::EmptyContributingSet)?,
                };
                let (grid, steps) = self.ladder(
                    kernel,
                    pattern,
                    injector,
                    |e| e.solve_inner(kernel, pattern, spec.sink, active, injector),
                    || {
                        let layout = LayoutKind::preferred_for(pattern);
                        lddp_core::seq::solve_wavefront_as(kernel, pattern, layout)
                    },
                )?;
                Ok((Solved::Full(grid), steps))
            }
            MemoryMode::Rolling => {
                if let Some(pattern) = spec.pattern.filter(|&p| p != Pattern::AntiDiagonal) {
                    return Err(Error::PlanMismatch {
                        expected: "anti-diagonal execution (rolling wave-band mode)".into(),
                        found: format!("{pattern}"),
                    });
                }
                let (band, steps) = self.ladder(
                    kernel,
                    Pattern::AntiDiagonal,
                    injector,
                    |e| e.solve_rolling_inner(kernel, spec.best_of, active, injector, spec.stream),
                    || Self::rolling_sequential(kernel, Some(ExecTier::Scalar), spec.best_of, None),
                )?;
                Ok((Solved::Rolling(band), steps))
            }
        }
    }

    /// Runs `attempt` on this engine and — only when an injector is
    /// attached — walks the degradation ladder on an injected panic:
    /// `attempt` again pinned to the scalar tier (if a bulk tier was in
    /// play for `pattern`), then `sequential` under `catch_unwind`.
    fn ladder<K: Kernel, R>(
        &self,
        kernel: &K,
        pattern: Pattern,
        injector: Option<&dyn FaultInjector>,
        attempt: impl Fn(&ParallelEngine) -> Result<R>,
        sequential: impl FnOnce() -> Result<R>,
    ) -> Result<(R, Vec<DegradeStep>)> {
        let mut steps = Vec::new();
        let first = attempt(self);
        if injector.is_none() {
            return first.map(|r| (r, steps));
        }
        match first {
            Err(Error::ExecutionPanicked { .. }) => {}
            other => return other.map(|r| (r, steps)),
        }
        if self.resolve_exec(kernel, pattern).0 != ExecTier::Scalar {
            steps.push(DegradeStep::BulkToScalar);
            match attempt(&self.clone().with_tier(Some(ExecTier::Scalar))) {
                Err(Error::ExecutionPanicked { .. }) => {}
                other => return other.map(|r| (r, steps)),
            }
        }
        steps.push(DegradeStep::ParallelToSequential);
        match catch_unwind(AssertUnwindSafe(sequential)) {
            Ok(r) => r.map(|r| (r, steps)),
            Err(_) => Err(Error::ExecutionPanicked {
                detail: "sequential fallback panicked".into(),
            }),
        }
    }

    /// One inline band walk on the calling thread, capturing corner
    /// and arg-best through the core visitor.
    fn rolling_sequential<K: Kernel>(
        kernel: &K,
        tier: Option<ExecTier>,
        best_of: Option<fn(&K::Cell) -> i64>,
        stream: Option<&StreamHook<'_, K::Cell>>,
    ) -> Result<RollingSolve<K::Cell>> {
        let dims = kernel.dims();
        let last = (dims.rows + dims.cols).saturating_sub(2);
        let schedule = stream.map(|h| rolling::BandSchedule::new(dims.rows, dims.cols, h.bands));
        let mut corner = None;
        let mut best: Option<(i64, usize, usize, K::Cell)> = None;
        let mut next_band = 0usize;
        let mut cells_done = 0u64;
        let mut emit_alive = true;
        let stats = rolling::solve_waves(kernel, tier, |w, j_lo, cells| {
            if w == last {
                corner = cells.last().copied();
            }
            if let Some(score) = best_of {
                for (p, c) in cells.iter().enumerate() {
                    let s = score(c);
                    if best.is_none_or(|(bs, ..)| s > bs) {
                        best = Some((s, w - (j_lo + p), j_lo + p, *c));
                    }
                }
            }
            if let (Some(hook), Some(sched)) = (stream, &schedule) {
                cells_done += cells.len() as u64;
                if emit_alive && sched.ends().get(next_band) == Some(&w) {
                    let score = cells.last().map_or(0.0, |c| (hook.score_of)(c));
                    let ev = sched.event(
                        next_band,
                        w,
                        cells_done,
                        score,
                        best.map(|(s, ..)| s as f64),
                    );
                    next_band += 1;
                    emit_alive = (hook.emit)(ev);
                }
            }
        })?;
        Ok(RollingSolve {
            corner,
            best: best.map(|(_, i, j, c)| (i, j, c)),
            tier: stats.tier,
            waves: stats.waves,
            peak_bytes: stats.peak_bytes,
        })
    }

    /// Updates the live families a rolling solve contributes to (the
    /// pool counters keep their full-table semantics; rolling adds the
    /// working-set gauge with its own memory-mode label).
    fn record_rolling_live(&self, tier: ExecTier, waves: usize, cells: usize, peak_bytes: usize) {
        if let Some(live) = self.live.as_deref() {
            live.gauge(
                "lddp_engine_table_bytes",
                &[("memory_mode", "rolling")],
                "Peak DP working-set bytes of the most recent solve, by memory mode.",
            )
            .set(peak_bytes as f64);
            record_pool_solve(live, tier, waves, cells);
        }
    }

    fn solve_rolling_inner<K: Kernel>(
        &self,
        kernel: &K,
        best_of: Option<fn(&K::Cell) -> i64>,
        active: usize,
        injector: Option<&dyn FaultInjector>,
        stream: Option<&StreamHook<'_, K::Cell>>,
    ) -> Result<RollingSolve<K::Cell>> {
        let set = kernel.contributing_set();
        if set.is_empty() {
            return Err(Error::EmptyContributingSet);
        }
        if !rolling::supports_rolling(kernel) {
            return Err(Error::PlanMismatch {
                expected: "anti-diagonal contributing set (rolling wave-band mode)".into(),
                found: format!("{set}"),
            });
        }
        let dims = kernel.dims();
        let (tier, _) = self.resolve_exec(kernel, Pattern::AntiDiagonal);
        if dims.is_empty() {
            return Ok(RollingSolve {
                corner: None,
                best: None,
                tier,
                waves: 0,
                peak_bytes: 0,
            });
        }
        let (rows, cols) = (dims.rows, dims.cols);
        let band = rows.min(cols);
        let threads = active.min(self.threads).min(band).max(1);

        // One worker: compute inline — the pool cannot win (same
        // reasoning as the full-table single-thread bypasses). Faulted
        // runs stay on the pool for panic isolation.
        if threads == 1 && injector.is_none() {
            let r = Self::rolling_sequential(kernel, Some(tier), best_of, stream)?;
            self.record_rolling_live(r.tier, r.waves, dims.len(), r.peak_bytes);
            return Ok(r);
        }

        let num_waves = rows + cols - 1;
        let mut b0 = vec![K::Cell::default(); band];
        let mut b1 = vec![K::Cell::default(); band];
        let mut b2 = vec![K::Cell::default(); band];
        let ring = [
            SharedCells::new(&mut b0[..]),
            SharedCells::new(&mut b1[..]),
            SharedCells::new(&mut b2[..]),
        ];
        let has_w = set.contains(RepCell::W);
        let has_nw = set.contains(RepCell::Nw);
        let has_n = set.contains(RepCell::N);
        let wave_body = kernel.wave_kernel();
        let simd_body = kernel.simd_kernel();
        let lanes = if tier == ExecTier::Simd {
            simd_body.map_or(1, |s| s.lanes())
        } else {
            1
        };
        type Captured<C> = (Option<C>, Option<(i64, usize, usize, C)>);
        let captured: Mutex<Captured<K::Cell>> = Mutex::new((None, None));
        let schedule = stream.map(|h| rolling::BandSchedule::new(rows, cols, h.bands));
        let live = self.live.as_deref();
        let pool = self.pool();
        let chaos_injected = |site: &str| {
            if let Some(live) = live {
                live.counter(
                    "lddp_chaos_injected_total",
                    &[("site", site)],
                    "Faults injected by the attached chaos plan, by site.",
                )
                .inc();
            }
        };
        let inject = |t: usize, w: usize| {
            if let Some(inj) = injector {
                if tier != ExecTier::Scalar && inj.bulk_panic(w) {
                    chaos_injected("bulk_panic");
                    panic!("injected bulk fault at wave {w}");
                }
                if inj.worker_panic(t, w) {
                    chaos_injected("worker_panic");
                    panic!("injected worker panic: worker {t} wave {w}");
                }
            }
        };

        let r = pool.try_run(threads, &|t| {
            // Streaming emission state, used by worker 0 only (each
            // worker's invocation owns the whole wave loop).
            let mut next_band = 0usize;
            let mut cells_done = 0u64;
            let mut emit_alive = true;
            for w in 0..num_waves {
                inject(t, w);
                let j_lo = w.saturating_sub(rows - 1);
                let j_hi = (cols - 1).min(w);
                let len = j_hi - j_lo + 1;
                let j_lo1 = (w.saturating_sub(1)).saturating_sub(rows - 1);
                let j_lo2 = (w.saturating_sub(2)).saturating_sub(rows - 1);
                let cur = &ring[w % 3];
                let prev1 = &ring[(w + 2) % 3];
                let prev2 = &ring[(w + 1) % 3];
                // SAFETY (all ring accesses in this wave): wave `w`
                // writes only slot `w % 3`; its dependencies live in
                // waves `w-1`/`w-2`, i.e. the other two slots, sealed by
                // the barriers of those waves. Writes within the wave
                // are pairwise disjoint across workers (chunks plus the
                // worker-0-only border cells).
                let scalar_cell = |j: usize| unsafe {
                    let i = w - j;
                    let mut nb = Neighbors::empty();
                    if j > 0 {
                        if has_w {
                            nb.w = Some(prev1.read(j - 1 - j_lo1));
                        }
                        if has_nw && i > 0 {
                            nb.nw = Some(prev2.read(j - 1 - j_lo2));
                        }
                    }
                    if has_n && i > 0 {
                        nb.n = Some(prev1.read(j - j_lo1));
                    }
                    cur.write(j - j_lo, kernel.compute(i, j, &nb));
                };
                if tier == ExecTier::Scalar {
                    for p in chunk_aligned(t, threads, len, 1) {
                        scalar_cell(j_lo + p);
                    }
                } else {
                    // Interior columns (every dependency in bounds)
                    // form one contiguous run; at most the first and
                    // last wave cells are border cells.
                    let ji_lo = j_lo.max(1);
                    let ji_hi = j_hi.min(w.saturating_sub(1));
                    if t == 0 {
                        for j in j_lo..ji_lo {
                            scalar_cell(j);
                        }
                        for j in (ji_hi + 1)..=j_hi {
                            scalar_cell(j);
                        }
                    }
                    let ilen = (ji_hi + 1).saturating_sub(ji_lo);
                    let my = chunk_aligned(t, threads, ilen, lanes);
                    if !my.is_empty() {
                        let count = my.len();
                        let js = ji_lo + my.start;
                        let i0 = w - js;
                        // SAFETY: `out` is this worker's exclusive range
                        // of the current slot; dependency slices read
                        // slots sealed by earlier barriers.
                        unsafe {
                            let out = cur.slice_mut(js - j_lo, count);
                            let empty: &[K::Cell] = &[];
                            let w_run = if has_w {
                                prev1.slice(js - 1 - j_lo1, count)
                            } else {
                                empty
                            };
                            let n_run = if has_n {
                                prev1.slice(js - j_lo1, count)
                            } else {
                                empty
                            };
                            let nw_run = if has_nw {
                                prev2.slice(js - 1 - j_lo2, count)
                            } else {
                                empty
                            };
                            if tier == ExecTier::Simd {
                                simd_body
                                    .expect("Simd tier implies simd_kernel")
                                    .compute_run_simd(i0, js, out, w_run, nw_run, n_run, empty);
                            } else {
                                wave_body
                                    .expect("Bulk tier implies wave_kernel")
                                    .compute_run(i0, js, out, w_run, nw_run, n_run, empty);
                            }
                        }
                    }
                }
                pool.barrier().wait();
                if t == 0 {
                    // SAFETY: wave `w` is sealed by the barrier above.
                    // Slot `w % 3` is next written by wave `w + 3`,
                    // which no worker reaches before worker 0 passes
                    // the `w + 1` and `w + 2` barriers — i.e. after
                    // this capture completes.
                    let cells = unsafe { cur.slice(0, len) };
                    let mut cap = captured.lock().unwrap_or_else(|e| e.into_inner());
                    if w == num_waves - 1 {
                        cap.0 = cells.last().copied();
                    }
                    if let Some(score) = best_of {
                        for (p, c) in cells.iter().enumerate() {
                            let s = score(c);
                            if cap.1.is_none_or(|(bs, ..)| s > bs) {
                                cap.1 = Some((s, w - (j_lo + p), j_lo + p, *c));
                            }
                        }
                    }
                    if let (Some(hook), Some(sched)) = (stream, &schedule) {
                        // Emission happens here, behind the sealing
                        // barrier but before worker 0 starts wave
                        // `w + 1` — the other workers run ahead until
                        // the next barrier, so a blocking emit (full
                        // channel) throttles the whole pool: exactly
                        // the slow-reader backpressure contract.
                        cells_done += len as u64;
                        if emit_alive && sched.ends().get(next_band) == Some(&w) {
                            let score = cells.last().map_or(0.0, |c| (hook.score_of)(c));
                            let ev = sched.event(
                                next_band,
                                w,
                                cells_done,
                                score,
                                cap.1.map(|(s, ..)| s as f64),
                            );
                            next_band += 1;
                            drop(cap);
                            emit_alive = (hook.emit)(ev);
                        }
                    }
                }
            }
        });
        Self::map_pool_result(pool, r)?;
        let (corner, best) = captured.into_inner().unwrap_or_else(|e| e.into_inner());
        let peak_bytes = 3 * band * std::mem::size_of::<K::Cell>();
        self.record_rolling_live(tier, num_waves, dims.len(), peak_bytes);
        Ok(RollingSolve {
            corner,
            best: best.map(|(_, i, j, c)| (i, j, c)),
            tier,
            waves: num_waves,
            peak_bytes,
        })
    }

    /// Sweeps active worker counts over the shared pool and returns the
    /// fastest (`best`, full sweep), measuring one solve per candidate.
    /// Candidates are clamped to `1..=threads()` and deduplicated after
    /// clamping; an empty candidate list sweeps `1..=threads()`. Ties
    /// prefer the smaller worker count.
    pub fn tune_worker_count<K: Kernel>(
        &self,
        kernel: &K,
        candidates: &[usize],
    ) -> Result<(usize, Vec<SweepPoint>)> {
        let mut seen = Vec::new();
        let clamped: Vec<usize> = if candidates.is_empty() {
            (1..=self.threads).collect()
        } else {
            candidates
                .iter()
                .map(|&c| c.clamp(1, self.threads))
                .collect()
        };
        let mut sweep = Vec::with_capacity(clamped.len());
        for c in clamped {
            if seen.contains(&c) {
                continue;
            }
            seen.push(c);
            let spec = SolveSpec {
                threads: Some(c),
                ..SolveSpec::default()
            };
            let t0 = Instant::now();
            self.solve_with(kernel, &spec)?;
            sweep.push(SweepPoint {
                value: c,
                time: t0.elapsed().as_secs_f64(),
            });
        }
        let best = sweep
            .iter()
            .min_by(|a, b| {
                a.time
                    .partial_cmp(&b.time)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.value.cmp(&b.value))
            })
            .map(|p| p.value)
            .expect("sweep is non-empty");
        Ok((best, sweep))
    }

    /// Maps a pool-run outcome to the engine's error taxonomy, healing
    /// the pool first if workers died so the next solve finds it usable.
    fn map_pool_result(pool: &WorkerPool, r: std::result::Result<(), PoolError>) -> Result<()> {
        match r {
            Ok(()) => Ok(()),
            Err(PoolError::JobPanicked) => Err(Error::ExecutionPanicked {
                detail: "a pool worker panicked mid-solve".into(),
            }),
            Err(PoolError::PoolUnusable { dead }) => {
                let respawned = pool.heal();
                Err(Error::ExecutionPanicked {
                    detail: format!("{dead} pool worker(s) died mid-solve; respawned {respawned}"),
                })
            }
        }
    }

    fn solve_inner<K: Kernel>(
        &self,
        kernel: &K,
        pattern: Pattern,
        sink: &dyn TraceSink,
        active: usize,
        injector: Option<&dyn FaultInjector>,
    ) -> Result<Grid<K::Cell>> {
        let set = kernel.contributing_set();
        if set.is_empty() {
            return Err(Error::EmptyContributingSet);
        }
        if !compatible(pattern, set) {
            return Err(Error::PlanMismatch {
                expected: format!("{pattern}"),
                found: format!("{set}"),
            });
        }
        let dims = kernel.dims();
        let layout_kind = LayoutKind::preferred_for(pattern);
        let mut grid: Grid<K::Cell> = Grid::new(layout_kind, dims);
        if dims.is_empty() {
            return Ok(grid);
        }
        let num_waves = pattern.num_waves(dims.rows, dims.cols);
        let threads = active.min(self.threads).min(dims.len()).max(1);
        let live = self.live.as_deref();
        if let Some(live) = live {
            live.gauge(
                "lddp_engine_table_bytes",
                &[("memory_mode", "full")],
                "Peak DP working-set bytes of the most recent solve, by memory mode.",
            )
            .set((dims.len() * std::mem::size_of::<K::Cell>()) as f64);
        }
        // A live registry forces the instrumented path too: it needs
        // the same per-wave timestamps the sink does.
        let traced = sink.enabled() || live.is_some();
        // The bulk and SIMD paths are only sound when the executed
        // pattern is the set's own classification: only then are all of
        // a run's dependencies in strictly earlier waves with the
        // contiguity property `Layout::interior_runs` relies on
        // (resolve_exec enforces this).
        let (tier, bulk_kernel) = self.resolve_exec(kernel, pattern);
        let lanes = bulk_kernel.map_or(1, |e| e.lanes());

        if threads == 1 && !traced && bulk_kernel.is_none() {
            return lddp_core::seq::solve_wavefront_as(kernel, pattern, layout_kind);
        }

        // Single thread: the pool cannot win with one worker —
        // dispatching to it would pay job hand-off, a spin barrier per
        // wave, and a worker context switch for no parallelism. Compute
        // inline on the calling thread and emit the same spans and live
        // families from here. Instrumented faulted runs stay on the
        // pool so injected panics keep their isolation and
        // per-(worker, wave) draw sequence; an untraced single-thread
        // run draws no faults.
        if threads == 1 && (!traced || injector.is_none()) {
            let layout = grid.layout().clone();
            let cells = SharedCells::new(grid.as_mut_slice());
            let epoch = Instant::now();
            let want_spans = sink.enabled();
            let mut tr = WorkerTrace::default();
            let mut t0 = 0.0;
            for w in 0..num_waves {
                let len = pattern.wave_len(dims.rows, dims.cols, w);
                let runs = if bulk_kernel.is_some() {
                    layout.interior_runs(pattern, set, w)
                } else {
                    Vec::new()
                };
                // SAFETY: one thread computes waves in order; every
                // dependency of wave `w` was written in an earlier wave.
                unsafe {
                    compute_chunk_auto(
                        kernel,
                        bulk_kernel,
                        set,
                        pattern,
                        dims,
                        &layout,
                        &runs,
                        &cells,
                        w,
                        0..len,
                    );
                }
                // Per-wave clocks only when spans are wanted; a live
                // registry needs just the whole-solve aggregates.
                if want_spans {
                    let t1 = epoch.elapsed().as_secs_f64();
                    if len > 0 {
                        tr.spans.push((w, t0, t1 - t0, len));
                    }
                    t0 = t1;
                }
            }
            if traced {
                tr.busy_s = epoch.elapsed().as_secs_f64();
                emit_solve(sink, live, tier, num_waves, dims.len(), tr.busy_s, &[tr]);
            }
            return Ok(grid);
        }

        let layout = grid.layout().clone();
        let cells = SharedCells::new(grid.as_mut_slice());
        // Interior runs are a function of (pattern, set, wave) only —
        // compute them once, outside the workers.
        let runs_by_wave: Vec<Vec<Range<usize>>> = if bulk_kernel.is_some() {
            (0..num_waves)
                .map(|w| layout.interior_runs(pattern, set, w))
                .collect()
        } else {
            Vec::new()
        };
        let no_runs: Vec<Range<usize>> = Vec::new();
        let pool = self.pool();

        // Injected faults surface as worker panics; an inactive
        // injector costs one branch per (worker, wave).
        let chaos_injected = |site: &str| {
            if let Some(live) = live {
                live.counter(
                    "lddp_chaos_injected_total",
                    &[("site", site)],
                    "Faults injected by the attached chaos plan, by site.",
                )
                .inc();
            }
        };
        let inject = |t: usize, w: usize| {
            if let Some(inj) = injector {
                if bulk_kernel.is_some() && inj.bulk_panic(w) {
                    chaos_injected("bulk_panic");
                    panic!("injected bulk fault at wave {w}");
                }
                if inj.worker_panic(t, w) {
                    chaos_injected("worker_panic");
                    panic!("injected worker panic: worker {t} wave {w}");
                }
            }
        };

        let epoch = Instant::now();
        // Spans only feed the sink; on a live-registry-only run, skip
        // collecting them (the registry needs just the aggregates). An
        // untraced run reads no clock inside the loop and records
        // nothing.
        let want_spans = sink.enabled();
        let slots: Vec<Mutex<WorkerTrace>> = (0..threads)
            .map(|_| Mutex::new(WorkerTrace::default()))
            .collect();
        let r = pool.try_run(threads, &|t| {
            let mut tr = WorkerTrace::default();
            // Two clock reads per wave, not three: each wave starts at
            // the previous wave's barrier exit (the inter-wave setup it
            // absorbs into busy time is tens of nanoseconds).
            let mut t0 = if traced {
                epoch.elapsed().as_secs_f64()
            } else {
                0.0
            };
            for w in 0..num_waves {
                inject(t, w);
                let len = pattern.wave_len(dims.rows, dims.cols, w);
                let my = chunk_aligned(t, threads, len, lanes);
                let owned = my.len();
                let runs = runs_by_wave.get(w).unwrap_or(&no_runs);
                // SAFETY: chunks of a wave are disjoint across workers;
                // the pool barrier seals each wave before the next
                // reads it.
                unsafe {
                    compute_chunk_auto(
                        kernel,
                        bulk_kernel,
                        set,
                        pattern,
                        dims,
                        &layout,
                        runs,
                        &cells,
                        w,
                        my,
                    );
                }
                if !traced {
                    pool.barrier().wait();
                    continue;
                }
                let t1 = epoch.elapsed().as_secs_f64();
                pool.barrier().wait();
                let t2 = epoch.elapsed().as_secs_f64();
                if want_spans && owned > 0 {
                    tr.spans.push((w, t0, t1 - t0, owned));
                }
                tr.busy_s += t1 - t0;
                tr.barrier_wait_s.push(t2 - t1);
                t0 = t2;
            }
            if traced {
                *slots[t].lock().unwrap_or_else(|e| e.into_inner()) = tr;
            }
        });
        Self::map_pool_result(pool, r)?;
        if traced {
            let worker_traces: Vec<WorkerTrace> = slots
                .into_iter()
                .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
                .collect();
            let total_s = epoch.elapsed().as_secs_f64();
            emit_solve(
                sink,
                live,
                tier,
                num_waves,
                dims.len(),
                total_s,
                &worker_traces,
            );
        }
        Ok(grid)
    }
}

/// Emits one instrumented full-table solve from its per-worker traces:
/// wave spans, busy samples, barrier waits and solve counters into the
/// sink (when enabled), and worker busy time, barrier waits and the
/// pool solve families into the live registry (when attached). Worker
/// `t`'s trace is `traces[t]`; the inline single-thread path passes one
/// trace with no barrier waits, which still registers the barrier
/// family so the exposition keeps its shape regardless of thread count.
fn emit_solve(
    sink: &dyn TraceSink,
    live: Option<&LiveRegistry>,
    tier: ExecTier,
    waves: usize,
    cells: usize,
    total_s: f64,
    traces: &[WorkerTrace],
) {
    if sink.enabled() {
        for (t, tr) in traces.iter().enumerate() {
            for &(w, start_s, dur_s, owned) in &tr.spans {
                sink.span(
                    Span::new("wave", tracks::worker(t), start_s, dur_s)
                        .with_arg("wave", w)
                        .with_arg("cells", owned)
                        .with_arg("tier", tier.as_str()),
                );
            }
            sink.sample(tracks::worker(t), "worker.busy_s", total_s, tr.busy_s);
            for &wait_s in &tr.barrier_wait_s {
                sink.observe("parallel.barrier_wait_s", wait_s);
            }
        }
        sink.count("parallel.waves", waves as u64);
        sink.count("parallel.cells", cells as u64);
        sink.count("parallel.workers", traces.len() as u64);
        sink.count(
            match tier {
                ExecTier::Scalar => "parallel.tier.scalar",
                ExecTier::Bulk => "parallel.tier.bulk",
                ExecTier::Simd => "parallel.tier.simd",
                ExecTier::BitParallel => "parallel.tier.bitparallel",
            },
            1,
        );
    }
    if let Some(live) = live {
        let waits = live.histogram(
            "lddp_pool_barrier_wait_seconds",
            &[],
            "Time pool workers spent blocked at the inter-wave barrier.",
        );
        for (t, tr) in traces.iter().enumerate() {
            live.fcounter(
                "lddp_pool_worker_busy_seconds_total",
                &[("worker", &t.to_string())],
                "Cumulative compute time per pool worker.",
            )
            .add(tr.busy_s);
            for &wait_s in &tr.barrier_wait_s {
                waits.observe(wait_s);
            }
        }
        record_pool_solve(live, tier, waves, cells);
    }
}

/// Counts one completed solve in the pool families every solve path
/// reports: solves by tier, waves and cells.
fn record_pool_solve(live: &LiveRegistry, tier: ExecTier, waves: usize, cells: usize) {
    live.counter(
        "lddp_pool_solves_total",
        &[("tier", tier.as_str())],
        "Pooled solves completed, by execution tier.",
    )
    .inc();
    live.counter("lddp_pool_waves_total", &[], "Waves executed by the pool.")
        .add(waves as u64);
    live.counter(
        "lddp_pool_cells_total",
        &[],
        "Grid cells computed by the pool.",
    )
    .add(cells as u64);
}

impl Default for ParallelEngine {
    fn default() -> Self {
        ParallelEngine::host()
    }
}

/// What one [`ParallelEngine::solve_with`] call runs. `Default` is a
/// plain full-table solve: canonical pattern, every worker, no
/// injector, no tracing.
pub struct SolveSpec<'a, C> {
    /// [`MemoryMode::Full`] materializes the grid ([`Solved::Full`]);
    /// [`MemoryMode::Rolling`] keeps only the three-band ring
    /// ([`Solved::Rolling`]) and rejects non-anti-diagonal kernels.
    pub memory: MemoryMode,
    /// Execution pattern; `None` executes the set's classified
    /// canonical pattern. A full-table solve accepts any compatible
    /// pattern (e.g. a `{NW}` problem under Horizontal, §V-B); a
    /// rolling solve only anti-diagonal.
    pub pattern: Option<Pattern>,
    /// Rolling only: score whose arg-best cell the band walk captures
    /// (the Smith–Waterman endpoint).
    pub best_of: Option<fn(&C) -> i64>,
    /// Rolling only: streams sealed wave bands while the pool keeps
    /// solving. The schedule is cut into `hook.bands` near-equal-cell
    /// slices ([`lddp_core::rolling::BandSchedule`]) and worker 0 calls
    /// `hook.emit` behind each band's sealing barrier — solve of band
    /// `k+1` overlaps delivery of band `k`, the pipeline structure of
    /// the Matsumae–Miyazaki GPU path. A blocking `emit` (e.g. a full
    /// bounded channel) stalls the pool at the next barrier, which is
    /// the backpressure the serving path wants; an `emit` returning
    /// `false` stops further emission while the solve completes. The
    /// answer is bit-identical to an unstreamed solve — emission is
    /// observation only. A degraded rung re-emits from band 0.
    pub stream: Option<&'a StreamHook<'a, C>>,
    /// Fault injector consulted per (worker, wave) on the pooled path;
    /// `Some` runs the degradation ladder (see
    /// [`ParallelEngine::solve_with`]). The single-threaded shortcut
    /// path is not injectable.
    pub injector: Option<&'a dyn FaultInjector>,
    /// Full-table only: wall-clock instrumentation sink (see module
    /// docs). A disabled sink adds no work.
    pub sink: &'a dyn TraceSink,
    /// Workers drawn from the engine's pool, clamped to
    /// `1..=threads()`; `None` uses them all. A worker-count sweep sets
    /// this so every candidate reuses the same long-lived threads.
    pub threads: Option<usize>,
}

impl<C> Default for SolveSpec<'_, C> {
    fn default() -> Self {
        SolveSpec {
            memory: MemoryMode::Full,
            pattern: None,
            best_of: None,
            stream: None,
            injector: None,
            sink: &NullSink,
            threads: None,
        }
    }
}

/// The answer of a [`ParallelEngine::solve_with`] call, by memory mode.
#[derive(Debug)]
pub enum Solved<C> {
    /// The materialized grid of a [`MemoryMode::Full`] solve.
    Full(Grid<C>),
    /// The band capture of a [`MemoryMode::Rolling`] solve.
    Rolling(RollingSolve<C>),
}

impl<C> Solved<C> {
    /// The grid of a full-table solve (`None` for a rolling one).
    pub fn grid(self) -> Option<Grid<C>> {
        match self {
            Solved::Full(grid) => Some(grid),
            Solved::Rolling(_) => None,
        }
    }

    /// The band capture of a rolling solve (`None` for a full one).
    pub fn rolling(self) -> Option<RollingSolve<C>> {
        match self {
            Solved::Full(_) => None,
            Solved::Rolling(band) => Some(band),
        }
    }
}

/// How a streaming rolling solve emits its bands — see
/// [`SolveSpec::stream`].
pub struct StreamHook<'a, C> {
    /// Requested band count; the schedule clamps it to the wave count,
    /// so tiny grids emit fewer (but at least one) bands.
    pub bands: usize,
    /// Projects a frontier cell to the frame's running score.
    pub score_of: fn(&C) -> f64,
    /// Called once per sealed band, in band order, from inside the
    /// solve. May block (that is the backpressure path); returns
    /// `false` to stop further emission while the solve completes.
    pub emit: &'a (dyn Fn(rolling::BandEvent) -> bool + Sync),
}

/// Result of a rolling (wave-band) solve. There is no grid — that is
/// the point: only the answers the caller asked the band walk to
/// capture, plus what the solve used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollingSolve<C> {
    /// Bottom-right cell (`None` only for empty tables) — the answer
    /// cell for corner-answer problems.
    pub corner: Option<C>,
    /// `(i, j, cell)` of the arg-best cell under the requested score
    /// (ties to the earliest cell in wave order), when one was
    /// requested.
    pub best: Option<(usize, usize, C)>,
    /// Tier the interior runs executed on.
    pub tier: ExecTier,
    /// Waves walked.
    pub waves: usize,
    /// Peak working-set bytes: the three ring bands. This is what the
    /// `lddp_engine_table_bytes{memory_mode="rolling"}` gauge reports.
    pub peak_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lddp_core::cell::{ContributingSet, RepCell};
    use lddp_core::kernel::ClosureKernel;
    use lddp_core::seq::solve_row_major;
    use lddp_core::wavefront::Dims;
    use lddp_trace::Recorder;

    /// Full-table solve under an explicit pattern, through the spec.
    fn solve_as<K: Kernel>(e: &ParallelEngine, k: &K, pattern: Pattern) -> Result<Grid<K::Cell>> {
        let spec = SolveSpec {
            pattern: Some(pattern),
            ..SolveSpec::default()
        };
        e.solve_with(k, &spec).map(|(s, _)| s.grid().unwrap())
    }

    /// Full-table solve instrumented through `sink`.
    fn solve_traced<K: Kernel>(
        e: &ParallelEngine,
        k: &K,
        sink: &dyn TraceSink,
    ) -> Result<Grid<K::Cell>> {
        let spec = SolveSpec {
            sink,
            ..SolveSpec::default()
        };
        e.solve_with(k, &spec).map(|(s, _)| s.grid().unwrap())
    }

    /// Full-table solve on at most `active` pool workers.
    fn solve_active<K: Kernel>(e: &ParallelEngine, k: &K, active: usize) -> Result<Grid<K::Cell>> {
        let spec = SolveSpec {
            threads: Some(active),
            ..SolveSpec::default()
        };
        e.solve_with(k, &spec).map(|(s, _)| s.grid().unwrap())
    }

    /// Full-table solve down the degradation ladder.
    fn solve_degrading<K: Kernel>(
        e: &ParallelEngine,
        k: &K,
        injector: &dyn lddp_chaos::FaultInjector,
    ) -> Result<(Grid<K::Cell>, Vec<DegradeStep>)> {
        let spec = SolveSpec {
            injector: Some(injector),
            ..SolveSpec::default()
        };
        e.solve_with(k, &spec)
            .map(|(s, steps)| (s.grid().unwrap(), steps))
    }

    /// Rolling solve down the degradation ladder.
    fn solve_rolling_degrading<K: Kernel>(
        e: &ParallelEngine,
        k: &K,
        best_of: Option<fn(&K::Cell) -> i64>,
        injector: &dyn lddp_chaos::FaultInjector,
    ) -> Result<(RollingSolve<K::Cell>, Vec<DegradeStep>)> {
        let spec = SolveSpec {
            memory: MemoryMode::Rolling,
            best_of,
            injector: Some(injector),
            ..SolveSpec::default()
        };
        e.solve_with(k, &spec)
            .map(|(s, steps)| (s.rolling().unwrap(), steps))
    }

    /// Rolling solve streaming its bands through `hook`.
    fn solve_rolling_stream<K: Kernel>(
        e: &ParallelEngine,
        k: &K,
        best_of: Option<fn(&K::Cell) -> i64>,
        hook: &StreamHook<'_, K::Cell>,
    ) -> Result<RollingSolve<K::Cell>> {
        let spec = SolveSpec {
            memory: MemoryMode::Rolling,
            best_of,
            stream: Some(hook),
            ..SolveSpec::default()
        };
        e.solve_with(k, &spec).map(|(s, _)| s.rolling().unwrap())
    }

    fn mix_kernel(
        dims: Dims,
        set: ContributingSet,
    ) -> ClosureKernel<u64, impl Fn(usize, usize, &Neighbors<u64>) -> u64 + Sync> {
        ClosureKernel::new(dims, set, move |i, j, n: &Neighbors<u64>| {
            let mut acc = (i as u64) << 20 | (j as u64 + 7);
            for c in RepCell::ALL {
                if let Some(v) = n.get(c) {
                    acc = acc.wrapping_mul(1099511628211).wrapping_add(*v);
                }
            }
            acc
        })
    }

    /// The same arithmetic as [`mix_kernel`], with a bulk path for
    /// anti-diagonal sets. Exercises scalar/bulk equivalence.
    struct BulkMix {
        dims: Dims,
        set: ContributingSet,
    }

    impl Kernel for BulkMix {
        type Cell = u64;

        fn dims(&self) -> Dims {
            self.dims
        }

        fn contributing_set(&self) -> ContributingSet {
            self.set
        }

        fn compute(&self, i: usize, j: usize, n: &Neighbors<u64>) -> u64 {
            let mut acc = (i as u64) << 20 | (j as u64 + 7);
            for c in RepCell::ALL {
                if let Some(v) = n.get(c) {
                    acc = acc.wrapping_mul(1099511628211).wrapping_add(*v);
                }
            }
            acc
        }

        fn wave_kernel(&self) -> Option<&dyn WaveKernel<Cell = u64>> {
            // The bulk body below walks anti-diagonal runs only.
            (classify(self.set) == Some(Pattern::AntiDiagonal)).then_some(self as _)
        }
    }

    impl WaveKernel for BulkMix {
        fn compute_run(
            &self,
            i: usize,
            j0: usize,
            out: &mut [u64],
            w: &[u64],
            nw: &[u64],
            n: &[u64],
            ne: &[u64],
        ) {
            for p in 0..out.len() {
                let (ci, cj) = (i - p, j0 + p);
                let mut acc = (ci as u64) << 20 | (cj as u64 + 7);
                // Same fold order as the scalar path: W, NW, N, NE.
                for sl in [w, nw, n, ne] {
                    if !sl.is_empty() {
                        acc = acc.wrapping_mul(1099511628211).wrapping_add(sl[p]);
                    }
                }
                out[p] = acc;
            }
        }
    }

    #[test]
    fn chunks_tile_the_range() {
        for n in 1..9 {
            for len in [0usize, 1, 5, 8, 9, 100] {
                let mut next = 0;
                for t in 0..n {
                    let c = chunk_aligned(t, n, len, 1);
                    assert_eq!(c.start, next);
                    next = c.end;
                }
                assert_eq!(next, len, "threads={n} len={len}");
                // Balanced within one cell.
                let sizes: Vec<usize> = (0..n).map(|t| chunk_aligned(t, n, len, 1).len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn matches_oracle_for_all_sets_and_thread_counts() {
        for set in ContributingSet::table_one_rows() {
            let pattern = classify(set).unwrap();
            if !pattern.is_canonical() {
                continue;
            }
            let dims = Dims::new(13, 11);
            let kernel = mix_kernel(dims, set);
            let oracle = solve_row_major(&kernel).unwrap().to_row_major();
            for threads in [1, 2, 3, 8] {
                let engine = ParallelEngine::new(threads);
                let got = engine.solve(&kernel).unwrap();
                assert_eq!(got.to_row_major(), oracle, "{set} threads={threads}");
            }
        }
    }

    #[test]
    fn thin_tables_and_tiny_tables() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        for (r, c) in [(1, 1), (1, 64), (64, 1), (2, 2)] {
            let dims = Dims::new(r, c);
            let kernel = mix_kernel(dims, set);
            let oracle = solve_row_major(&kernel).unwrap().to_row_major();
            let got = ParallelEngine::new(4).solve(&kernel).unwrap();
            assert_eq!(got.to_row_major(), oracle, "{r}x{c}");
        }
    }

    #[test]
    fn empty_table_is_fine() {
        let set = ContributingSet::new(&[RepCell::N]);
        let kernel = mix_kernel(Dims::new(0, 8), set);
        let got = ParallelEngine::new(4).solve(&kernel).unwrap();
        assert_eq!(got.as_slice().len(), 0);
    }

    #[test]
    fn empty_set_is_rejected() {
        let kernel = mix_kernel(Dims::new(4, 4), ContributingSet::EMPTY);
        assert!(matches!(
            ParallelEngine::new(2).solve(&kernel),
            Err(Error::EmptyContributingSet)
        ));
    }

    #[test]
    fn incompatible_pattern_is_rejected() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        let kernel = mix_kernel(Dims::new(4, 4), set);
        assert!(solve_as(&ParallelEngine::new(2), &kernel, Pattern::Horizontal).is_err());
    }

    #[test]
    fn nw_problem_under_horizontal_matches() {
        let set = ContributingSet::new(&[RepCell::Nw]);
        let dims = Dims::new(17, 9);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let il = solve_as(&ParallelEngine::new(4), &kernel, Pattern::InvertedL).unwrap();
        let h1 = solve_as(&ParallelEngine::new(4), &kernel, Pattern::Horizontal).unwrap();
        assert_eq!(il.to_row_major(), oracle);
        assert_eq!(h1.to_row_major(), oracle);
    }

    #[test]
    fn deterministic_across_runs_and_threads() {
        let set = ContributingSet::FULL;
        let dims = Dims::new(37, 23);
        let kernel = mix_kernel(dims, set);
        let base = ParallelEngine::new(2)
            .solve(&kernel)
            .unwrap()
            .to_row_major();
        for threads in [3, 5, 16] {
            let got = ParallelEngine::new(threads).solve(&kernel).unwrap();
            assert_eq!(got.to_row_major(), base, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_cells_is_clamped() {
        let set = ContributingSet::new(&[RepCell::N]);
        let dims = Dims::new(2, 2);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let got = ParallelEngine::new(64).solve(&kernel).unwrap();
        assert_eq!(got.to_row_major(), oracle);
    }

    #[test]
    fn larger_stress_run() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let dims = Dims::new(257, 193);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let got = ParallelEngine::new(8).solve(&kernel).unwrap();
        assert_eq!(got.to_row_major(), oracle);
    }

    #[test]
    fn host_engine_reports_threads() {
        assert!(ParallelEngine::host().threads() >= 1);
        assert_eq!(ParallelEngine::new(0).threads(), 1);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_everything() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let dims = Dims::new(37, 29);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let threads = 3;
        let rec = Recorder::new();
        let got = solve_traced(&ParallelEngine::new(threads), &kernel, &rec).unwrap();
        assert_eq!(got.to_row_major(), oracle);

        let data = rec.snapshot();
        let waves = Pattern::AntiDiagonal.num_waves(dims.rows, dims.cols);
        assert_eq!(data.counters["parallel.waves"], waves as u64);
        assert_eq!(data.counters["parallel.cells"], dims.len() as u64);
        assert_eq!(data.counters["parallel.workers"], threads as u64);

        // Every worker lane has spans, and they sum to the cell count.
        let mut cells = 0u64;
        for t in 0..threads {
            let lane: Vec<_> = data
                .spans
                .iter()
                .filter(|s| s.track == tracks::worker(t))
                .collect();
            assert!(!lane.is_empty(), "worker {t} has no spans");
            for s in &lane {
                assert_eq!(s.name, "wave");
                assert!(s.dur_s >= 0.0);
                let c = s
                    .args
                    .iter()
                    .find(|(k, _)| *k == "cells")
                    .map(|(_, v)| match v {
                        lddp_trace::ArgValue::U64(n) => *n,
                        _ => 0,
                    })
                    .unwrap();
                assert!(c > 0, "empty chunks must not produce spans");
                cells += c;
            }
            // Lane spans are time-ordered.
            for w in lane.windows(2) {
                assert!(w[0].start_s <= w[1].start_s);
            }
        }
        assert_eq!(cells, dims.len() as u64);

        // Barrier waits: one observation per (worker, wave).
        let h = &data.histograms["parallel.barrier_wait_s"];
        assert_eq!(h.count, (threads * waves) as u64);
        // Per-worker busy-time samples on the worker lanes.
        let busy: Vec<_> = data
            .samples
            .iter()
            .filter(|s| s.name == "worker.busy_s")
            .collect();
        assert_eq!(busy.len(), threads);
        assert!(busy.iter().all(|s| s.value >= 0.0));
    }

    #[test]
    fn traced_single_thread_still_records() {
        // threads == 1 normally short-circuits to the sequential solver;
        // with a live sink it must still go through the instrumented path.
        let set = ContributingSet::new(&[RepCell::N]);
        let dims = Dims::new(9, 5);
        let kernel = mix_kernel(dims, set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let rec = Recorder::new();
        let got = solve_traced(&ParallelEngine::new(1), &kernel, &rec).unwrap();
        assert_eq!(got.to_row_major(), oracle);
        let data = rec.snapshot();
        assert_eq!(data.counters["parallel.workers"], 1);
        assert!(!data.spans.is_empty());
    }

    #[test]
    fn null_sink_takes_the_untraced_path() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        let kernel = mix_kernel(Dims::new(16, 16), set);
        let a = ParallelEngine::new(4).solve(&kernel).unwrap();
        let b = solve_traced(&ParallelEngine::new(4), &kernel, &NullSink).unwrap();
        assert_eq!(a.to_row_major(), b.to_row_major());
    }

    #[test]
    fn bulk_path_matches_scalar_and_oracle() {
        let sets = [
            ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
            ContributingSet::FULL,
            ContributingSet::new(&[RepCell::W, RepCell::N]),
            ContributingSet::new(&[RepCell::Nw]), // bulk hook declines: scalar fallback
        ];
        for set in sets {
            for (r, c) in [(13, 11), (1, 9), (9, 1), (37, 23), (5, 64), (64, 5)] {
                let kernel = BulkMix {
                    dims: Dims::new(r, c),
                    set,
                };
                let oracle = solve_row_major(&kernel).unwrap().to_row_major();
                for threads in [1, 2, 5] {
                    let bulk = ParallelEngine::new(threads).solve(&kernel).unwrap();
                    let scalar = ParallelEngine::new(threads)
                        .with_tier(Some(ExecTier::Scalar))
                        .solve(&kernel)
                        .unwrap();
                    assert_eq!(bulk.to_row_major(), oracle, "{set} {r}x{c} t={threads}");
                    assert_eq!(scalar.to_row_major(), oracle, "{set} {r}x{c} t={threads}");
                }
            }
        }
    }

    #[test]
    fn bulk_is_skipped_under_a_non_classified_pattern() {
        // {W, NW, N} classifies AntiDiagonal; forcing another compatible
        // execution pattern must not take the bulk path (the kernel's
        // run body walks anti-diagonals). InvertedL is compatible with
        // the full set's subsets? Use the {NW} kernel under Horizontal:
        // classify({NW}) == InvertedL != Horizontal, so the gate closes
        // even though the hook would be consulted under InvertedL.
        let kernel = BulkMix {
            dims: Dims::new(17, 9),
            set: ContributingSet::new(&[RepCell::Nw]),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let got = solve_as(&ParallelEngine::new(4), &kernel, Pattern::Horizontal).unwrap();
        assert_eq!(got.to_row_major(), oracle);
    }

    #[test]
    fn traced_bulk_run_keeps_span_accounting() {
        let kernel = BulkMix {
            dims: Dims::new(37, 29),
            set: ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let rec = Recorder::new();
        let got = solve_traced(&ParallelEngine::new(3), &kernel, &rec).unwrap();
        assert_eq!(got.to_row_major(), oracle);
        let data = rec.snapshot();
        let mut cells = 0u64;
        for s in &data.spans {
            for (k, v) in &s.args {
                if *k == "cells" {
                    if let lddp_trace::ArgValue::U64(n) = v {
                        cells += n;
                    }
                }
            }
        }
        assert_eq!(cells, kernel.dims.len() as u64, "bulk must not lose cells");
    }

    #[test]
    fn worker_count_spec_clamps_and_matches() {
        let kernel = BulkMix {
            dims: Dims::new(29, 31),
            set: ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let engine = ParallelEngine::new(4);
        for active in [0, 1, 3, 4, 64] {
            let got = solve_active(&engine, &kernel, active).unwrap();
            assert_eq!(got.to_row_major(), oracle, "active={active}");
        }
    }

    #[test]
    fn tune_worker_count_sweeps_the_shared_pool() {
        let kernel = mix_kernel(
            Dims::new(48, 48),
            ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        );
        let engine = ParallelEngine::new(4);
        let (best, sweep) = engine.tune_worker_count(&kernel, &[1, 2, 4, 4, 9]).unwrap();
        // 9 clamps to 4 and deduplicates: candidates are 1, 2, 4.
        assert_eq!(
            sweep.iter().map(|p| p.value).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        assert!(sweep.iter().all(|p| p.time >= 0.0));
        assert!([1, 2, 4].contains(&best));

        // Empty candidate list sweeps 1..=threads.
        let (_, full) = engine.tune_worker_count(&kernel, &[]).unwrap();
        assert_eq!(
            full.iter().map(|p| p.value).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn clones_share_the_worker_pool() {
        let engine = ParallelEngine::new(3);
        let kernel = mix_kernel(
            Dims::new(16, 16),
            ContributingSet::new(&[RepCell::W, RepCell::N]),
        );
        engine.solve(&kernel).unwrap(); // force pool creation
        let clone = engine.clone();
        clone.solve(&kernel).unwrap();
        assert!(std::ptr::eq(engine.pool(), clone.pool()));
        // A clone taken before the pool exists shares it too: the
        // serving path clones its engine per solve to pin the tier.
        let fresh = ParallelEngine::new(3);
        let pinned = fresh.clone().with_tier(Some(ExecTier::Scalar));
        pinned.solve(&kernel).unwrap();
        assert!(
            fresh.pool_started(),
            "the clone's pool is not the original's"
        );
        assert!(std::ptr::eq(fresh.pool(), pinned.pool()));
    }

    /// [`BulkMix`] plus a SIMD hook whose "vector" body is the bulk
    /// body — bit-identical by construction, so it can exercise tier
    /// dispatch, lane-aligned chunking and reporting on any host.
    struct SimdMix(BulkMix);

    impl Kernel for SimdMix {
        type Cell = u64;

        fn dims(&self) -> Dims {
            self.0.dims
        }

        fn contributing_set(&self) -> ContributingSet {
            self.0.set
        }

        fn compute(&self, i: usize, j: usize, n: &Neighbors<u64>) -> u64 {
            self.0.compute(i, j, n)
        }

        fn wave_kernel(&self) -> Option<&dyn WaveKernel<Cell = u64>> {
            self.0.wave_kernel().map(|_| self as _)
        }

        fn simd_kernel(&self) -> Option<&dyn SimdWaveKernel<Cell = u64>> {
            (classify(self.0.set) == Some(Pattern::AntiDiagonal)).then_some(self as _)
        }
    }

    impl WaveKernel for SimdMix {
        fn compute_run(
            &self,
            i: usize,
            j0: usize,
            out: &mut [u64],
            w: &[u64],
            nw: &[u64],
            n: &[u64],
            ne: &[u64],
        ) {
            self.0.compute_run(i, j0, out, w, nw, n, ne);
        }
    }

    impl SimdWaveKernel for SimdMix {
        fn lanes(&self) -> usize {
            4
        }

        fn compute_run_simd(
            &self,
            i: usize,
            j0: usize,
            out: &mut [u64],
            w: &[u64],
            nw: &[u64],
            n: &[u64],
            ne: &[u64],
        ) {
            self.compute_run(i, j0, out, w, nw, n, ne);
        }
    }

    fn anti_diag_set() -> ContributingSet {
        ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N])
    }

    #[test]
    fn tier_selection_pins_and_downgrades() {
        let simd_mix = SimdMix(BulkMix {
            dims: Dims::new(16, 16),
            set: anti_diag_set(),
        });
        let bulk_only = BulkMix {
            dims: Dims::new(16, 16),
            set: anti_diag_set(),
        };
        let scalar_only = mix_kernel(Dims::new(16, 16), anti_diag_set());
        let engine = ParallelEngine::new(2);

        let simd_auto = if simd_available() {
            ExecTier::Simd
        } else {
            ExecTier::Bulk
        };
        assert_eq!(engine.select_tier(&simd_mix), simd_auto);
        assert_eq!(engine.select_tier(&bulk_only), ExecTier::Bulk);
        assert_eq!(engine.select_tier(&scalar_only), ExecTier::Scalar);

        // Pins are honored where supported and downgrade where not.
        let pin = |t| ParallelEngine::new(2).with_tier(Some(t));
        assert_eq!(
            pin(ExecTier::Scalar).select_tier(&simd_mix),
            ExecTier::Scalar
        );
        assert_eq!(pin(ExecTier::Bulk).select_tier(&simd_mix), ExecTier::Bulk);
        assert_eq!(pin(ExecTier::Simd).select_tier(&bulk_only), ExecTier::Bulk);
        assert_eq!(
            pin(ExecTier::Simd).select_tier(&scalar_only),
            ExecTier::Scalar
        );
        // A bit-parallel pin is answer-level, not an engine tier: auto.
        assert_eq!(pin(ExecTier::BitParallel).select_tier(&simd_mix), simd_auto);
        assert_eq!(engine.tier_override(), None);
        assert_eq!(
            engine
                .clone()
                .with_tier(Some(ExecTier::Simd))
                .tier_override(),
            Some(ExecTier::Simd)
        );
    }

    #[test]
    fn tier_caps_compose_and_the_lower_one_wins() {
        use ExecTier::*;
        let caps = [
            None,
            Some(Scalar),
            Some(Bulk),
            Some(Simd),
            Some(BitParallel),
        ];
        for available in [Scalar, Bulk, Simd] {
            for env in caps {
                for pin in caps {
                    let got = requested_tier(available, env, pin);
                    assert!(got <= available, "{available:?} {env:?} {pin:?}");
                    for cap in [env, pin].into_iter().flatten() {
                        assert!(got <= cap, "{available:?} {env:?} {pin:?}");
                    }
                    // The result is one of the bounds, never below all
                    // of them.
                    assert!(
                        [Some(available), env, pin].contains(&Some(got)),
                        "{available:?} {env:?} {pin:?}"
                    );
                }
            }
        }
        // The env value caps; it never overrides a lower pin.
        assert_eq!(requested_tier(Simd, Some(Simd), Some(Scalar)), Scalar);
        assert_eq!(requested_tier(Simd, Some(Bulk), Some(Simd)), Bulk);
        // A bit-parallel cap is no cap.
        assert_eq!(requested_tier(Simd, Some(BitParallel), None), Simd);
        assert_eq!(requested_tier(Bulk, None, Some(BitParallel)), Bulk);
    }

    #[test]
    fn simd_tier_matches_oracle_across_shapes_and_threads() {
        for (r, c) in [(13, 11), (1, 9), (9, 1), (37, 23), (5, 64), (64, 5)] {
            let kernel = SimdMix(BulkMix {
                dims: Dims::new(r, c),
                set: anti_diag_set(),
            });
            let oracle = solve_row_major(&kernel).unwrap().to_row_major();
            for threads in [1, 2, 5] {
                for tier in [None, Some(ExecTier::Scalar), Some(ExecTier::Bulk)] {
                    let engine = ParallelEngine::new(threads).with_tier(tier);
                    let got = engine.solve(&kernel).unwrap();
                    assert_eq!(got.to_row_major(), oracle, "{r}x{c} t={threads} {tier:?}");
                }
            }
        }
    }

    #[test]
    fn traced_solve_records_the_tier() {
        let kernel = SimdMix(BulkMix {
            dims: Dims::new(33, 29),
            set: anti_diag_set(),
        });
        let rec = Recorder::new();
        let engine = ParallelEngine::new(3);
        let tier = engine.select_tier(&kernel);
        solve_traced(&engine, &kernel, &rec).unwrap();
        let data = rec.snapshot();
        assert_eq!(data.counters[&format!("parallel.tier.{tier}")], 1);
        let wave_spans: Vec<_> = data.spans.iter().filter(|s| s.name == "wave").collect();
        assert!(!wave_spans.is_empty());
        for s in wave_spans {
            let arg = s
                .args
                .iter()
                .find(|(k, _)| *k == "tier")
                .map(|(_, v)| v.clone());
            assert_eq!(
                arg,
                Some(lddp_trace::ArgValue::Str(tier.as_str().to_string())),
                "every wave span carries the resolved tier"
            );
        }
    }

    #[test]
    fn tune_tier_sweeps_available_tiers_and_picks_one() {
        let engine = ParallelEngine::new(2);
        let kernel = SimdMix(BulkMix {
            dims: Dims::new(48, 48),
            set: anti_diag_set(),
        });
        let (best, points) = engine.tune_tier(&kernel).unwrap();
        let tiers: Vec<ExecTier> = points.iter().map(|p| p.tier).collect();
        let mut expect = vec![ExecTier::Scalar, ExecTier::Bulk];
        if simd_available() {
            expect.push(ExecTier::Simd);
        }
        assert_eq!(tiers, expect);
        assert!(points.iter().all(|p| p.secs >= 0.0));
        assert!(tiers.contains(&best));

        // A kernel without bulk hooks sweeps only the scalar tier.
        let scalar_only = mix_kernel(Dims::new(24, 24), anti_diag_set());
        let (best, points) = engine.tune_tier(&scalar_only).unwrap();
        assert_eq!(best, ExecTier::Scalar);
        assert_eq!(points.len(), 1);
    }

    #[test]
    fn repeated_solves_reuse_the_engine() {
        let engine = ParallelEngine::new(3);
        let kernel = BulkMix {
            dims: Dims::new(33, 21),
            set: ContributingSet::FULL,
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        for _ in 0..5 {
            assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
        }
    }

    /// Injector that panics a specific worker at a specific wave on the
    /// scalar/pooled path, or fails the bulk path, depending on flags.
    struct TestInjector {
        panic_worker: Option<(usize, usize)>,
        bulk_fail_wave: Option<usize>,
    }

    impl lddp_chaos::FaultInjector for TestInjector {
        fn active(&self) -> bool {
            true
        }

        fn worker_panic(&self, worker: usize, wave: usize) -> bool {
            self.panic_worker == Some((worker, wave))
        }

        fn bulk_panic(&self, wave: usize) -> bool {
            self.bulk_fail_wave == Some(wave)
        }
    }

    #[test]
    fn injected_worker_panic_fails_the_solve_not_the_engine() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        let dims = Dims::new(24, 24);
        let kernel = mix_kernel(dims, set);
        let engine = ParallelEngine::new(3);
        let inj = TestInjector {
            panic_worker: Some((1, 5)),
            bulk_fail_wave: None,
        };
        // The pooled attempt panics; a scalar-only kernel has no bulk
        // rung, so the ladder goes straight to the sequential solve.
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let (grid, steps) = solve_degrading(&engine, &kernel, &inj).unwrap();
        assert_eq!(grid.to_row_major(), oracle);
        assert_eq!(steps, vec![DegradeStep::ParallelToSequential]);
        // The panic left no dead workers, and the same engine (and its
        // pool) serves the next solve.
        assert_eq!(engine.pool_dead_workers(), 0);
        assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
    }

    #[test]
    fn degradation_recovers_bulk_fault_via_scalar() {
        let kernel = BulkMix {
            dims: Dims::new(29, 23),
            set: ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let engine = ParallelEngine::new(3);
        let inj = TestInjector {
            panic_worker: None,
            bulk_fail_wave: Some(2),
        };
        let (grid, steps) = solve_degrading(&engine, &kernel, &inj).unwrap();
        assert_eq!(grid.to_row_major(), oracle);
        // Bulk failed, scalar succeeded: exactly one rung taken.
        assert_eq!(steps, vec![DegradeStep::BulkToScalar]);
    }

    #[test]
    fn degradation_falls_back_to_sequential_under_persistent_panics() {
        struct AlwaysPanic;
        impl lddp_chaos::FaultInjector for AlwaysPanic {
            fn active(&self) -> bool {
                true
            }
            fn worker_panic(&self, _worker: usize, wave: usize) -> bool {
                wave == 0
            }
        }
        let kernel = BulkMix {
            dims: Dims::new(21, 19),
            set: ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let engine = ParallelEngine::new(3);
        let (grid, steps) = solve_degrading(&engine, &kernel, &AlwaysPanic).unwrap();
        assert_eq!(grid.to_row_major(), oracle);
        assert_eq!(
            steps,
            vec![DegradeStep::BulkToScalar, DegradeStep::ParallelToSequential]
        );
        // And the engine still works normally afterwards.
        assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
    }

    #[test]
    fn live_registry_records_pool_families() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let kernel = BulkMix {
            dims: Dims::new(29, 23),
            set,
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let reg = Arc::new(lddp_trace::live::LiveRegistry::new());
        let engine = ParallelEngine::new(3).with_live(Arc::clone(&reg));
        // The instrumented path a live registry forces must still be
        // correct, with a NullSink and with 1 active worker.
        assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
        assert_eq!(
            solve_active(&engine, &kernel, 1).unwrap().to_row_major(),
            oracle
        );
        let text = reg.to_prometheus();
        let series = lddp_trace::live::parse_prometheus(&text);
        let get = |name: &str| {
            series
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing series {name} in:\n{text}"))
        };
        let waves = classify(kernel.contributing_set())
            .map(Pattern::canonical)
            .unwrap()
            .num_waves(29, 23) as f64;
        assert_eq!(get("lddp_pool_waves_total"), 2.0 * waves);
        assert_eq!(get("lddp_pool_cells_total"), (2 * 29 * 23) as f64);
        assert!(get("lddp_pool_worker_busy_seconds_total{worker=\"0\"}") >= 0.0);
        assert!(get("lddp_pool_barrier_wait_seconds_count") >= waves);
        // Two solves, whatever tier each resolved to.
        let solves: f64 = series
            .iter()
            .filter(|(n, _)| n.starts_with("lddp_pool_solves_total"))
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(solves, 2.0);
    }

    /// BENCH_pr5 regression: at 1 thread the engine must not stand up
    /// the persistent worker pool even when a live registry or trace
    /// sink forces the instrumented path. The pool's job hand-off and
    /// per-wave spin barrier made `pool_speedup < 1` on a single core
    /// while the families it records stayed mandatory for serving.
    #[test]
    fn single_thread_instrumented_solve_skips_the_pool() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let kernel = BulkMix {
            dims: Dims::new(24, 20),
            set,
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();

        let reg = Arc::new(lddp_trace::live::LiveRegistry::new());
        let engine = ParallelEngine::new(1).with_live(Arc::clone(&reg));
        assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
        assert!(
            engine.pool.get().is_none(),
            "1-thread live solve created the worker pool"
        );
        let text = reg.to_prometheus();
        // Whole-solve aggregates still land…
        assert!(text.contains("lddp_pool_waves_total"), "{text}");
        assert!(text.contains("lddp_pool_cells_total"), "{text}");
        assert!(
            text.contains("lddp_pool_worker_busy_seconds_total{worker=\"0\"}"),
            "{text}"
        );
        // …and the barrier family keeps its exposition shape with zero
        // observations (no barrier ran).
        assert!(
            text.contains("lddp_pool_barrier_wait_seconds_count 0"),
            "{text}"
        );

        // Tracing at 1 thread records wave spans without the pool too.
        let rec = Recorder::new();
        let engine = ParallelEngine::new(1);
        let got = solve_traced(&engine, &kernel, &rec).unwrap();
        assert_eq!(got.to_row_major(), oracle);
        assert!(engine.pool.get().is_none());
        // New accessors report a pool that was never created as healthy.
        assert_eq!(engine.pool_dead_workers(), 0);
        assert_eq!(engine.heal_pool(), 0);
    }

    #[test]
    fn live_registry_counts_injected_faults() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        let kernel = mix_kernel(Dims::new(24, 24), set);
        let reg = Arc::new(lddp_trace::live::LiveRegistry::new());
        let engine = ParallelEngine::new(3).with_live(Arc::clone(&reg));
        let inj = TestInjector {
            panic_worker: Some((1, 5)),
            bulk_fail_wave: None,
        };
        let (_, steps) = solve_degrading(&engine, &kernel, &inj).unwrap();
        assert_eq!(steps, vec![DegradeStep::ParallelToSequential]);
        let text = reg.to_prometheus();
        assert!(
            text.contains("lddp_chaos_injected_total{site=\"worker_panic\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn no_faults_injector_changes_nothing() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::N]);
        let kernel = mix_kernel(Dims::new(16, 16), set);
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        let engine = ParallelEngine::new(3);
        let (grid, steps) = solve_degrading(&engine, &kernel, &lddp_chaos::NoFaults).unwrap();
        assert_eq!(grid.to_row_major(), oracle);
        assert!(steps.is_empty());
    }

    /// Score used by rolling arg-best tests (and analogous to the
    /// Smith–Waterman endpoint scan).
    fn cell_score(c: &u64) -> i64 {
        (*c % 100_003) as i64
    }

    #[test]
    fn rolling_matches_full_table_for_all_tiers_and_threads() {
        for (rows, cols) in [
            (1, 1),
            (1, 17),
            (17, 1),
            (2, 2),
            (13, 29),
            (29, 13),
            (31, 31),
        ] {
            let kernel = SimdMix(BulkMix {
                dims: Dims::new(rows, cols),
                set: anti_diag_set(),
            });
            let grid = solve_row_major(&kernel).unwrap();
            let want_corner = grid.get(rows - 1, cols - 1);
            let mut want_best = i64::MIN;
            for i in 0..rows {
                for j in 0..cols {
                    want_best = want_best.max(cell_score(&grid.get(i, j)));
                }
            }
            for threads in [1, 2, 3, 5] {
                for tier in [
                    None,
                    Some(ExecTier::Scalar),
                    Some(ExecTier::Bulk),
                    Some(ExecTier::Simd),
                ] {
                    let engine = ParallelEngine::new(threads).with_tier(tier);
                    let r = engine.solve_rolling(&kernel, Some(cell_score)).unwrap();
                    let label = format!("{rows}x{cols} threads={threads} tier={tier:?}");
                    assert_eq!(r.corner, Some(want_corner), "corner {label}");
                    let (bi, bj, bc) = r.best.expect("best captured");
                    assert_eq!(bc, grid.get(bi, bj), "best cell mismatch {label}");
                    assert_eq!(cell_score(&bc), want_best, "best score {label}");
                    assert_eq!(r.waves, rows + cols - 1, "{label}");
                    assert_eq!(r.peak_bytes, 3 * rows.min(cols) * 8, "{label}");
                }
            }
        }
    }

    #[test]
    fn rolling_stream_emits_ordered_bands_and_matches_plain_rolling() {
        for (rows, cols) in [(1, 1), (2, 2), (13, 29), (31, 31), (40, 9)] {
            let kernel = SimdMix(BulkMix {
                dims: Dims::new(rows, cols),
                set: anti_diag_set(),
            });
            for threads in [1, 2, 4] {
                for bands in [1, 4, 100] {
                    let engine = ParallelEngine::new(threads);
                    let want = engine.solve_rolling(&kernel, Some(cell_score)).unwrap();
                    let events = std::sync::Mutex::new(Vec::new());
                    let hook = StreamHook {
                        bands,
                        score_of: |c: &u64| *c as f64,
                        emit: &|ev| {
                            events.lock().unwrap().push(ev);
                            true
                        },
                    };
                    let got =
                        solve_rolling_stream(&engine, &kernel, Some(cell_score), &hook).unwrap();
                    let label = format!("{rows}x{cols} threads={threads} bands={bands}");
                    assert_eq!(got.corner, want.corner, "{label}");
                    assert_eq!(got.best, want.best, "{label}");
                    let events = events.into_inner().unwrap();
                    let waves = rows + cols - 1;
                    assert!(!events.is_empty(), "{label}");
                    assert!(events.len() <= bands.min(waves), "{label}");
                    let mut cells = 0u64;
                    for (k, ev) in events.iter().enumerate() {
                        assert_eq!(ev.band, k, "band order {label}");
                        assert_eq!(ev.bands, events.len(), "schedule size {label}");
                        assert!(ev.cells_done > cells, "cells monotone {label}");
                        cells = ev.cells_done;
                        assert!(ev.rows_completed <= rows, "{label}");
                    }
                    let last = events.last().unwrap();
                    assert_eq!(last.cells_done, (rows * cols) as u64, "{label}");
                    assert_eq!(last.cells_total, (rows * cols) as u64, "{label}");
                    assert_eq!(last.rows_completed, rows, "{label}");
                    assert_eq!(last.wave_hi, waves - 1, "{label}");
                }
            }
        }
    }

    #[test]
    fn rolling_stream_halts_emission_when_hook_declines() {
        let kernel = SimdMix(BulkMix {
            dims: Dims::new(24, 24),
            set: anti_diag_set(),
        });
        let engine = ParallelEngine::new(3);
        let want = engine.solve_rolling(&kernel, Some(cell_score)).unwrap();
        let seen = std::sync::atomic::AtomicUsize::new(0);
        let hook = StreamHook {
            bands: 8,
            score_of: |c: &u64| *c as f64,
            emit: &|_| seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < 2,
        };
        // The solve still finishes exactly even after the consumer bails.
        let got = solve_rolling_stream(&engine, &kernel, Some(cell_score), &hook).unwrap();
        assert_eq!(got.corner, want.corner);
        assert_eq!(got.best, want.best);
        assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn rolling_rejects_non_antidiagonal_sets() {
        let kernel = mix_kernel(Dims::new(8, 8), ContributingSet::new(&[RepCell::W]));
        let engine = ParallelEngine::new(2);
        assert!(matches!(
            engine.solve_rolling(&kernel, None),
            Err(Error::PlanMismatch { .. })
        ));
    }

    #[test]
    fn rolling_degrades_under_injection_and_stays_exact() {
        let kernel = SimdMix(BulkMix {
            dims: Dims::new(25, 21),
            set: anti_diag_set(),
        });
        let grid = solve_row_major(&kernel).unwrap();
        let want = grid.get(24, 20);

        // A bulk-path fault degrades to the scalar tier.
        let engine = ParallelEngine::new(3);
        let inj = TestInjector {
            panic_worker: None,
            bulk_fail_wave: Some(3),
        };
        let (r, steps) = solve_rolling_degrading(&engine, &kernel, Some(cell_score), &inj).unwrap();
        assert_eq!(r.corner, Some(want));
        assert!(r.best.is_some());
        assert_eq!(steps, vec![DegradeStep::BulkToScalar]);

        // Persistent worker panics fall back to the sequential walk.
        struct AlwaysPanic;
        impl lddp_chaos::FaultInjector for AlwaysPanic {
            fn active(&self) -> bool {
                true
            }
            fn worker_panic(&self, _worker: usize, wave: usize) -> bool {
                wave == 0
            }
        }
        let (r, steps) = solve_rolling_degrading(&engine, &kernel, None, &AlwaysPanic).unwrap();
        assert_eq!(r.corner, Some(want));
        assert_eq!(
            steps,
            vec![DegradeStep::BulkToScalar, DegradeStep::ParallelToSequential]
        );
        // The panicking rungs left the engine healthy.
        assert_eq!(engine.pool_dead_workers(), 0);
        assert_eq!(
            engine.solve_rolling(&kernel, None).unwrap().corner,
            Some(want)
        );
    }

    #[test]
    fn single_worker_solves_never_start_the_pool() {
        let kernel = BulkMix {
            dims: Dims::new(24, 20),
            set: anti_diag_set(),
        };
        let oracle = solve_row_major(&kernel).unwrap().to_row_major();
        // threads = 1 engine: grid and rolling solves both stay inline.
        let engine = ParallelEngine::new(1);
        assert_eq!(engine.solve(&kernel).unwrap().to_row_major(), oracle);
        engine.solve_rolling(&kernel, None).unwrap();
        assert!(!engine.pool_started(), "1-worker plan spun up the pool");
        // A wider engine clamped to one active worker also stays inline…
        let wide = ParallelEngine::new(4);
        solve_active(&wide, &kernel, 1).unwrap();
        assert!(!wide.pool_started(), "active=1 plan spun up the pool");
        // …and only a genuinely multi-worker plan pays for the pool.
        wide.solve(&kernel).unwrap();
        assert!(wide.pool_started());
    }

    #[test]
    fn live_registry_records_table_bytes_by_memory_mode() {
        let kernel = BulkMix {
            dims: Dims::new(40, 30),
            set: anti_diag_set(),
        };
        let reg = Arc::new(lddp_trace::live::LiveRegistry::new());
        let engine = ParallelEngine::new(2).with_live(Arc::clone(&reg));
        engine.solve(&kernel).unwrap();
        engine.solve_rolling(&kernel, None).unwrap();
        let text = reg.to_prometheus();
        let series = lddp_trace::live::parse_prometheus(&text);
        let get = |name: &str| {
            series
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing series {name} in:\n{text}"))
        };
        let full = get("lddp_engine_table_bytes{memory_mode=\"full\"}");
        let rolling_bytes = get("lddp_engine_table_bytes{memory_mode=\"rolling\"}");
        assert_eq!(full, (40 * 30 * 8) as f64);
        assert_eq!(rolling_bytes, (3 * 30 * 8) as f64);
        assert!(rolling_bytes < full);
    }
}
