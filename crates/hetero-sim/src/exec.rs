//! Executors: run an LDDP kernel on the modelled platform.
//!
//! Three entry points mirror the paper's three measured configurations:
//!
//! - [`run_cpu`] — "CPU parallel": every wave on the multicore model;
//! - [`run_gpu`] — "GPU": one kernel per wave on the device model;
//! - [`run_hetero`] — "Framework": a
//!   [`Plan`](lddp_core::schedule::Plan)'s phases, band partition and
//!   boundary transfers over both models.
//!
//! Execution is *functional* when requested: cell values are actually
//! computed, with the host and device holding **separate grids** that
//! only communicate through the plan's transfer lists. A missing transfer
//! therefore produces wrong values (caught against the sequential
//! oracle), not silently correct ones — this is what validates the
//! scheduling machinery. Time never comes from the wall clock: it is
//! accumulated from the [`CpuModel`](crate::cpu::CpuModel),
//! [`GpuModel`](crate::gpu::GpuModel) and
//! [`LinkModel`](crate::link::LinkModel), so results are deterministic
//! and platform presets are comparable on any host.

use crate::link::{HostMemory, LinkModel};
use crate::platform::Platform;
use lddp_core::grid::{Grid, LayoutKind};
use lddp_core::kernel::{Kernel, Neighbors};
use lddp_core::pattern::Pattern;
use lddp_core::schedule::{PhaseKind, TransferNeed, WaveSchedule};
use lddp_core::wavefront::{self, Dims};
use lddp_core::{Error, Result};

/// How table memory accesses relate to the warp/loop order — feeds the
/// read-penalty factors of the device models (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Same-wave cells are adjacent in memory; neighbour reads fall in a
    /// handful of contiguous runs.
    Coalesced,
    /// Wave storage is contiguous but neighbour reads split across
    /// discontinuous segments (the two arms of an L-shell).
    Partial,
    /// Same-wave cells are scattered (e.g. row-major storage walked
    /// anti-diagonally).
    Strided,
}

/// Classifies the access behaviour of executing `pattern` waves over a
/// table stored with `layout`.
pub fn access_class(pattern: Pattern, layout: LayoutKind) -> AccessClass {
    if layout.is_coalesced_for(pattern) {
        match pattern {
            // The L-shell's two arms make the previous-shell gather
            // discontiguous even in shell-major storage.
            Pattern::InvertedL | Pattern::MirroredInvertedL => AccessClass::Partial,
            _ => AccessClass::Coalesced,
        }
    } else {
        AccessClass::Strided
    }
}

/// Read-penalty multiplier for the GPU memory span.
pub fn gpu_read_penalty(class: AccessClass, uncoalesced_penalty: f64) -> f64 {
    match class {
        AccessClass::Coalesced => 1.0,
        // Roughly half the transactions split.
        AccessClass::Partial => 1.0 + (uncoalesced_penalty - 1.0) * 0.4,
        AccessClass::Strided => uncoalesced_penalty,
    }
}

/// Read-penalty multiplier for the CPU memory term (caches absorb most
/// of the irregularity; prefetchers dislike it anyway).
pub fn cpu_read_penalty(class: AccessClass) -> f64 {
    match class {
        AccessClass::Coalesced => 1.0,
        AccessClass::Partial => 1.3,
        AccessClass::Strided => 1.6,
    }
}

/// Execution options shared by all entry points.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Compute cell values (and return the grid) rather than only
    /// accounting time.
    pub functional: bool,
    /// Record one [`WaveRecord`] per wave.
    pub record_timeline: bool,
    /// Overlap one-way boundary copies with compute via asynchronous
    /// streams (§IV-C case 1). Disable for the ablation benchmark.
    pub pipeline: bool,
    /// Table layout; defaults to the coalescing-friendly layout for the
    /// executed pattern.
    pub layout: Option<LayoutKind>,
    /// Bytes of problem input uploaded to the device before the first
    /// wave in which the GPU participates (e.g. the cost matrix of the
    /// checkerboard problem or the dithered image).
    pub setup_to_gpu_bytes: usize,
    /// Bytes of results downloaded after the last wave.
    pub final_from_gpu_bytes: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            functional: false,
            record_timeline: false,
            pipeline: true,
            layout: None,
            setup_to_gpu_bytes: 0,
            final_from_gpu_bytes: 0,
        }
    }
}

impl ExecOptions {
    /// Functional execution returning the computed grid.
    pub fn functional() -> Self {
        ExecOptions {
            functional: true,
            ..Default::default()
        }
    }
}

/// Per-wave timeline entry.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveRecord {
    /// Wave index.
    pub wave: usize,
    /// Cells computed on the CPU.
    pub cpu_cells: usize,
    /// Cells computed on the GPU.
    pub gpu_cells: usize,
    /// CPU compute span, seconds.
    pub cpu_s: f64,
    /// GPU compute span (including launch), seconds.
    pub gpu_s: f64,
    /// Boundary copy time, seconds (0 when hidden behind compute).
    pub copy_s: f64,
    /// Wall span of the wave, seconds.
    pub span_s: f64,
    /// Bytes moved CPU→GPU this wave.
    pub bytes_to_gpu: usize,
    /// Bytes moved GPU→CPU this wave.
    pub bytes_to_cpu: usize,
}

/// Aggregate cost breakdown of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Total CPU busy time, seconds.
    pub cpu_busy_s: f64,
    /// Total GPU busy time (launches included), seconds.
    pub gpu_busy_s: f64,
    /// Total boundary-copy time on the critical path, seconds.
    pub copy_s: f64,
    /// Setup (input upload) + teardown (result download) time, seconds.
    pub setup_s: f64,
    /// Total bytes moved CPU→GPU (boundary traffic only).
    pub bytes_to_gpu: usize,
    /// Total bytes moved GPU→CPU (boundary traffic only).
    pub bytes_to_cpu: usize,
    /// Number of waves executed.
    pub waves: usize,
}

/// Result of a simulated run.
#[derive(Debug, Clone)]
pub struct Report<T> {
    /// End-to-end virtual time, seconds.
    pub total_s: f64,
    /// Cost breakdown.
    pub breakdown: Breakdown,
    /// The computed table (functional mode only).
    pub grid: Option<Grid<T>>,
    /// Per-wave records (when requested).
    pub timeline: Vec<WaveRecord>,
}

/// Bytes of table traffic per cell: one read per contributing-set member
/// plus the write.
fn bytes_per_cell<K: Kernel>(kernel: &K) -> usize {
    std::mem::size_of::<K::Cell>() * (kernel.contributing_set().len() + 1)
}

/// Resolves the executed pattern: the canonical classification of the
/// kernel's contributing set.
fn canonical_pattern<K: Kernel>(kernel: &K) -> Result<Pattern> {
    lddp_core::pattern::classify(kernel.contributing_set())
        .map(Pattern::canonical)
        .ok_or(Error::EmptyContributingSet)
}

/// Runs the kernel entirely on the platform's multicore CPU, wave by
/// wave ("CPU parallel" in the figures).
pub fn run_cpu<K: Kernel>(
    kernel: &K,
    platform: &Platform,
    opts: &ExecOptions,
) -> Result<Report<K::Cell>> {
    run_cpu_as(kernel, canonical_pattern(kernel)?, platform, opts)
}

/// Like [`run_cpu`] with an explicit (compatible) execution pattern —
/// used by the Fig 8 inverted-L vs horizontal comparison.
pub fn run_cpu_as<K: Kernel>(
    kernel: &K,
    pattern: Pattern,
    platform: &Platform,
    opts: &ExecOptions,
) -> Result<Report<K::Cell>> {
    if !lddp_core::schedule::compatible(pattern, kernel.contributing_set()) {
        return Err(Error::PlanMismatch {
            expected: format!("{pattern}"),
            found: format!("{}", kernel.contributing_set()),
        });
    }
    let dims = kernel.dims();
    let layout = opts
        .layout
        .unwrap_or_else(|| LayoutKind::preferred_for(pattern));
    let penalty = cpu_read_penalty(access_class(pattern, layout));
    let ops = kernel.cost_ops();
    let bpc = bytes_per_cell(kernel);
    let mut breakdown = Breakdown::default();
    let mut timeline = Vec::new();
    let mut total = 0.0;
    for w in 0..pattern.num_waves(dims.rows, dims.cols) {
        let cells = pattern.wave_len(dims.rows, dims.cols, w);
        let t = platform.cpu.wave_time_s(cells, ops, bpc, penalty);
        total += t;
        breakdown.cpu_busy_s += t;
        breakdown.waves += 1;
        if opts.record_timeline {
            timeline.push(WaveRecord {
                wave: w,
                cpu_cells: cells,
                gpu_cells: 0,
                cpu_s: t,
                gpu_s: 0.0,
                copy_s: 0.0,
                span_s: t,
                bytes_to_gpu: 0,
                bytes_to_cpu: 0,
            });
        }
    }
    let grid = if opts.functional {
        Some(lddp_core::seq::solve_wavefront_as(kernel, pattern, layout)?)
    } else {
        None
    };
    Ok(Report {
        total_s: total,
        breakdown,
        grid,
        timeline,
    })
}

/// Runs the kernel entirely on the platform's GPU, one kernel launch per
/// wave ("GPU" in the figures).
pub fn run_gpu<K: Kernel>(
    kernel: &K,
    platform: &Platform,
    opts: &ExecOptions,
) -> Result<Report<K::Cell>> {
    run_gpu_as(kernel, canonical_pattern(kernel)?, platform, opts)
}

/// Like [`run_gpu`] with an explicit (compatible) execution pattern.
pub fn run_gpu_as<K: Kernel>(
    kernel: &K,
    pattern: Pattern,
    platform: &Platform,
    opts: &ExecOptions,
) -> Result<Report<K::Cell>> {
    if !lddp_core::schedule::compatible(pattern, kernel.contributing_set()) {
        return Err(Error::PlanMismatch {
            expected: format!("{pattern}"),
            found: format!("{}", kernel.contributing_set()),
        });
    }
    let dims = kernel.dims();
    let layout = opts
        .layout
        .unwrap_or_else(|| LayoutKind::preferred_for(pattern));
    let penalty = gpu_read_penalty(
        access_class(pattern, layout),
        platform.gpu.uncoalesced_penalty,
    );
    let ops = kernel.cost_ops();
    let bpc = bytes_per_cell(kernel);
    let mut breakdown = Breakdown::default();
    let mut timeline = Vec::new();
    let mut total = 0.0;
    breakdown.setup_s = platform
        .link
        .transfer_time_s(opts.setup_to_gpu_bytes, HostMemory::Pageable)
        + platform
            .link
            .transfer_time_s(opts.final_from_gpu_bytes, HostMemory::Pageable);
    total += breakdown.setup_s;
    for w in 0..pattern.num_waves(dims.rows, dims.cols) {
        let cells = pattern.wave_len(dims.rows, dims.cols, w);
        let t = platform.gpu.wave_time_s(cells, ops, bpc, penalty);
        total += t;
        breakdown.gpu_busy_s += t;
        breakdown.waves += 1;
        if opts.record_timeline {
            timeline.push(WaveRecord {
                wave: w,
                cpu_cells: 0,
                gpu_cells: cells,
                cpu_s: 0.0,
                gpu_s: t,
                copy_s: 0.0,
                span_s: t,
                bytes_to_gpu: 0,
                bytes_to_cpu: 0,
            });
        }
    }
    let grid = if opts.functional {
        Some(lddp_core::seq::solve_wavefront_as(kernel, pattern, layout)?)
    } else {
        None
    };
    Ok(Report {
        total_s: total,
        breakdown,
        grid,
        timeline,
    })
}

/// Runs the kernel heterogeneously according to `plan` ("Framework" in
/// the figures).
///
/// In functional mode the host and device keep *separate* grids that
/// exchange values only through the plan's per-wave transfer lists; the
/// merged result is returned.
pub fn run_hetero<K: Kernel, S: WaveSchedule>(
    kernel: &K,
    plan: &S,
    platform: &Platform,
    opts: &ExecOptions,
) -> Result<Report<K::Cell>> {
    run_hetero_inner(kernel, plan, platform, opts, None)
}

/// Like [`run_hetero`] with a [`FaultInjector`](lddp_chaos::FaultInjector)
/// consulted on every wave in which the device participates (it computes
/// cells or a boundary transfer crosses the link). An injected fault
/// aborts the run with [`Error::DeviceFault`] — device-side table state
/// is considered lost from that wave on, which is what the CPU-only
/// degradation rung recovers from.
pub fn run_hetero_injected<K: Kernel, S: WaveSchedule>(
    kernel: &K,
    plan: &S,
    platform: &Platform,
    opts: &ExecOptions,
    injector: &dyn lddp_chaos::FaultInjector,
) -> Result<Report<K::Cell>> {
    run_hetero_inner(kernel, plan, platform, opts, Some(injector))
}

fn run_hetero_inner<K: Kernel, S: WaveSchedule>(
    kernel: &K,
    plan: &S,
    platform: &Platform,
    opts: &ExecOptions,
    injector: Option<&dyn lddp_chaos::FaultInjector>,
) -> Result<Report<K::Cell>> {
    let dims = kernel.dims();
    if plan.dims() != dims || plan.set() != kernel.contributing_set() {
        return Err(Error::PlanMismatch {
            expected: format!("{:?} over {}", plan.dims(), plan.set()),
            found: format!("{:?} over {}", dims, kernel.contributing_set()),
        });
    }
    let pattern = plan.pattern();
    let layout = opts
        .layout
        .unwrap_or_else(|| LayoutKind::preferred_for(pattern));
    let class = access_class(pattern, layout);
    let rp_cpu = cpu_read_penalty(class);
    let rp_gpu = gpu_read_penalty(class, platform.gpu.uncoalesced_penalty);
    let ops = kernel.cost_ops();
    let bpc = bytes_per_cell(kernel);
    let cell_size = std::mem::size_of::<K::Cell>();

    let mut breakdown = Breakdown::default();
    let mut timeline = Vec::new();
    let mut total = 0.0;

    let gpu_participates = (0..plan.num_waves())
        .any(|w| plan.phase_of(w) == PhaseKind::Shared && plan.assignment(w).gpu_len() > 0);
    if gpu_participates {
        breakdown.setup_s = platform
            .link
            .transfer_time_s(opts.setup_to_gpu_bytes, HostMemory::Pageable)
            + platform
                .link
                .transfer_time_s(opts.final_from_gpu_bytes, HostMemory::Pageable);
        total += breakdown.setup_s;
    }

    // Functional state: disjoint host/device grids.
    let mut host_grid: Option<Grid<K::Cell>> = None;
    let mut dev_grid: Option<Grid<K::Cell>> = None;
    if opts.functional {
        host_grid = Some(Grid::new(layout, dims));
        dev_grid = Some(Grid::new(layout, dims));
    }

    for w in 0..plan.num_waves() {
        let assign = plan.assignment(w);
        let transfers = plan.transfers(w);
        let bytes_to_gpu = transfers.to_gpu.len() * cell_size;
        let bytes_to_cpu = transfers.to_cpu.len() * cell_size;

        if let Some(inj) = injector {
            let device_involved = assign.gpu_len() > 0 || bytes_to_gpu > 0 || bytes_to_cpu > 0;
            if device_involved && inj.device_fault(w) {
                return Err(Error::DeviceFault { wave: w });
            }
        }

        if let (Some(host), Some(dev)) = (host_grid.as_mut(), dev_grid.as_mut()) {
            // Move boundary values between the grids, then compute each
            // side against its own grid only.
            for &(i, j) in &transfers.to_gpu {
                let v = host.get(i, j);
                dev.set(i, j, v);
            }
            for &(i, j) in &transfers.to_cpu {
                let v = dev.get(i, j);
                host.set(i, j, v);
            }
            for pos in assign.cpu.clone() {
                let (i, j) = wavefront::cell_at(pattern, dims, w, pos);
                let nbrs = gather(kernel, host, i, j, dims);
                let v = kernel.compute(i, j, &nbrs);
                host.set(i, j, v);
            }
            for pos in assign.gpu.clone() {
                let (i, j) = wavefront::cell_at(pattern, dims, w, pos);
                let nbrs = gather(kernel, dev, i, j, dims);
                let v = kernel.compute(i, j, &nbrs);
                dev.set(i, j, v);
            }
        }

        let cpu_s = platform.cpu.wave_time_s(assign.cpu_len(), ops, bpc, rp_cpu);
        let gpu_s = platform.gpu.wave_time_s(assign.gpu_len(), ops, bpc, rp_gpu);
        let one_direction = (bytes_to_gpu == 0) != (bytes_to_cpu == 0);
        let (copy_s, span_s) = if bytes_to_gpu == 0 && bytes_to_cpu == 0 {
            (0.0, cpu_s.max(gpu_s))
        } else if opts.pipeline && one_direction && plan.transfer_need() != TransferNeed::TwoWay {
            // §IV-C case 1: asynchronous stream overlaps the copy with
            // both compute engines; pinned staging buffers.
            let copy = platform
                .link
                .transfer_time_s(bytes_to_gpu + bytes_to_cpu, HostMemory::Pinned);
            (copy, LinkModel::pipelined_span_s(cpu_s, gpu_s, copy))
        } else {
            // §IV-C case 2: small pinned copies on the critical path.
            let copy = platform
                .link
                .transfer_time_s(bytes_to_gpu, HostMemory::Pinned)
                + platform
                    .link
                    .transfer_time_s(bytes_to_cpu, HostMemory::Pinned);
            (copy, LinkModel::serialized_span_s(cpu_s, gpu_s, copy))
        };

        total += span_s;
        breakdown.cpu_busy_s += cpu_s;
        breakdown.gpu_busy_s += gpu_s;
        breakdown.copy_s += copy_s;
        breakdown.bytes_to_gpu += bytes_to_gpu;
        breakdown.bytes_to_cpu += bytes_to_cpu;
        breakdown.waves += 1;
        if opts.record_timeline {
            timeline.push(WaveRecord {
                wave: w,
                cpu_cells: assign.cpu_len(),
                gpu_cells: assign.gpu_len(),
                cpu_s,
                gpu_s,
                copy_s,
                span_s,
                bytes_to_gpu,
                bytes_to_cpu,
            });
        }
    }

    // Merge: the host view holds CPU-owned values; fill in GPU-owned ones
    // (the paper's final device→host result copy). Ownership comes from
    // the schedule's assignments, so this works for variable bands too.
    let grid = match (host_grid, dev_grid) {
        (Some(mut host), Some(dev)) => {
            for w in 0..plan.num_waves() {
                let assign = plan.assignment(w);
                for pos in assign.gpu.clone() {
                    let (i, j) = wavefront::cell_at(pattern, dims, w, pos);
                    let v = dev.get(i, j);
                    host.set(i, j, v);
                }
            }
            Some(host)
        }
        _ => None,
    };

    Ok(Report {
        total_s: total,
        breakdown,
        grid,
        timeline,
    })
}

/// Gathers declared in-bounds neighbours from one device's grid.
fn gather<K: Kernel>(
    kernel: &K,
    grid: &Grid<K::Cell>,
    i: usize,
    j: usize,
    dims: Dims,
) -> Neighbors<K::Cell> {
    let mut nbrs = Neighbors::empty();
    for dep in kernel.contributing_set().iter() {
        if let Some((si, sj)) = dep.source(i, j, dims.rows, dims.cols) {
            nbrs.set(dep, grid.get(si, sj));
        }
    }
    nbrs
}
