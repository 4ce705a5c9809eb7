//! Dynamic load balancing — the online alternative to the §V-A offline
//! sweeps, in the spirit of the work-distribution heuristics of Cuenca
//! et al. (the paper's reference \[10\]).
//!
//! Instead of tuning `t_share` with full pilot runs, the balancer
//! observes each shared wave's CPU and GPU spans and nudges the next
//! wave's band width toward the equalizing split:
//!
//! ```text
//! band[w+1] = clamp(band[w] + gain · (gpu_span − cpu_span) / cell_time_cpu)
//! ```
//!
//! One pass, no sweeps. The resulting per-wave band vector forms a
//! [`VariablePlan`], executed by the ordinary generic executor — so the
//! balanced run is bit-identical in results and fully auditable.

use crate::exec::{access_class, cpu_read_penalty, gpu_read_penalty, ExecOptions, Report};
use crate::platform::Platform;
use lddp_core::adaptive::VariablePlan;
use lddp_core::grid::LayoutKind;
use lddp_core::kernel::Kernel;
use lddp_core::pattern::{Pattern, ProfileShape};
use lddp_core::schedule::{band_len, PhaseKind};
use lddp_core::Result;

/// Balancer configuration.
#[derive(Debug, Clone)]
pub struct BalanceConfig {
    /// Low-work waves handed to the CPU alone (as in the static plan).
    pub t_switch: usize,
    /// Starting band width for the first shared wave.
    pub initial_band: usize,
    /// Fraction of the estimated imbalance corrected per wave (0..=1];
    /// lower is smoother, higher is twitchier.
    pub gain: f64,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig {
            t_switch: 0,
            initial_band: 0,
            gain: 0.5,
        }
    }
}

/// Builds a balanced [`VariablePlan`] for `kernel` on `platform` by
/// simulating the span feedback loop, then (optionally) runs it.
///
/// Returns the plan together with the executor's report.
pub fn run_balanced<K: Kernel>(
    kernel: &K,
    pattern: Pattern,
    platform: &Platform,
    opts: &ExecOptions,
    config: &BalanceConfig,
) -> Result<(VariablePlan, Report<K::Cell>)> {
    let dims = kernel.dims();
    let set = kernel.contributing_set();
    let num_waves = pattern.num_waves(dims.rows, dims.cols);
    let layout = opts
        .layout
        .unwrap_or_else(|| LayoutKind::preferred_for(pattern));
    let class = access_class(pattern, layout);
    let rp_cpu = cpu_read_penalty(class);
    let rp_gpu = gpu_read_penalty(class, platform.gpu.uncoalesced_penalty);
    let ops = kernel.cost_ops();
    let bpc = std::mem::size_of::<K::Cell>() * (set.len() + 1);
    let cell_cpu_s =
        platform.cpu.cell_time_s(ops, bpc, rp_cpu) / platform.cpu.effective_parallelism();

    let t_switch = match pattern.profile_shape() {
        ProfileShape::Constant => 0,
        ProfileShape::RampUpDown => config.t_switch.min(num_waves / 2),
        ProfileShape::Decreasing => config.t_switch.min(num_waves),
    };

    // Feedback loop over the model: observe spans for the current band,
    // correct toward balance.
    let mut bands = vec![0usize; num_waves];
    let mut band = config.initial_band.min(dims.cols) as f64;
    let phase_of = |w: usize| -> PhaseKind {
        match pattern.profile_shape() {
            ProfileShape::RampUpDown => {
                if w < t_switch || w >= num_waves - t_switch {
                    PhaseKind::CpuOnly
                } else {
                    PhaseKind::Shared
                }
            }
            ProfileShape::Constant => PhaseKind::Shared,
            ProfileShape::Decreasing => {
                if w >= num_waves - t_switch {
                    PhaseKind::CpuOnly
                } else {
                    PhaseKind::Shared
                }
            }
        }
    };
    for (w, band_slot) in bands.iter_mut().enumerate() {
        if phase_of(w) == PhaseKind::CpuOnly {
            *band_slot = 0;
            continue;
        }
        let b = (band.round() as usize).min(dims.cols);
        *band_slot = b;
        let len = pattern.wave_len(dims.rows, dims.cols, w);
        let cpu_cells = band_len(pattern, dims, w, b);
        let gpu_cells = len - cpu_cells;
        let cpu_s = platform.cpu.wave_time_s(cpu_cells, ops, bpc, rp_cpu);
        let gpu_s = platform.gpu.wave_time_s(gpu_cells, ops, bpc, rp_gpu);
        // Convert the span gap into a column correction.
        let gap = gpu_s - cpu_s;
        let correction = config.gain * gap / cell_cpu_s.max(f64::MIN_POSITIVE);
        band = (band + correction).clamp(0.0, dims.cols as f64);
    }

    let plan = VariablePlan::new(pattern, set, dims, t_switch, bands)?;
    let report = crate::exec::run_hetero(kernel, &plan, platform, opts)?;
    Ok((plan, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::hetero_high;
    use lddp_core::cell::{ContributingSet, RepCell};
    use lddp_core::kernel::{ClosureKernel, Neighbors};
    use lddp_core::schedule::{Plan, ScheduleParams};
    use lddp_core::seq::solve_row_major;
    use lddp_core::wavefront::Dims;

    fn kernel(dims: Dims, set: ContributingSet) -> impl Kernel<Cell = u64> {
        ClosureKernel::new(dims, set, move |i, j, n: &Neighbors<u64>| {
            let mut acc = ((i * 13 + j * 7) as u64) | 1;
            for c in RepCell::ALL {
                if let Some(v) = n.get(c) {
                    acc = acc.wrapping_mul(31).wrapping_add(*v);
                }
            }
            acc
        })
    }

    #[test]
    fn balanced_run_is_functionally_correct() {
        let set = ContributingSet::new(&[RepCell::Nw, RepCell::N]);
        let dims = Dims::new(64, 96);
        let k = kernel(dims, set);
        let oracle = solve_row_major(&k).unwrap().to_row_major();
        let (plan, report) = run_balanced(
            &k,
            Pattern::Horizontal,
            &hetero_high(),
            &ExecOptions::functional(),
            &BalanceConfig::default(),
        )
        .unwrap();
        assert_eq!(report.grid.unwrap().to_row_major(), oracle);
        assert_eq!(plan.bands().len(), 64);
    }

    #[test]
    fn balancer_converges_to_a_stable_band() {
        // Wide uniform waves: the equalizing band is unique; after the
        // transient, consecutive bands should settle.
        let set = ContributingSet::new(&[RepCell::Nw, RepCell::N]);
        let dims = Dims::new(256, 4096);
        let k = kernel(dims, set);
        let (plan, _) = run_balanced(
            &k,
            Pattern::Horizontal,
            &hetero_high(),
            &ExecOptions::default(),
            &BalanceConfig::default(),
        )
        .unwrap();
        let tail = &plan.bands()[200..];
        let min = tail.iter().min().unwrap();
        let max = tail.iter().max().unwrap();
        assert!(max - min <= 8, "band still oscillating: {min}..{max}");
        assert!(*min > 0, "balance must give the CPU work");
        assert!(*max < 4096, "balance must give the GPU work");
    }

    #[test]
    fn balanced_time_is_close_to_the_tuned_static_plan() {
        let set = ContributingSet::new(&[RepCell::Nw, RepCell::N]);
        let dims = Dims::new(512, 2048);
        let k = kernel(dims, set);
        let platform = hetero_high();
        let opts = ExecOptions::default();
        // Static optimum via a fine sweep.
        let mut best_static = f64::INFINITY;
        for ts in (0..=2048).step_by(64) {
            let plan =
                Plan::new(Pattern::Horizontal, set, dims, ScheduleParams::new(0, ts)).unwrap();
            best_static = best_static.min(
                crate::exec::run_hetero(&k, &plan, &platform, &opts)
                    .unwrap()
                    .total_s,
            );
        }
        let (_, report) = run_balanced(
            &k,
            Pattern::Horizontal,
            &platform,
            &opts,
            &BalanceConfig::default(),
        )
        .unwrap();
        assert!(
            report.total_s <= best_static * 1.10,
            "one-pass balancing {:.4} ms must be within 10% of the tuned {:.4} ms",
            report.total_s * 1e3,
            best_static * 1e3
        );
    }

    #[test]
    fn ramp_patterns_keep_their_cpu_only_phases() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let dims = Dims::new(64, 64);
        let k = kernel(dims, set);
        let config = BalanceConfig {
            t_switch: 10,
            initial_band: 8,
            gain: 0.5,
        };
        let (plan, report) = run_balanced(
            &k,
            Pattern::AntiDiagonal,
            &hetero_high(),
            &ExecOptions::functional(),
            &config,
        )
        .unwrap();
        let oracle = solve_row_major(&k).unwrap().to_row_major();
        assert_eq!(report.grid.unwrap().to_row_major(), oracle);
        // First and last t_switch waves have zero band (CPU-only).
        assert!(plan.bands()[..10].iter().all(|&b| b == 0));
        assert!(plan.bands()[127 - 9..].iter().all(|&b| b == 0));
    }
}
