//! Per-wave-variable schedules — the substrate for *dynamic load
//! balancing*, the heuristic alternative (after Cuenca et al., the
//! paper's reference \[10\]) to the offline `t_share` sweep of §V-A.
//!
//! A [`VariablePlan`] is a two-device column-band schedule whose band
//! width may differ per wave. Ownership is decided by the band of the
//! *cell's own wave* (who computed it), so transfer lists remain exact
//! even while the boundary moves: when the band grows, the newly-CPU
//! columns' dependencies were GPU-computed in earlier waves and appear
//! in `to_cpu`, and symmetrically when it shrinks.

use crate::cell::ContributingSet;
use crate::error::{Error, Result};
use crate::pattern::{Pattern, ProfileShape};
use crate::schedule::{
    band_len, compatible, max_wave_delta, transfer_need, Device, PhaseKind, TransferNeed,
    WaveAssignment, WaveSchedule, WaveTransfers,
};
use crate::wavefront::{self, Dims};

/// A two-device schedule with a per-wave CPU band width.
#[derive(Debug, Clone)]
pub struct VariablePlan {
    pattern: Pattern,
    set: ContributingSet,
    dims: Dims,
    t_switch: usize,
    /// CPU band width (in columns) per wave; `bands[w]` is ignored for
    /// CPU-only waves.
    bands: Vec<usize>,
    transfer: TransferNeed,
    num_waves: usize,
}

impl VariablePlan {
    /// Builds a variable-band plan. `bands` must hold one entry per wave
    /// (each ≤ `dims.cols`); `t_switch` follows the same phase rules as
    /// [`crate::schedule::Plan`].
    pub fn new(
        pattern: Pattern,
        set: ContributingSet,
        dims: Dims,
        t_switch: usize,
        bands: Vec<usize>,
    ) -> Result<VariablePlan> {
        if set.is_empty() {
            return Err(Error::EmptyContributingSet);
        }
        if !pattern.is_canonical() {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: "not a canonical execution pattern".into(),
            });
        }
        if !compatible(pattern, set) {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: format!("contributing set {set} is incompatible with this pattern"),
            });
        }
        let num_waves = pattern.num_waves(dims.rows, dims.cols);
        if bands.len() != num_waves {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: format!("{} band entries for {} waves", bands.len(), num_waves),
            });
        }
        if bands.iter().any(|&b| b > dims.cols) {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: "band width beyond the column count".into(),
            });
        }
        let max_switch = match pattern.profile_shape() {
            ProfileShape::RampUpDown => num_waves / 2,
            ProfileShape::Decreasing => num_waves,
            ProfileShape::Constant => 0,
        };
        if t_switch > max_switch {
            return Err(Error::InvalidSchedule {
                pattern,
                reason: format!("t_switch = {t_switch} exceeds the legal maximum {max_switch}"),
            });
        }
        let transfer = transfer_need(pattern, set)?;
        Ok(VariablePlan {
            pattern,
            set,
            dims,
            t_switch,
            bands,
            transfer,
            num_waves,
        })
    }

    /// The per-wave band widths.
    pub fn bands(&self) -> &[usize] {
        &self.bands
    }

    /// Device that computed cell `(i, j)` — by the band width of *its*
    /// wave.
    pub fn owner(&self, i: usize, j: usize) -> Device {
        let w = wavefront::wave_of(self.pattern, self.dims, i, j);
        if self.phase(w) == PhaseKind::CpuOnly || j < self.bands[w] {
            Device::Cpu
        } else {
            Device::Gpu
        }
    }

    fn phase(&self, w: usize) -> PhaseKind {
        match self.pattern.profile_shape() {
            ProfileShape::RampUpDown => {
                if w < self.t_switch || w >= self.num_waves - self.t_switch {
                    PhaseKind::CpuOnly
                } else {
                    PhaseKind::Shared
                }
            }
            ProfileShape::Constant => PhaseKind::Shared,
            ProfileShape::Decreasing => {
                if w >= self.num_waves - self.t_switch {
                    PhaseKind::CpuOnly
                } else {
                    PhaseKind::Shared
                }
            }
        }
    }

    fn push_foreign_deps(&self, i: usize, j: usize, out: &mut WaveTransfers) {
        let reader = self.owner(i, j);
        for dep in self.set.iter() {
            if let Some((si, sj)) = dep.source(i, j, self.dims.rows, self.dims.cols) {
                if self.owner(si, sj) != reader {
                    match reader {
                        Device::Cpu => out.to_cpu.push((si, sj)),
                        Device::Gpu => out.to_gpu.push((si, sj)),
                    }
                }
            }
        }
    }
}

impl WaveSchedule for VariablePlan {
    fn pattern(&self) -> Pattern {
        self.pattern
    }

    fn set(&self) -> ContributingSet {
        self.set
    }

    fn dims(&self) -> Dims {
        self.dims
    }

    fn num_waves(&self) -> usize {
        self.num_waves
    }

    fn phase_of(&self, w: usize) -> PhaseKind {
        self.phase(w)
    }

    fn assignment(&self, w: usize) -> WaveAssignment {
        let len = self.pattern.wave_len(self.dims.rows, self.dims.cols, w);
        let cpu = if self.phase(w) == PhaseKind::CpuOnly {
            len
        } else {
            band_len(self.pattern, self.dims, w, self.bands[w])
        };
        WaveAssignment {
            wave: w,
            phase: self.phase(w),
            cpu: 0..cpu,
            gpu: cpu..len,
        }
    }

    fn transfers(&self, w: usize) -> WaveTransfers {
        let mut out = WaveTransfers::default();
        let delta = max_wave_delta(self.pattern, self.set);
        let phase = self.phase(w);
        let near_edge = (w.saturating_sub(delta)..w).any(|p| self.phase(p) != phase);
        if near_edge {
            for (i, j) in wavefront::wave_cells(self.pattern, self.dims, w) {
                self.push_foreign_deps(i, j, &mut out);
            }
        } else if phase == PhaseKind::Shared {
            // The boundary may have moved within the dependency window:
            // candidates are cells whose column lies near *any* band in
            // the window.
            let lo_band = (w.saturating_sub(delta)..=w)
                .map(|p| self.bands[p])
                .min()
                .unwrap_or(0);
            let hi_band = (w.saturating_sub(delta)..=w)
                .map(|p| self.bands[p])
                .max()
                .unwrap_or(0);
            let lo = lo_band.saturating_sub(2);
            let hi = hi_band + 1;
            for (i, j) in wavefront::wave_cells(self.pattern, self.dims, w) {
                if j + 1 < lo {
                    continue;
                }
                if j > hi && self.pattern != Pattern::InvertedL {
                    break;
                }
                if j > hi {
                    continue;
                }
                self.push_foreign_deps(i, j, &mut out);
            }
        }
        out.to_gpu.sort_unstable();
        out.to_gpu.dedup();
        out.to_cpu.sort_unstable();
        out.to_cpu.dedup();
        out
    }

    fn transfer_need(&self) -> TransferNeed {
        self.transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::RepCell;
    use crate::cell::RepCell::{Ne, Nw, N, W};
    use crate::schedule::{Plan, ScheduleParams};

    fn set(cells: &[RepCell]) -> ContributingSet {
        ContributingSet::new(cells)
    }

    #[test]
    fn constant_bands_match_the_static_plan() {
        for (pattern, s, t_switch, t_share) in [
            (Pattern::AntiDiagonal, &[W, Nw, N][..], 3, 4),
            (Pattern::Horizontal, &[Nw, N, Ne][..], 0, 5),
            (Pattern::KnightMove, &[W, Ne][..], 4, 3),
            (Pattern::InvertedL, &[Nw][..], 2, 4),
        ] {
            let dims = Dims::new(10, 12);
            let waves = pattern.num_waves(10, 12);
            let variable =
                VariablePlan::new(pattern, set(s), dims, t_switch, vec![t_share; waves]).unwrap();
            let fixed = Plan::new(
                pattern,
                set(s),
                dims,
                ScheduleParams::new(t_switch, t_share),
            )
            .unwrap();
            for w in 0..waves {
                assert_eq!(
                    WaveSchedule::assignment(&variable, w),
                    WaveSchedule::assignment(&fixed, w),
                    "{pattern} wave {w}"
                );
                assert_eq!(
                    WaveSchedule::transfers(&variable, w),
                    WaveSchedule::transfers(&fixed, w),
                    "{pattern} wave {w}"
                );
            }
        }
    }

    /// THE correctness property with a moving boundary.
    #[test]
    fn transfers_cover_foreign_deps_with_moving_bands() {
        for (pattern, s, t_switch) in [
            (Pattern::AntiDiagonal, &[W, Nw, N][..], 3),
            (Pattern::Horizontal, &[Nw, N, Ne][..], 0),
            (Pattern::Horizontal, &[Nw, N][..], 0),
            (Pattern::KnightMove, &[W, Nw, N, Ne][..], 4),
            (Pattern::InvertedL, &[Nw][..], 2),
        ] {
            let dims = Dims::new(9, 11);
            let waves = pattern.num_waves(9, 11);
            // A deliberately jittery band: grows, jumps, shrinks.
            let bands: Vec<usize> = (0..waves)
                .map(|w| match w % 5 {
                    0 => 0,
                    1 => 3,
                    2 => 8,
                    3 => 5,
                    _ => 11,
                })
                .collect();
            let plan = VariablePlan::new(pattern, set(s), dims, t_switch, bands).unwrap();
            for w in 0..waves {
                let t = WaveSchedule::transfers(&plan, w);
                for (i, j) in wavefront::wave_cells(pattern, dims, w) {
                    let reader = plan.owner(i, j);
                    for dep in set(s).iter() {
                        if let Some(src) = dep.source(i, j, 9, 11) {
                            if plan.owner(src.0, src.1) != reader {
                                let list = match reader {
                                    Device::Cpu => &t.to_cpu,
                                    Device::Gpu => &t.to_gpu,
                                };
                                assert!(
                                    list.contains(&src),
                                    "{pattern} wave {w}: ({i},{j}) missing {src:?}"
                                );
                            }
                        }
                    }
                }
                // Minimality + causality.
                for &(i, j) in &t.to_gpu {
                    assert_eq!(plan.owner(i, j), Device::Cpu);
                    assert!(wavefront::wave_of(pattern, dims, i, j) < w);
                }
                for &(i, j) in &t.to_cpu {
                    assert_eq!(plan.owner(i, j), Device::Gpu);
                    assert!(wavefront::wave_of(pattern, dims, i, j) < w);
                }
            }
        }
    }

    #[test]
    fn validation() {
        let dims = Dims::new(4, 4);
        assert!(VariablePlan::new(
            Pattern::Horizontal,
            ContributingSet::EMPTY,
            dims,
            0,
            vec![0; 4]
        )
        .is_err());
        assert!(
            VariablePlan::new(Pattern::Horizontal, set(&[N]), dims, 0, vec![0; 3]).is_err(),
            "wrong band count"
        );
        assert!(
            VariablePlan::new(Pattern::Horizontal, set(&[N]), dims, 0, vec![5; 4]).is_err(),
            "band beyond cols"
        );
        assert!(
            VariablePlan::new(Pattern::Horizontal, set(&[N]), dims, 1, vec![2; 4]).is_err(),
            "t_switch on constant profile"
        );
        assert!(
            VariablePlan::new(Pattern::Vertical, set(&[W]), dims, 0, vec![2; 4]).is_err(),
            "non-canonical pattern"
        );
    }

    #[test]
    fn bands_accessor_and_ownership() {
        let dims = Dims::new(4, 6);
        let plan = VariablePlan::new(
            Pattern::Horizontal,
            set(&[Nw, N]),
            dims,
            0,
            vec![0, 2, 4, 6],
        )
        .unwrap();
        assert_eq!(plan.bands(), &[0, 2, 4, 6]);
        assert_eq!(plan.owner(0, 0), Device::Gpu);
        assert_eq!(plan.owner(1, 1), Device::Cpu);
        assert_eq!(plan.owner(1, 2), Device::Gpu);
        assert_eq!(plan.owner(3, 5), Device::Cpu);
    }
}
