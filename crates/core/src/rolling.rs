//! Rolling wave-band execution: exact anti-diagonal solves with an
//! `O(rows + cols)` working set.
//!
//! Every grid-producing engine materializes the full `O(n·m)` table,
//! which caps grid size at RAM long before it caps it at compute. For
//! the anti-diagonal pattern the dependency structure is shallow: wave
//! `w` reads only waves `w-1` (W, N) and `w-2` (NW), so a ring of three
//! band buffers — each `min(rows, cols)` cells — is a complete working
//! set. This module walks the wave schedule over that ring and hands
//! each sealed wave to a visitor, from which the public helpers capture
//! exactly what answer-level callers need:
//!
//! * [`solve_corner`] — the bottom-right cell (LCS length, edit
//!   distance, global alignment score, DTW distance);
//! * [`solve_row`] — one full grid row (the Hirschberg midpoint split);
//! * [`solve_best`] — an arg-best fold over every cell (Smith–Waterman
//!   local maxima).
//!
//! The band layout deliberately matches
//! [`WaveKernel::compute_run`](crate::kernel::WaveKernel::compute_run)'s
//! run orientation — position `p` within a wave is cell
//! `(w - j_lo - p, j_lo + p)`, i.e. increasing `j`, decreasing `i` — so
//! interior runs are handed to the *same* bulk/SIMD bodies the
//! full-table engine uses, as plain slices into the ring. Within one
//! wave at most the first and last cells touch the table border; the
//! rest is a single contiguous interior run. Results are therefore
//! bit-identical to the full-table engines by construction (the same
//! `compute`/`compute_run` code computes every cell), which the
//! property tests and the cross-engine consistency matrix pin down.
//!
//! Patterns other than anti-diagonal are rejected with
//! [`Error::PlanMismatch`]; the caller falls back to a full-table
//! solve. The multi-threaded rolling path lives in `lddp-parallel`,
//! layered over the same indexing scheme.

use crate::cell::RepCell;
use crate::error::{Error, Result};
use crate::kernel::{simd_available, ExecTier, Kernel};
use crate::kernel::{MemoryMode, Neighbors};
use crate::pattern::{classify, Pattern};

/// What a rolling solve used and touched, for telemetry and tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollingStats {
    /// Tier the interior runs executed on (never `BitParallel`).
    pub tier: ExecTier,
    /// Number of waves walked (`rows + cols - 1`, 0 for empty tables).
    pub waves: usize,
    /// Peak working-set bytes: the three ring bands. This is the number
    /// the `lddp_engine_table_bytes` gauge reports in rolling mode.
    pub peak_bytes: usize,
}

/// Bytes the full-table engine would allocate for `kernel`'s grid —
/// the other arm of the tuner's memory model.
pub fn full_table_bytes<K: Kernel + ?Sized>(kernel: &K) -> usize {
    kernel.dims().len() * std::mem::size_of::<K::Cell>()
}

/// Bytes the rolling ring will allocate for `kernel`'s grid.
pub fn rolling_bytes<K: Kernel + ?Sized>(kernel: &K) -> usize {
    let d = kernel.dims();
    3 * d.rows.min(d.cols) * std::mem::size_of::<K::Cell>()
}

/// Resolves the tier a rolling solve will run interior runs on:
/// auto-selects the best available rung, honors an explicit request by
/// downgrading past rungs the kernel doesn't implement. `BitParallel`
/// is answer-level and table-free, so it maps to auto here.
pub fn resolve_tier<K: Kernel + ?Sized>(kernel: &K, requested: Option<ExecTier>) -> ExecTier {
    let auto = if kernel.simd_kernel().is_some() && simd_available() {
        ExecTier::Simd
    } else if kernel.wave_kernel().is_some() {
        ExecTier::Bulk
    } else {
        ExecTier::Scalar
    };
    match requested {
        None | Some(ExecTier::BitParallel) => auto,
        Some(t) => {
            let mut t = t.min(auto);
            if t == ExecTier::Bulk && kernel.wave_kernel().is_none() {
                t = ExecTier::Scalar;
            }
            t
        }
    }
}

/// Is `kernel` eligible for rolling execution? True exactly when its
/// contributing set schedules as a pure anti-diagonal wavefront with
/// dependencies no deeper than two waves back (`W`, `NW`, `N`).
pub fn supports_rolling<K: Kernel + ?Sized>(kernel: &K) -> bool {
    let set = kernel.contributing_set();
    classify(set).map(Pattern::canonical) == Some(Pattern::AntiDiagonal)
        && !set.contains(RepCell::Ne)
}

/// Walks the anti-diagonal wave schedule over a ring of three band
/// buffers, calling `visit(w, j_lo, cells)` once per sealed wave.
///
/// `cells[p]` is cell `(w - j_lo - p, j_lo + p)` where
/// `j_lo = max(0, w - rows + 1)` — increasing column order, matching
/// [`crate::kernel::WaveKernel::compute_run`].
///
/// `requested` pins the execution tier as in the full-table engine
/// (downgrading past unavailable rungs); `None` auto-selects.
pub fn solve_waves<K, F>(
    kernel: &K,
    requested: Option<ExecTier>,
    mut visit: F,
) -> Result<RollingStats>
where
    K: Kernel + ?Sized,
    F: FnMut(usize, usize, &[K::Cell]),
{
    let dims = kernel.dims();
    let set = kernel.contributing_set();
    if set.is_empty() {
        return Err(Error::EmptyContributingSet);
    }
    if !supports_rolling(kernel) {
        return Err(Error::PlanMismatch {
            expected: "anti-diagonal contributing set (rolling wave-band mode)".into(),
            found: format!("{set:?}"),
        });
    }
    let tier = resolve_tier(kernel, requested);
    if dims.is_empty() {
        return Ok(RollingStats {
            tier,
            waves: 0,
            peak_bytes: 0,
        });
    }
    let (rows, cols) = (dims.rows, dims.cols);
    let band = rows.min(cols);
    let num_waves = rows + cols - 1;
    let mut bufs: [Vec<K::Cell>; 3] = [
        vec![K::Cell::default(); band],
        vec![K::Cell::default(); band],
        vec![K::Cell::default(); band],
    ];
    let has_w = set.contains(RepCell::W);
    let has_nw = set.contains(RepCell::Nw);
    let has_n = set.contains(RepCell::N);
    let wave_body = kernel.wave_kernel();
    let simd_body = kernel.simd_kernel();

    for w in 0..num_waves {
        let j_lo = w.saturating_sub(rows - 1);
        let j_hi = (cols - 1).min(w);
        // Band positions of the two previous waves in the ring.
        let j_lo1 = (w.saturating_sub(1)).saturating_sub(rows - 1);
        let j_lo2 = (w.saturating_sub(2)).saturating_sub(rows - 1);
        let [b0, b1, b2] = &mut bufs;
        let (cur, prev1, prev2) = match w % 3 {
            0 => (&mut b0[..], &b2[..], &b1[..]),
            1 => (&mut b1[..], &b0[..], &b2[..]),
            _ => (&mut b2[..], &b1[..], &b0[..]),
        };
        // Interior columns: every declared dependency in bounds
        // (i ≥ 1 and j ≥ 1), so bulk/SIMD run bodies apply.
        let ji_lo = j_lo.max(1);
        let ji_hi = j_hi.min(w.saturating_sub(1));
        let interior = tier != ExecTier::Scalar && ji_lo <= ji_hi && w >= 1;

        let scalar_cell = |cur: &mut [K::Cell], j: usize| {
            let i = w - j;
            let mut nb = Neighbors::empty();
            if j > 0 {
                // (i, j-1) sits on wave w-1; (i-1, j-1) on wave w-2.
                if has_w {
                    nb.w = Some(prev1[j - 1 - j_lo1]);
                }
                if has_nw && i > 0 {
                    nb.nw = Some(prev2[j - 1 - j_lo2]);
                }
            }
            if has_n && i > 0 {
                nb.n = Some(prev1[j - j_lo1]);
            }
            cur[j - j_lo] = kernel.compute(i, j, &nb);
        };

        if !interior {
            for j in j_lo..=j_hi {
                scalar_cell(cur, j);
            }
        } else {
            for j in j_lo..ji_lo {
                scalar_cell(cur, j);
            }
            for j in (ji_hi + 1)..=j_hi {
                scalar_cell(cur, j);
            }
            let count = ji_hi - ji_lo + 1;
            let i0 = w - ji_lo;
            let p0 = ji_lo - j_lo;
            let out = &mut cur[p0..p0 + count];
            let empty: &[K::Cell] = &[];
            let w_run = if has_w {
                &prev1[ji_lo - 1 - j_lo1..ji_lo - 1 - j_lo1 + count]
            } else {
                empty
            };
            let n_run = if has_n {
                &prev1[ji_lo - j_lo1..ji_lo - j_lo1 + count]
            } else {
                empty
            };
            let nw_run = if has_nw {
                &prev2[ji_lo - 1 - j_lo2..ji_lo - 1 - j_lo2 + count]
            } else {
                empty
            };
            match tier {
                ExecTier::Simd => {
                    let body = simd_body.expect("Simd tier implies simd_kernel");
                    body.compute_run_simd(i0, ji_lo, out, w_run, nw_run, n_run, empty);
                }
                _ => {
                    let body = wave_body.expect("Bulk tier implies wave_kernel");
                    body.compute_run(i0, ji_lo, out, w_run, nw_run, n_run, empty);
                }
            }
        }

        visit(w, j_lo, &cur[..j_hi - j_lo + 1]);
    }

    Ok(RollingStats {
        tier,
        waves: num_waves,
        peak_bytes: 3 * band * std::mem::size_of::<K::Cell>(),
    })
}

/// Solves in rolling mode and returns the bottom-right cell — the
/// answer cell for LCS / Levenshtein / Needleman–Wunsch / DTW. `None`
/// only for empty tables.
pub fn solve_corner<K: Kernel + ?Sized>(
    kernel: &K,
    requested: Option<ExecTier>,
) -> Result<(Option<K::Cell>, RollingStats)> {
    let dims = kernel.dims();
    let mut corner = None;
    let last = (dims.rows + dims.cols).saturating_sub(2);
    let stats = solve_waves(kernel, requested, |w, _j_lo, cells| {
        if w == last {
            corner = cells.last().copied();
        }
    })?;
    Ok((corner, stats))
}

/// Solves in rolling mode and captures grid row `row` (all `cols`
/// cells) — the forward half of a Hirschberg midpoint split.
pub fn solve_row<K: Kernel + ?Sized>(
    kernel: &K,
    row: usize,
    requested: Option<ExecTier>,
) -> Result<(Vec<K::Cell>, RollingStats)> {
    let dims = kernel.dims();
    assert!(
        row < dims.rows,
        "solve_row: row {row} out of range for {} rows",
        dims.rows
    );
    let mut out = vec![K::Cell::default(); dims.cols];
    let stats = solve_waves(kernel, requested, |w, j_lo, cells| {
        // Row `row` contributes cell (row, w - row) to wave w.
        if w >= row {
            let j = w - row;
            if j < dims.cols {
                out[j] = cells[j - j_lo];
            }
        }
    })?;
    Ok((out, stats))
}

/// Arg-best of a rolling solve: the winning `(row, col, cell)`, or
/// `None` for an empty grid.
pub type BestCell<C> = Option<(usize, usize, C)>;

/// Solves in rolling mode and returns the arg-best cell under `score`,
/// with ties resolved to the earliest cell in wave order (increasing
/// wave, then increasing column) — the Smith–Waterman endpoint scan.
pub fn solve_best<K: Kernel + ?Sized>(
    kernel: &K,
    requested: Option<ExecTier>,
    score: impl Fn(&K::Cell) -> i64,
) -> Result<(BestCell<K::Cell>, RollingStats)> {
    let mut best: Option<(i64, usize, usize, K::Cell)> = None;
    let stats = solve_waves(kernel, requested, |w, j_lo, cells| {
        for (p, c) in cells.iter().enumerate() {
            let s = score(c);
            if best.is_none_or(|(bs, ..)| s > bs) {
                let j = j_lo + p;
                best = Some((s, w - j, j, *c));
            }
        }
    })?;
    Ok((best.map(|(_, i, j, c)| (i, j, c)), stats))
}

/// One completed slice of the wave schedule, as emitted by a streaming
/// rolling solve (`lddp-parallel`'s `solve_with` with a stream hook,
/// the serve crate's `POST /solve?stream=1`).
///
/// Bands are slices of the *wave* schedule, not literal row bands: on a
/// square grid, row 0 only seals at wave `cols - 1` — halfway through
/// the schedule — so equal-row bands would hold the first frame back
/// for ~50% of the solve. Equal-cell wave bands instead put the first
/// frame `~cells_total / bands` cells in, and each event reports the
/// `rows_completed` watermark (grid rows fully sealed so far) for
/// callers that think in rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandEvent {
    /// 0-based index of this band.
    pub band: usize,
    /// Total bands in the schedule.
    pub bands: usize,
    /// First wave of the band.
    pub wave_lo: usize,
    /// Last wave of the band (inclusive); the band is sealed once this
    /// wave's barrier passes.
    pub wave_hi: usize,
    /// Grid rows fully computed after `wave_hi` (row `r` seals at wave
    /// `r + cols - 1`).
    pub rows_completed: usize,
    /// Total grid rows.
    pub rows: usize,
    /// Cells computed so far, cumulative across bands.
    pub cells_done: u64,
    /// Total cells in the grid.
    pub cells_total: u64,
    /// Running frontier score: the value of the last cell of `wave_hi`
    /// (the cell walking down the rightmost column toward the corner),
    /// projected to `f64` by the caller's score function.
    pub score: f64,
    /// Running arg-best score, when the solve tracks one (the
    /// Smith–Waterman endpoint fold); `None` otherwise.
    pub best: Option<f64>,
}

/// An equal-cell split of the anti-diagonal wave schedule into at most
/// `bands` contiguous slices — the emission plan of a streaming rolling
/// solve. Waves are never split across bands, so a band boundary is
/// always a sealed barrier the emitter can publish behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandSchedule {
    /// Last wave (inclusive) of each band, strictly increasing; the
    /// final entry is the last wave of the schedule.
    ends: Vec<usize>,
    rows: usize,
    cols: usize,
    cells_total: u64,
}

impl BandSchedule {
    /// Splits the `rows + cols - 1` waves of a `rows × cols` grid into
    /// at most `bands` slices of near-equal cell count. Requests are
    /// clamped: at least one band, never more bands than waves. Empty
    /// grids get an empty schedule.
    pub fn new(rows: usize, cols: usize, bands: usize) -> BandSchedule {
        if rows == 0 || cols == 0 {
            return BandSchedule {
                ends: Vec::new(),
                rows,
                cols,
                cells_total: 0,
            };
        }
        let num_waves = rows + cols - 1;
        let bands = bands.clamp(1, num_waves) as u64;
        let cells_total = (rows * cols) as u64;
        let mut ends = Vec::with_capacity(bands as usize);
        let mut cum = 0u64;
        let mut k = 1u64;
        for w in 0..num_waves {
            cum += Self::wave_len_of(rows, cols, w) as u64;
            // Close band k-1 at the first wave reaching its share of
            // the cell budget; a wave crossing several thresholds
            // closes one band and skips the rest.
            if cum * bands >= k * cells_total {
                ends.push(w);
                while k <= bands && cum * bands >= k * cells_total {
                    k += 1;
                }
            }
        }
        debug_assert_eq!(ends.last().copied(), Some(num_waves - 1));
        BandSchedule {
            ends,
            rows,
            cols,
            cells_total,
        }
    }

    /// Number of bands actually scheduled (≤ the requested count).
    pub fn bands(&self) -> usize {
        self.ends.len()
    }

    /// Last wave (inclusive) of each band, strictly increasing.
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// Total cells in the grid.
    pub fn cells_total(&self) -> u64 {
        self.cells_total
    }

    /// Cells on wave `w` of the schedule.
    pub fn wave_len(&self, w: usize) -> usize {
        Self::wave_len_of(self.rows, self.cols, w)
    }

    fn wave_len_of(rows: usize, cols: usize, w: usize) -> usize {
        (cols - 1).min(w) - w.saturating_sub(rows - 1) + 1
    }

    /// Grid rows fully sealed once wave `w` has completed: row `r`
    /// computes its last cell `(r, cols - 1)` on wave `r + cols - 1`.
    pub fn rows_completed(&self, w: usize) -> usize {
        (w + 2).saturating_sub(self.cols).min(self.rows)
    }

    /// Builds the [`BandEvent`] for band `band` sealing at wave `w`
    /// with `cells_done` cumulative cells; `score`/`best` come from the
    /// executor's captures.
    pub fn event(
        &self,
        band: usize,
        w: usize,
        cells_done: u64,
        score: f64,
        best: Option<f64>,
    ) -> BandEvent {
        let wave_lo = if band == 0 {
            0
        } else {
            self.ends[band - 1] + 1
        };
        BandEvent {
            band,
            bands: self.ends.len(),
            wave_lo,
            wave_hi: w,
            rows_completed: self.rows_completed(w),
            rows: self.rows,
            cells_done,
            cells_total: self.cells_total,
            score,
            best,
        }
    }
}

/// Formats a `(mode, bytes)` pair the way the CLI and docs report
/// working sets, e.g. `rolling (96.0 KiB)`.
pub fn describe(mode: MemoryMode, bytes: usize) -> String {
    let human = if bytes >= 1 << 30 {
        format!("{:.1} GiB", bytes as f64 / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    };
    format!("{mode} ({human})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::ContributingSet;
    use crate::kernel::ClosureKernel;
    use crate::seq::solve_row_major;
    use crate::wavefront::Dims;

    /// LCS-shaped closure kernel over deterministic pseudo-sequences.
    fn lcs_like(
        rows: usize,
        cols: usize,
    ) -> ClosureKernel<u32, impl Fn(usize, usize, &Neighbors<u32>) -> u32 + Sync> {
        let a: Vec<u8> = (0..rows).map(|i| (i * 7 % 5) as u8).collect();
        let b: Vec<u8> = (0..cols).map(|j| (j * 3 % 5) as u8).collect();
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        ClosureKernel::new(
            Dims::new(rows, cols),
            set,
            move |i, j, nb: &Neighbors<u32>| {
                if i == 0 || j == 0 {
                    0
                } else if a[i - 1] == b[j - 1] {
                    nb.nw.unwrap() + 1
                } else {
                    nb.w.unwrap().max(nb.n.unwrap())
                }
            },
        )
    }

    #[test]
    fn corner_matches_full_table_oracle_across_shapes() {
        for (rows, cols) in [
            (1, 1),
            (1, 9),
            (9, 1),
            (2, 2),
            (7, 13),
            (13, 7),
            (33, 33),
            (64, 5),
        ] {
            let k = lcs_like(rows, cols);
            let grid = solve_row_major(&k).unwrap();
            let (corner, stats) = solve_corner(&k, None).unwrap();
            assert_eq!(corner, Some(grid.get(rows - 1, cols - 1)), "{rows}x{cols}");
            assert_eq!(stats.waves, rows + cols - 1);
            assert!(stats.peak_bytes <= 3 * rows.min(cols) * 4);
        }
    }

    #[test]
    fn every_wave_cell_matches_the_oracle() {
        let k = lcs_like(11, 17);
        let grid = solve_row_major(&k).unwrap();
        let stats = solve_waves(&k, None, |w, j_lo, cells| {
            for (p, c) in cells.iter().enumerate() {
                let (i, j) = (w - j_lo - p, j_lo + p);
                assert_eq!(*c, grid.get(i, j), "cell ({i}, {j}) wave {w}");
            }
        })
        .unwrap();
        assert_eq!(stats.waves, 27);
    }

    #[test]
    fn captured_rows_match_the_oracle() {
        let k = lcs_like(10, 6);
        let grid = solve_row_major(&k).unwrap();
        for row in [0, 1, 5, 9] {
            let (cells, _) = solve_row(&k, row, None).unwrap();
            let want: Vec<u32> = (0..6).map(|j| grid.get(row, j)).collect();
            assert_eq!(cells, want, "row {row}");
        }
    }

    #[test]
    fn best_fold_finds_the_maximum_cell() {
        let k = lcs_like(12, 12);
        let grid = solve_row_major(&k).unwrap();
        let (best, _) = solve_best(&k, None, |c| *c as i64).unwrap();
        let (i, j, c) = best.unwrap();
        assert_eq!(c, grid.get(i, j));
        let max = (0..12)
            .flat_map(|i| (0..12).map(move |j| (i, j)))
            .map(|(i, j)| grid.get(i, j))
            .max()
            .unwrap();
        assert_eq!(c, max);
    }

    #[test]
    fn scalar_tier_request_matches_auto() {
        let k = lcs_like(19, 23);
        let (auto, s_auto) = solve_corner(&k, None).unwrap();
        let (scalar, s_scalar) = solve_corner(&k, Some(ExecTier::Scalar)).unwrap();
        assert_eq!(auto, scalar);
        assert_eq!(s_scalar.tier, ExecTier::Scalar);
        // ClosureKernel has no wave body, so auto is scalar too.
        assert_eq!(s_auto.tier, ExecTier::Scalar);
    }

    #[test]
    fn non_antidiagonal_patterns_are_rejected() {
        let set = ContributingSet::new(&[RepCell::W]);
        let k = ClosureKernel::new(Dims::new(4, 4), set, |_, _, nb: &Neighbors<u32>| {
            nb.w.unwrap_or(0) + 1
        });
        match solve_waves(&k, None, |_, _, _| {}) {
            Err(Error::PlanMismatch { .. }) => {}
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
        assert!(!supports_rolling(&k));
    }

    #[test]
    fn band_schedule_partitions_waves_with_near_equal_cells() {
        for (rows, cols, bands) in [
            (8usize, 8usize, 4usize),
            (64, 64, 8),
            (64, 64, 32),
            (100, 7, 5),
            (7, 100, 5),
            (1, 9, 3),
            (9, 1, 3),
            (5, 5, 64), // more bands than waves: clamped
        ] {
            let s = BandSchedule::new(rows, cols, bands);
            let num_waves = rows + cols - 1;
            assert!(s.bands() >= 1 && s.bands() <= bands.min(num_waves));
            assert_eq!(*s.ends().last().unwrap(), num_waves - 1, "{rows}x{cols}");
            assert!(s.ends().windows(2).all(|p| p[0] < p[1]));
            // Bands partition every wave exactly once; cell totals add
            // up to the grid.
            let mut lo = 0usize;
            let mut total = 0u64;
            let max_wave = (0..num_waves).map(|w| s.wave_len(w)).max().unwrap() as u64;
            let fair = s.cells_total() / s.bands() as u64;
            for (b, &end) in s.ends().iter().enumerate() {
                let cells: u64 = (lo..=end).map(|w| s.wave_len(w) as u64).sum();
                assert!(
                    cells <= fair + max_wave,
                    "{rows}x{cols} band {b}: {cells} cells vs fair {fair} + wave {max_wave}"
                );
                total += cells;
                lo = end + 1;
            }
            assert_eq!(total, s.cells_total());
            assert_eq!(s.cells_total(), (rows * cols) as u64);
        }
    }

    #[test]
    fn band_schedule_first_band_is_an_early_fraction_of_the_grid() {
        // The streaming TTFB claim rests on this: the first band seals
        // after ~1/bands of the cells, far before the first full *row*
        // would (wave cols-1, i.e. ~half the schedule on squares).
        let s = BandSchedule::new(512, 512, 32);
        let first_end = s.ends()[0];
        let first_cells: u64 = (0..=first_end).map(|w| s.wave_len(w) as u64).sum();
        assert!(
            first_cells <= s.cells_total() / 16,
            "first band holds {first_cells} of {} cells",
            s.cells_total()
        );
        assert_eq!(
            s.rows_completed(first_end),
            0,
            "wave bands seal long before any full row does"
        );
        assert_eq!(s.rows_completed(511 + 512 - 1), 512);
    }

    #[test]
    fn rows_completed_matches_brute_force() {
        let (rows, cols) = (9usize, 6usize);
        let s = BandSchedule::new(rows, cols, 4);
        for w in 0..rows + cols - 1 {
            let brute = (0..rows).filter(|&r| w >= r + cols - 1).count();
            assert_eq!(s.rows_completed(w), brute, "wave {w}");
        }
    }

    #[test]
    fn band_events_carry_the_schedule_geometry() {
        let s = BandSchedule::new(16, 16, 4);
        let mut cells = 0u64;
        let mut lo = 0usize;
        for (b, &end) in s.ends().to_vec().iter().enumerate() {
            cells += (lo..=end).map(|w| s.wave_len(w) as u64).sum::<u64>();
            let ev = s.event(b, end, cells, 1.5, Some(2.5));
            assert_eq!(ev.band, b);
            assert_eq!(ev.bands, s.bands());
            assert_eq!(ev.wave_lo, lo);
            assert_eq!(ev.wave_hi, end);
            assert_eq!(ev.rows, 16);
            assert_eq!(ev.cells_total, 256);
            assert_eq!(ev.cells_done, cells);
            assert_eq!(ev.score, 1.5);
            assert_eq!(ev.best, Some(2.5));
            lo = end + 1;
        }
        assert_eq!(cells, 256);
        // Empty grids: no bands, nothing to stream.
        assert_eq!(BandSchedule::new(0, 4, 3).bands(), 0);
    }

    #[test]
    fn memory_model_prefers_rolling_exactly_when_it_is_smaller() {
        let k = lcs_like(64, 64);
        assert_eq!(full_table_bytes(&k), 64 * 64 * 4);
        assert_eq!(rolling_bytes(&k), 3 * 64 * 4);
        assert!(rolling_bytes(&k) < full_table_bytes(&k));
        assert_eq!(
            describe(MemoryMode::Rolling, 96 * 1024),
            "rolling (96.0 KiB)"
        );
    }
}
