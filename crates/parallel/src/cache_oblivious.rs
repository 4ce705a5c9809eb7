//! Cache-oblivious LDDP evaluation, after Chowdhury & Ramachandran's
//! cache-efficient multicore DP (the paper's reference \[8\]) — the
//! strongest *CPU-side* generic baseline in the related work.
//!
//! The table is split into quadrants and evaluated recursively in the
//! order `Q11 → (Q12 ∥ Q21) → Q22`. The decomposition is legal exactly
//! for contributing sets `⊆ {W, NW, N}` (the string-comparison class the
//! cited works [6, 8] target): an `NE` dependency makes the bottom-left
//! quadrant's right edge read into the bottom-right quadrant, so
//! NE-reading sets (knight-move and the NE horizontal cases) must use
//! the wavefront engine instead — [`solve`](CacheObliviousEngine::solve)
//! rejects them. `Q12` and `Q21` are always independent within this
//! class and run in parallel (fork–join), giving the classic
//! cache-oblivious `Θ(n²/B)` miss bound without knowing the cache
//! size.

use lddp_core::cell::RepCell;
use lddp_core::grid::{Grid, LayoutKind};
use lddp_core::kernel::{Kernel, Neighbors};
use lddp_core::wavefront::Dims;
use lddp_core::{Error, Result};
use std::thread::Scope;

/// Base-case tile side: small enough to fit L1 comfortably, large
/// enough to amortize recursion overhead.
const BASE_TILE: usize = 64;

/// Shared-table handle for the fork–join recursion (same aliasing
/// discipline as the wavefront engine: concurrent writes always target
/// disjoint rectangles).
struct SharedCells<T> {
    ptr: *mut T,
    cols: usize,
    len: usize,
}

// SAFETY: concurrent `fill_rect` calls operate on disjoint rectangles
// (guaranteed by the recursion structure), and reads target rectangles
// completed before the fork (the recursion's sequential prefix).
unsafe impl<T: Send> Sync for SharedCells<T> {}

impl<T: Copy> SharedCells<T> {
    #[inline]
    unsafe fn read(&self, i: usize, j: usize) -> T {
        debug_assert!(i * self.cols + j < self.len);
        unsafe { *self.ptr.add(i * self.cols + j) }
    }

    #[inline]
    unsafe fn write(&self, i: usize, j: usize, v: T) {
        debug_assert!(i * self.cols + j < self.len);
        unsafe { *self.ptr.add(i * self.cols + j) = v };
    }
}

/// A rectangle of the table: rows `r0..r1`, cols `c0..c1`.
#[derive(Debug, Clone, Copy)]
struct Rect {
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
}

impl Rect {
    fn rows(&self) -> usize {
        self.r1 - self.r0
    }

    fn cols(&self) -> usize {
        self.c1 - self.c0
    }

    fn is_empty(&self) -> bool {
        self.r0 >= self.r1 || self.c0 >= self.c1
    }
}

/// Cache-oblivious solver configuration.
#[derive(Debug, Clone)]
pub struct CacheObliviousEngine {
    /// Fork Q12 ∥ Q21 when the contributing set permits it and both
    /// halves are big enough.
    pub parallel: bool,
    /// Minimum rectangle area worth forking for.
    pub fork_threshold: usize,
}

impl Default for CacheObliviousEngine {
    fn default() -> Self {
        CacheObliviousEngine {
            parallel: true,
            fork_threshold: 64 * 64,
        }
    }
}

impl CacheObliviousEngine {
    /// Sequential-only configuration.
    pub fn sequential() -> Self {
        CacheObliviousEngine {
            parallel: false,
            fork_threshold: usize::MAX,
        }
    }

    /// Solves the kernel with the recursive quadrant order, returning a
    /// row-major grid.
    pub fn solve<K: Kernel>(&self, kernel: &K) -> Result<Grid<K::Cell>> {
        let set = kernel.contributing_set();
        if set.is_empty() {
            return Err(Error::EmptyContributingSet);
        }
        if set.contains(RepCell::Ne) {
            return Err(Error::InvalidSchedule {
                pattern: lddp_core::pattern::classify(set).expect("non-empty"),
                reason: "cache-oblivious quadrant order requires a set ⊆ {W, NW, N}; \
                         NE dependencies cross quadrants cyclically — use the \
                         wavefront engine"
                    .into(),
            });
        }
        let dims = kernel.dims();
        let mut grid: Grid<K::Cell> = Grid::new(LayoutKind::RowMajor, dims);
        if dims.is_empty() {
            return Ok(grid);
        }
        let cols = dims.cols;
        let len = dims.len();
        let cells = SharedCells {
            ptr: grid.as_mut_slice().as_mut_ptr(),
            cols,
            len,
        };
        // Within the {W, NW, N} class Q12 and Q21 never read each other.
        let can_fork = self.parallel;
        let rect = Rect {
            r0: 0,
            r1: dims.rows,
            c0: 0,
            c1: dims.cols,
        };
        if can_fork {
            std::thread::scope(|s| {
                self.recurse_parallel(kernel, &cells, dims, rect, s);
            });
        } else {
            self.recurse_seq(kernel, &cells, dims, rect);
        }
        Ok(grid)
    }

    fn recurse_seq<K: Kernel>(
        &self,
        kernel: &K,
        cells: &SharedCells<K::Cell>,
        dims: Dims,
        r: Rect,
    ) {
        if r.is_empty() {
            return;
        }
        if r.rows() <= BASE_TILE && r.cols() <= BASE_TILE {
            fill_rect(kernel, cells, dims, r);
            return;
        }
        let (q11, q12, q21, q22) = split(r);
        self.recurse_seq(kernel, cells, dims, q11);
        self.recurse_seq(kernel, cells, dims, q12);
        self.recurse_seq(kernel, cells, dims, q21);
        self.recurse_seq(kernel, cells, dims, q22);
    }

    fn recurse_parallel<'scope, 'env, K: Kernel>(
        &'scope self,
        kernel: &'scope K,
        cells: &'scope SharedCells<K::Cell>,
        dims: Dims,
        r: Rect,
        scope: &'scope Scope<'scope, 'env>,
    ) {
        if r.is_empty() {
            return;
        }
        if r.rows() <= BASE_TILE && r.cols() <= BASE_TILE {
            fill_rect(kernel, cells, dims, r);
            return;
        }
        let (q11, q12, q21, q22) = split(r);
        self.recurse_parallel(kernel, cells, dims, q11, scope);
        if q12.rows() * q12.cols() >= self.fork_threshold
            && q21.rows() * q21.cols() >= self.fork_threshold
        {
            // Fork Q12; run Q21 on this thread; join before Q22.
            let q12_handle =
                scope.spawn(move || self.recurse_parallel(kernel, cells, dims, q12, scope));
            self.recurse_parallel(kernel, cells, dims, q21, scope);
            q12_handle.join().expect("worker panicked");
        } else {
            self.recurse_parallel(kernel, cells, dims, q12, scope);
            self.recurse_parallel(kernel, cells, dims, q21, scope);
        }
        self.recurse_parallel(kernel, cells, dims, q22, scope);
    }
}

/// Splits a rectangle into its four quadrants.
fn split(r: Rect) -> (Rect, Rect, Rect, Rect) {
    let rm = r.r0 + r.rows() / 2;
    let cm = r.c0 + r.cols() / 2;
    (
        Rect {
            r0: r.r0,
            r1: rm,
            c0: r.c0,
            c1: cm,
        },
        Rect {
            r0: r.r0,
            r1: rm,
            c0: cm,
            c1: r.c1,
        },
        Rect {
            r0: rm,
            r1: r.r1,
            c0: r.c0,
            c1: cm,
        },
        Rect {
            r0: rm,
            r1: r.r1,
            c0: cm,
            c1: r.c1,
        },
    )
}

/// Base case: row-major fill of one rectangle (all dependencies outside
/// it are already computed by the recursion order).
fn fill_rect<K: Kernel>(kernel: &K, cells: &SharedCells<K::Cell>, dims: Dims, r: Rect) {
    let set = kernel.contributing_set();
    for i in r.r0..r.r1 {
        for j in r.c0..r.c1 {
            let mut nbrs = Neighbors::empty();
            for dep in set.iter() {
                if let Some((si, sj)) = dep.source(i, j, dims.rows, dims.cols) {
                    // SAFETY: (si, sj) precedes (i, j) in the recursion
                    // order (row above, or same row strictly left), so
                    // its rectangle is complete.
                    let v = unsafe { cells.read(si, sj) };
                    nbrs.set(dep, v);
                }
            }
            let v = kernel.compute(i, j, &nbrs);
            // SAFETY: (i, j) is inside this call's exclusive rectangle.
            unsafe { cells.write(i, j, v) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lddp_core::cell::ContributingSet;
    use lddp_core::kernel::ClosureKernel;
    use lddp_core::seq::solve_row_major;

    fn mix_kernel(
        dims: Dims,
        set: ContributingSet,
    ) -> ClosureKernel<u64, impl Fn(usize, usize, &Neighbors<u64>) -> u64 + Sync> {
        ClosureKernel::new(dims, set, move |i, j, n: &Neighbors<u64>| {
            let mut acc = ((i * 131 + j * 31) as u64) | 1;
            for c in RepCell::ALL {
                if let Some(v) = n.get(c) {
                    acc = acc.wrapping_mul(0x100000001b3).wrapping_add(*v);
                }
            }
            acc
        })
    }

    #[test]
    fn quadrant_order_matches_oracle_for_all_supported_sets() {
        for set in ContributingSet::table_one_rows() {
            if set.contains(RepCell::Ne) {
                continue;
            }
            for (r, c) in [(1, 1), (3, 130), (130, 3), (97, 101), (128, 128)] {
                let dims = Dims::new(r, c);
                let kernel = mix_kernel(dims, set);
                let oracle = solve_row_major(&kernel).unwrap().to_row_major();
                let seq = CacheObliviousEngine::sequential().solve(&kernel).unwrap();
                assert_eq!(seq.to_row_major(), oracle, "seq {set} {r}x{c}");
                let par = CacheObliviousEngine::default().solve(&kernel).unwrap();
                assert_eq!(par.to_row_major(), oracle, "par {set} {r}x{c}");
            }
        }
    }

    #[test]
    fn ne_sets_are_rejected() {
        // An NE dependency makes the quadrant order cyclic (Q21's right
        // edge reads Q22); the engine must refuse rather than compute
        // garbage.
        for set in ContributingSet::table_one_rows() {
            if !set.contains(RepCell::Ne) {
                continue;
            }
            let kernel = mix_kernel(Dims::new(32, 32), set);
            assert!(
                CacheObliviousEngine::default().solve(&kernel).is_err(),
                "{set} must be rejected"
            );
        }
    }

    #[test]
    fn empty_set_rejected_and_empty_table_ok() {
        let kernel = mix_kernel(Dims::new(4, 4), ContributingSet::EMPTY);
        assert!(CacheObliviousEngine::default().solve(&kernel).is_err());
        let kernel = mix_kernel(
            Dims::new(0, 9),
            ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]),
        );
        let grid = CacheObliviousEngine::default().solve(&kernel).unwrap();
        assert_eq!(grid.as_slice().len(), 0);
    }

    #[test]
    fn deterministic_across_configs() {
        let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
        let dims = Dims::new(257, 129);
        let kernel = mix_kernel(dims, set);
        let a = CacheObliviousEngine::sequential().solve(&kernel).unwrap();
        let b = CacheObliviousEngine::default().solve(&kernel).unwrap();
        let c = CacheObliviousEngine {
            parallel: true,
            fork_threshold: 16,
        }
        .solve(&kernel)
        .unwrap();
        assert_eq!(a.to_row_major(), b.to_row_major());
        assert_eq!(a.to_row_major(), c.to_row_major());
    }

    #[test]
    fn splits_cover_without_overlap() {
        let r = Rect {
            r0: 3,
            r1: 11,
            c0: 2,
            c1: 9,
        };
        let (q11, q12, q21, q22) = split(r);
        let area = |x: &Rect| x.rows() * x.cols();
        assert_eq!(area(&q11) + area(&q12) + area(&q21) + area(&q22), area(&r));
        assert_eq!(q11.r1, q21.r0);
        assert_eq!(q11.c1, q12.c0);
        assert_eq!(q22.r0, q12.r1);
        assert_eq!(q22.c0, q21.c1);
    }
}
