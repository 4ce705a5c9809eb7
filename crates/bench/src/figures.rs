//! Figure generators: one function per exhibit of the paper's
//! evaluation. Each returns [`Figure`]s ready to print/CSV; the `bin/`
//! wrappers and `all_figures` call these.

use crate::{random_seq, Figure, Series};
use hetero_sim::exec::{run_cpu_as, run_gpu_as, run_hetero, ExecOptions};
use hetero_sim::platform::{hetero_high, hetero_low, xeon_phi_like, Platform};
use lddp::Framework;
use lddp_core::cell::{ContributingSet, RepCell};
use lddp_core::kernel::{ExecTier, Kernel};
use lddp_core::pattern::Pattern;
use lddp_core::schedule::{Plan, ScheduleParams};
use lddp_core::wavefront::Dims;
use lddp_problems::lcs::{lcs_length, lcs_length_bitparallel, LcsKernel};
use lddp_problems::levenshtein::LevenshteinKernel;
use lddp_problems::synthetic::{fig8_kernel, fig9_kernel};
use lddp_problems::{
    CheckerboardKernel, DitherKernel, DtwKernel, NeedlemanWunschKernel, SmithWatermanKernel,
};
use std::time::Instant;

/// Both platforms, in the paper's order.
pub fn platforms() -> [Platform; 2] {
    [hetero_high(), hetero_low()]
}

/// CPU/GPU/Framework triple for one kernel on one platform.
fn triple<K: Kernel>(kernel: &K, platform: &Platform, io: (usize, usize)) -> (f64, f64, f64) {
    let fw = Framework::new(platform.clone()).with_io_bytes(io.0, io.1);
    let cpu = fw.cpu_baseline(kernel).expect("cpu baseline");
    let gpu = fw.gpu_baseline(kernel).expect("gpu baseline");
    let tuned = fw.tune(kernel).expect("tuning");
    let het = fw
        .estimate(kernel, tuned.params)
        .expect("framework estimate");
    (cpu * 1e3, gpu * 1e3, het * 1e3)
}

fn cpu_gpu_framework_figure<K: Kernel>(
    title: &str,
    sizes: &[usize],
    platform: &Platform,
    make: impl Fn(usize) -> (K, (usize, usize)),
) -> Figure {
    let mut fig = Figure::new(format!("{title} — {}", platform.name), "n");
    let mut cpu = Series::new("CPU(ms)");
    let mut gpu = Series::new("GPU(ms)");
    let mut het = Series::new("Framework(ms)");
    for &n in sizes {
        let (kernel, io) = make(n);
        let (c, g, h) = triple(&kernel, platform, io);
        cpu.push(n as f64, c);
        gpu.push(n as f64, g);
        het.push(n as f64, h);
    }
    fig.series = vec![cpu, gpu, het];
    fig
}

/// Fig 7: heterogeneous time vs `t_switch` (LCS, `t_share = 0`,
/// Hetero-High), plus the follow-up `t_share` sweep at the winner.
pub fn fig07(n: usize) -> Vec<Figure> {
    let a = random_seq(n, 4, 1);
    let b = random_seq(n, 4, 2);
    let kernel = LcsKernel::new(a, b);
    let fw = Framework::new(hetero_high());
    let result = fw.tune(&kernel).expect("tune");

    let mut switch_fig = Figure::new(
        format!("Fig 7 — heterogeneous time vs t_switch (LCS {n}x{n}, t_share=0, Hetero-High)"),
        "t_switch",
    );
    let mut s = Series::new("time(ms)");
    for p in &result.t_switch_curve {
        s.push(p.value as f64, p.time * 1e3);
    }
    switch_fig.series.push(s);

    let mut share_fig = Figure::new(
        format!(
            "Fig 7 follow-up — time vs t_share (t_switch={}, Hetero-High)",
            result.params.t_switch
        ),
        "t_share",
    );
    let mut s = Series::new("time(ms)");
    for p in &result.t_share_curve {
        s.push(p.value as f64, p.time * 1e3);
    }
    share_fig.series.push(s);
    vec![switch_fig, share_fig]
}

/// Fig 8: the `{NW}` problem (`f = max(cell, nw) + c`) solved under the
/// Inverted-L schedule vs Horizontal case 1, on CPU and GPU.
pub fn fig08(sizes: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "Fig 8 — Inverted-L (iL) vs Horizontal case-1 (H1) on CPU and GPU (Hetero-High)",
        "n",
    );
    let mut cpu_il = Series::new("CPU-iL(ms)");
    let mut cpu_h1 = Series::new("CPU-H1(ms)");
    let mut gpu_il = Series::new("GPU-iL(ms)");
    let mut gpu_h1 = Series::new("GPU-H1(ms)");
    let platform = hetero_high();
    let opts = ExecOptions::default();
    for &n in sizes {
        let kernel = fig8_kernel(Dims::new(n, n), 1);
        cpu_il.push(
            n as f64,
            run_cpu_as(&kernel, Pattern::InvertedL, &platform, &opts)
                .unwrap()
                .total_s
                * 1e3,
        );
        cpu_h1.push(
            n as f64,
            run_cpu_as(&kernel, Pattern::Horizontal, &platform, &opts)
                .unwrap()
                .total_s
                * 1e3,
        );
        gpu_il.push(
            n as f64,
            run_gpu_as(&kernel, Pattern::InvertedL, &platform, &opts)
                .unwrap()
                .total_s
                * 1e3,
        );
        gpu_h1.push(
            n as f64,
            run_gpu_as(&kernel, Pattern::Horizontal, &platform, &opts)
                .unwrap()
                .total_s
                * 1e3,
        );
    }
    fig.series = vec![cpu_il, cpu_h1, gpu_il, gpu_h1];
    fig
}

/// Fig 9: horizontal case 1 (`f = min(nw, n) + c`) across table sizes on
/// both platforms.
pub fn fig09(sizes: &[usize]) -> Vec<Figure> {
    platforms()
        .iter()
        .map(|platform| {
            cpu_gpu_framework_figure(
                "Fig 9 — Horizontal case-1 synthetic kernel",
                sizes,
                platform,
                |n| (fig9_kernel(Dims::new(n, n), 1), (0, 0)),
            )
        })
        .collect()
}

/// Fig 10: Levenshtein distance (anti-diagonal) across sizes on both
/// platforms.
pub fn fig10(sizes: &[usize]) -> Vec<Figure> {
    platforms()
        .iter()
        .map(|platform| {
            cpu_gpu_framework_figure("Fig 10 — Levenshtein distance", sizes, platform, |n| {
                let a = random_seq(n, 4, 11);
                let b = random_seq(n, 4, 13);
                // Upload both strings; download the final distance.
                (LevenshteinKernel::new(a, b), (2 * n, 8))
            })
        })
        .collect()
}

/// Fig 12: Floyd–Steinberg dithering (knight-move) across image sizes on
/// both platforms.
pub fn fig12(sizes: &[usize]) -> Vec<Figure> {
    platforms()
        .iter()
        .map(|platform| {
            cpu_gpu_framework_figure(
                "Fig 12 — Floyd-Steinberg dithering",
                sizes,
                platform,
                |n| {
                    let k = DitherKernel::noise(n, n, 5);
                    let io = (k.input_bytes(), k.input_bytes());
                    (k, io)
                },
            )
        })
        .collect()
}

/// Fig 13: checkerboard shortest path (horizontal case 2) across sizes
/// on both platforms.
pub fn fig13(sizes: &[usize]) -> Vec<Figure> {
    platforms()
        .iter()
        .map(|platform| {
            cpu_gpu_framework_figure(
                "Fig 13 — checkerboard shortest path",
                sizes,
                platform,
                |n| {
                    let k = CheckerboardKernel::random(n, n, 9, 17);
                    let io = (k.input_bytes(), 0);
                    (k, io)
                },
            )
        })
        .collect()
}

/// Ablation (§IV-C): stream-pipelined vs serialized one-way transfers
/// for horizontal case 1.
pub fn ablation_pipeline(sizes: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "Ablation — pipelined vs serialized one-way transfers (Horizontal case-1, Hetero-High)",
        "n",
    );
    let mut on = Series::new("pipelined(ms)");
    let mut off = Series::new("serialized(ms)");
    let platform = hetero_high();
    for &n in sizes {
        let kernel = fig9_kernel(Dims::new(n, n), 1);
        let set = kernel.contributing_set();
        let plan = Plan::new(
            Pattern::Horizontal,
            set,
            Dims::new(n, n),
            ScheduleParams::new(0, (n / 8).max(1)),
        )
        .unwrap();
        let mut opts = ExecOptions::default();
        on.push(
            n as f64,
            run_hetero(&kernel, &plan, &platform, &opts)
                .unwrap()
                .total_s
                * 1e3,
        );
        opts.pipeline = false;
        off.push(
            n as f64,
            run_hetero(&kernel, &plan, &platform, &opts)
                .unwrap()
                .total_s
                * 1e3,
        );
    }
    fig.series = vec![on, off];
    fig
}

/// Ablation (§IV-B): coalescing-friendly wave-major layout vs naive
/// row-major storage for the anti-diagonal pattern on the GPU.
pub fn ablation_layout(sizes: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "Ablation — wave-major (coalesced) vs row-major (strided) GPU layout (anti-diagonal, Hetero-High)",
        "n",
    );
    let mut coalesced = Series::new("wave-major(ms)");
    let mut strided = Series::new("row-major(ms)");
    let platform = hetero_high();
    for &n in sizes {
        let a = random_seq(n, 4, 21);
        let b = random_seq(n, 4, 22);
        let kernel = LevenshteinKernel::new(a, b);
        let opts = ExecOptions::default();
        coalesced.push(
            n as f64,
            run_gpu_as(&kernel, Pattern::AntiDiagonal, &platform, &opts)
                .unwrap()
                .total_s
                * 1e3,
        );
        let opts = ExecOptions {
            layout: Some(lddp_core::grid::LayoutKind::RowMajor),
            ..Default::default()
        };
        strided.push(
            n as f64,
            run_gpu_as(&kernel, Pattern::AntiDiagonal, &platform, &opts)
                .unwrap()
                .total_s
                * 1e3,
        );
    }
    fig.series = vec![coalesced, strided];
    fig
}

/// Ablation (§I): the generic framework's real CPU engine vs the
/// Allison–Dix bit-parallel LCS — problem-independent good performance
/// vs problem-specific excellent performance. Wall-clock, measured.
pub fn ablation_bitlcs(sizes: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "Ablation — generic DP (real threads) vs Allison-Dix bit-parallel LCS (wall clock)",
        "n",
    );
    let mut generic = Series::new("generic-dp(ms)");
    let mut bitpar = Series::new("bit-parallel(ms)");
    let engine = lddp_parallel::ParallelEngine::host();
    for &n in sizes {
        let a = random_seq(n, 4, 31);
        let b = random_seq(n, 4, 32);
        let kernel = LcsKernel::new(a.clone(), b.clone());
        let t0 = Instant::now();
        let grid = engine.solve(&kernel).expect("solve");
        let generic_ms = t0.elapsed().as_secs_f64() * 1e3;
        let expected = kernel.length_from(&grid);
        let t0 = Instant::now();
        let got = lcs_length_bitparallel(&a, &b);
        let bitpar_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(got, expected, "engines disagree at n={n}");
        assert_eq!(got, lcs_length(&a, &b));
        generic.push(n as f64, generic_ms);
        bitpar.push(n as f64, bitpar_ms);
    }
    fig.series = vec![generic, bitpar];
    fig
}

/// Ablation (bulk execution): per-cell scalar dispatch vs bulk
/// [`lddp_core::kernel::WaveKernel`] runs, and spawn-per-solve vs the
/// persistent worker pool, wall-clock on LCS. The scalar and bulk
/// columns share one pooled engine (so the delta is purely the
/// per-cell dispatch); the spawn column pays fresh worker threads on
/// every solve — the engine's pre-pool cost model.
pub fn ablation_bulk(sizes: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "Ablation — scalar per-cell vs bulk wave runs, spawned vs pooled workers (LCS, wall clock)",
        "n",
    );
    let mut scalar = Series::new("scalar-pooled(ms)");
    let mut bulk = Series::new("bulk-pooled(ms)");
    let mut spawn = Series::new("bulk-spawned(ms)");
    let pooled = lddp_parallel::ParallelEngine::host();
    let scalar_engine = pooled.clone().with_tier(Some(ExecTier::Scalar));
    let best_ms = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    for &n in sizes {
        let a = random_seq(n, 4, 33);
        let b = random_seq(n, 4, 34);
        let kernel = LcsKernel::new(a, b);
        let reference = pooled.solve(&kernel).expect("solve");
        let got = scalar_engine.solve(&kernel).expect("solve");
        assert_eq!(
            got.to_row_major(),
            reference.to_row_major(),
            "bulk and scalar paths diverged at n={n}"
        );
        let scalar_ms = best_ms(&mut || {
            scalar_engine.solve(&kernel).expect("solve");
        });
        let bulk_ms = best_ms(&mut || {
            pooled.solve(&kernel).expect("solve");
        });
        let spawn_ms = best_ms(&mut || {
            lddp_parallel::ParallelEngine::new(pooled.threads())
                .solve(&kernel)
                .expect("solve");
        });
        let cells = ((n + 1) * (n + 1)) as f64;
        println!(
            "n={n}: scalar {:.1} Mcells/s, bulk {:.1} Mcells/s ({:.2}x), spawn-per-solve {:.2}x slower than pooled",
            cells / scalar_ms / 1e3,
            cells / bulk_ms / 1e3,
            scalar_ms / bulk_ms,
            spawn_ms / bulk_ms,
        );
        scalar.push(n as f64, scalar_ms);
        bulk.push(n as f64, bulk_ms);
        spawn.push(n as f64, spawn_ms);
    }
    fig.series = vec![scalar, bulk, spawn];
    fig
}

/// One execution-tier figure: scalar vs bulk vs SIMD throughput for a
/// single problem family, every tier's table checked bit-identical to
/// the scalar one before timing.
fn tier_figure<K: Kernel>(
    problem: &str,
    sizes: &[usize],
    pooled: &lddp_parallel::ParallelEngine,
    make: &dyn Fn(usize) -> K,
) -> Figure {
    let scalar_engine = pooled.clone().with_tier(Some(ExecTier::Scalar));
    let bulk_engine = pooled.clone().with_tier(Some(ExecTier::Bulk));
    let simd_engine = pooled.clone().with_tier(Some(ExecTier::Simd));
    let mut fig = Figure::new(
        format!("Ablation — execution tiers on {problem} (wall clock)"),
        "n",
    );
    let mut s_scalar = Series::new("scalar(Mcells/s)");
    let mut s_bulk = Series::new("bulk(Mcells/s)");
    let mut s_simd = Series::new("simd(Mcells/s)");
    for &n in sizes {
        let kernel = make(n);
        let d = kernel.dims();
        let cells = (d.rows * d.cols) as f64;
        let reference = scalar_engine.solve(&kernel).expect("solve");
        for engine in [&bulk_engine, &simd_engine] {
            let got = engine.solve(&kernel).expect("solve");
            assert_eq!(
                got.to_row_major(),
                reference.to_row_major(),
                "{problem}: tiers diverged at n={n}"
            );
        }
        let best_ms = |engine: &lddp_parallel::ParallelEngine| {
            let mut best = f64::INFINITY;
            for _ in 0..2 {
                let t0 = Instant::now();
                engine.solve(&kernel).expect("solve");
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            best
        };
        let scalar_ms = best_ms(&scalar_engine);
        let bulk_ms = best_ms(&bulk_engine);
        let simd_ms = best_ms(&simd_engine);
        println!(
            "{problem} n={n}: scalar {:.1}, bulk {:.1}, simd {:.1} Mcells/s (simd {:.2}x over bulk)",
            cells / scalar_ms / 1e3,
            cells / bulk_ms / 1e3,
            cells / simd_ms / 1e3,
            bulk_ms / simd_ms,
        );
        s_scalar.push(n as f64, cells / scalar_ms / 1e3);
        s_bulk.push(n as f64, cells / bulk_ms / 1e3);
        s_simd.push(n as f64, cells / simd_ms / 1e3);
    }
    fig.series = vec![s_scalar, s_bulk, s_simd];
    fig
}

/// Ablation (execution tiers): scalar per-cell vs bulk wave runs vs
/// SIMD lanes across every wave-kernel problem, plus the Allison–Dix
/// bit-parallel row kernel on LCS. All grid tiers share one pooled
/// engine with the tier pinned, so the deltas are purely the inner
/// loop. On hosts without a vector unit the engine downgrades the
/// `Simd` pin and that column reads as bulk.
pub fn ablation_simd(sizes: &[usize]) -> Vec<Figure> {
    let pooled = lddp_parallel::ParallelEngine::host();
    println!(
        "simd backend: {} ({} threads)",
        lddp_core::kernel::simd_backend(),
        pooled.threads()
    );
    let mut figs = vec![
        tier_figure("lcs", sizes, &pooled, &|n| {
            LcsKernel::new(random_seq(n, 4, 41), random_seq(n, 4, 42))
        }),
        tier_figure("levenshtein", sizes, &pooled, &|n| {
            LevenshteinKernel::new(random_seq(n, 26, 43), random_seq(n, 26, 44))
        }),
        tier_figure("needleman-wunsch", sizes, &pooled, &|n| {
            NeedlemanWunschKernel::new(random_seq(n, 4, 45), random_seq(n, 4, 46))
        }),
        tier_figure("smith-waterman", sizes, &pooled, &|n| {
            SmithWatermanKernel::new(random_seq(n, 4, 47), random_seq(n, 4, 48))
        }),
        tier_figure("dtw", sizes, &pooled, &|n| DtwKernel::random_walk(n, n, 49)),
    ];
    // The bit-parallel LCS kernel skips the grid entirely, so it rides
    // on the LCS figure as a fourth series rather than a tier column.
    let mut bitpar = Series::new("bit-parallel(Mcells/s)");
    for &n in sizes {
        let a = random_seq(n, 4, 41);
        let b = random_seq(n, 4, 42);
        let expected = lcs_length(&a, &b);
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t0 = Instant::now();
            let got = lcs_length_bitparallel(&a, &b);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(got, expected, "bit-parallel diverged at n={n}");
        }
        let cells = ((n + 1) * (n + 1)) as f64;
        println!("lcs n={n}: bit-parallel {:.1} Mcells/s", cells / best / 1e3);
        bitpar.push(n as f64, cells / best / 1e3);
    }
    figs[0].series.push(bitpar);
    figs
}

/// Extension (§VII): the same Fig 9 experiment on a hypothetical
/// Xeon-Phi-like accelerator.
pub fn extension_phi(sizes: &[usize]) -> Figure {
    cpu_gpu_framework_figure(
        "Extension — Horizontal case-1 on a Phi-like accelerator (paper §VII outlook)",
        sizes,
        &xeon_phi_like(),
        |n| (fig9_kernel(Dims::new(n, n), 1), (0, 0)),
    )
}

/// Table I rendered as CSV-able rows.
pub fn table1_rows() -> Vec<(String, String, String, String, String)> {
    lddp_core::pattern::table_one()
        .into_iter()
        .map(|row| {
            let yn = |c: RepCell| if row.set.contains(c) { "Y" } else { "N" }.to_string();
            (
                yn(RepCell::W),
                yn(RepCell::Nw),
                yn(RepCell::N),
                yn(RepCell::Ne),
                row.pattern.to_string(),
            )
        })
        .collect()
}

/// Table II rendered as rows: (pattern/case, ways).
pub fn table2_rows() -> Vec<(String, usize)> {
    use lddp_core::schedule::transfer_need;
    let h1 = ContributingSet::new(&[RepCell::Nw, RepCell::N]);
    let h2 = ContributingSet::new(&[RepCell::Nw, RepCell::N, RepCell::Ne]);
    let ad = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
    let il = ContributingSet::new(&[RepCell::Nw]);
    let km = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N, RepCell::Ne]);
    vec![
        (
            "Anti-diagonal".to_string(),
            transfer_need(Pattern::AntiDiagonal, ad).unwrap().ways(),
        ),
        (
            "Horizontal (case 1)".to_string(),
            transfer_need(Pattern::Horizontal, h1).unwrap().ways(),
        ),
        (
            "Horizontal (case 2)".to_string(),
            transfer_need(Pattern::Horizontal, h2).unwrap().ways(),
        ),
        (
            "Inverted-L".to_string(),
            transfer_need(Pattern::InvertedL, il).unwrap().ways(),
        ),
        (
            "Knight-move".to_string(),
            transfer_need(Pattern::KnightMove, km).unwrap().ways(),
        ),
    ]
}
