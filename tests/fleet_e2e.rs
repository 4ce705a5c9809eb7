//! End-to-end acceptance for the heterogeneous serving fleet: a real
//! [`FleetBackend`] behind [`lddp_serve::Server`], driven by the load
//! generator over a mixed-size request stream. Checks the ISSUE's
//! acceptance bar directly: ≥500 oracle-checked requests with zero
//! mismatches, at least two fleet platforms receiving batches, at
//! least one cross-device MultiPlan split, and the `lddp_fleet_*`
//! families (including the predicted-vs-actual completion histogram)
//! present in the `/metrics` exposition.

use lddp::fleet_backend::{FleetBackend, FLEET_MULTI_N};
use lddp_core::schedule::ScheduleParams;
use lddp_serve::loadgen::{self, LoadgenConfig};
use lddp_serve::{ServeConfig, Server, SolveRequest};
use lddp_trace::{json, NullSink};

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 1024,
        max_batch: 8,
        ..ServeConfig::default()
    }
}

/// The acceptance-criteria run: ≥500 mixed-size requests through the
/// fleet, every answer oracle-checked, ≥2 platforms placed, ≥1
/// cross-device split, and the fleet metric families live.
#[test]
fn fleet_serves_500_mixed_requests_oracle_checked() {
    // One large size per ten keeps the split path exercised without
    // dominating the run's wall clock.
    let sizes = [48usize, 64, 96, 48, 128, 64, 200, 96, 48, FLEET_MULTI_N];
    let mix: Vec<(usize, Option<String>)> = sizes
        .iter()
        .map(|&n| (n, Some(lddp::cli::run_solve_seq("lcs", n).unwrap())))
        .collect();
    // One registry shared by server and backend, as `serve --fleet`
    // wires it, so the lddp_fleet_* families land in /metrics.
    let live = std::sync::Arc::new(lddp_trace::live::LiveRegistry::new());
    let backend = FleetBackend::new().with_live(std::sync::Arc::clone(&live));
    let mut server = Server::new(config(2), &backend, &NullSink);
    server.attach_live(live);
    let (report, metrics_text, stats) = server.run(None, |client| {
        let cfg = LoadgenConfig {
            request: SolveRequest::new("lcs", 48),
            total: 500,
            concurrency: 4,
            mix: mix.clone(),
            ..LoadgenConfig::default()
        };
        let report = loadgen::run(client, &cfg);
        (report, client.metrics_text(), client.stats_json())
    });

    assert_eq!(report.sent, 500);
    assert_eq!(report.completed, 500, "by_code: {:?}", report.by_code);
    assert_eq!(report.errors, 0);
    assert_eq!(report.rejected, 0);
    assert_eq!(
        report.mismatches, 0,
        "fleet-served answers diverged from the oracle"
    );

    // At least two platforms received batches.
    let placed: Vec<&(String, usize)> = report
        .fleet_placements
        .iter()
        .filter(|(_, count)| *count > 0)
        .collect();
    assert!(
        placed.len() >= 2,
        "expected ≥2 platforms placed, got {:?}",
        report.fleet_placements
    );
    let total_placed: usize = report.fleet_placements.iter().map(|(_, c)| c).sum();
    assert_eq!(total_placed, 500, "every response names its platform");

    // At least one large grid went through the cross-device split.
    assert!(
        report.multiplan_splits >= 1,
        "no cross-device MultiPlan split in a run with n={FLEET_MULTI_N} requests"
    );
    assert_eq!(
        backend.fleet().metrics().splits() as usize,
        report.multiplan_splits
    );

    // Fleet observability: per-platform placement counters and the
    // predicted-vs-actual completion histogram are in /metrics.
    for family in [
        "lddp_fleet_placements_total{platform=\"hetero-high\"}",
        "lddp_fleet_placements_total{platform=\"hetero-low\"}",
        "lddp_fleet_placements_total{platform=\"cpu-only\"}",
        "lddp_fleet_completion_ratio_count",
        "lddp_fleet_backlog_seconds",
        "lddp_fleet_multiplan_splits_total",
    ] {
        assert!(metrics_text.contains(family), "missing {family}");
    }

    // /stats splices the fleet section.
    let v = json::parse(&stats).expect("stats_json parses");
    let fleet = v.get("fleet").expect("fleet section in /stats");
    let platforms = fleet.get("platforms").expect("platforms array");
    assert!(platforms.as_arr().is_some_and(|a| a.len() == 3), "{stats}");
}

/// Replaying the same request stream against a fresh fleet yields the
/// same placement sequence — the dispatcher is a pure function of the
/// (place/begin/finish) event order, which one worker serializes.
#[test]
fn placement_stream_is_deterministic_with_one_worker() {
    let sizes = [48usize, 96, 48, 200, 96, 48, 128, 200, 64, 96];
    let run = || {
        let backend = FleetBackend::new();
        let server = Server::new(config(1), &backend, &NullSink);
        server.run(None, |client| {
            sizes
                .iter()
                .map(|&n| {
                    let resp = client.solve(SolveRequest::new("lcs", n)).unwrap();
                    assert!(!resp.placed_on.is_empty());
                    resp.placed_on
                })
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(run(), run(), "same stream, same placements");
}

/// Cross-device MultiPlan band splits reassemble oracle-identically
/// across problems with distinct canonical patterns.
#[test]
fn cross_device_splits_reassemble_for_five_problems() {
    let params = ScheduleParams::new(4, 8);
    for problem in [
        "lcs",
        "levenshtein",
        "needleman-wunsch",
        "smith-waterman",
        "dtw",
    ] {
        let multi = lddp::cli::run_solve_multi(problem, 48, params, 3, None).unwrap();
        let oracle = lddp::cli::run_solve_seq(problem, 48).unwrap();
        assert_eq!(multi.answer, oracle, "{problem} 3-way split");
        // Device counts survive into the summary line.
        assert!(
            multi.patterns.contains("column bands"),
            "{}",
            multi.patterns
        );
    }
}

/// `/healthz` surfaces per-platform pool readiness for the fleet.
#[test]
fn healthz_reports_per_platform_fleet_readiness() {
    let backend = FleetBackend::new();
    let server = Server::new(config(1), &backend, &NullSink);
    server.run(None, |client| {
        let h = client.healthz_json();
        let v = json::parse(&h).expect("healthz parses");
        let fleet = v.get("fleet").expect("fleet array in healthz");
        let pools = fleet.as_arr().expect("array");
        assert_eq!(pools.len(), 3, "{h}");
        for pool in pools {
            assert_eq!(
                pool.get("ready").and_then(|r| r.as_bool()),
                Some(true),
                "{h}"
            );
        }
        for name in ["hetero-high", "hetero-low", "cpu-only"] {
            assert!(h.contains(name), "{h}");
        }
    });
}
