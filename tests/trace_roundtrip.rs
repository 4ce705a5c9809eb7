//! Acceptance tests for the observability stack: a traced framework
//! solve must export a Chrome trace-event JSON whose structure matches
//! the schedule (one span per phase, per-wave CPU/GPU spans, Link
//! transfer spans), and the export must survive a parse round-trip with
//! the event count and ordering intact.

use lddp::core::schedule::ScheduleParams;
use lddp::platforms::hetero_high;
use lddp::problems::LevenshteinKernel;
use lddp::trace::{chrome, json, tracks, Recorder};
use lddp::workloads::random_seq;
use lddp::Framework;

fn traced_levenshtein(n: usize) -> (lddp::trace::TraceData, lddp::Solution<u32>) {
    let kernel = LevenshteinKernel::new(random_seq(n, 4, 1), random_seq(n, 4, 2));
    let fw = Framework::new(hetero_high()).with_io_bytes(2 * n, 8);
    let rec = Recorder::new();
    let solution = fw
        .solve_traced(&kernel, Some(ScheduleParams::new(8, 24)), &rec)
        .unwrap();
    (rec.into_data(), solution)
}

#[test]
fn trace_structure_matches_the_schedule() {
    let (data, solution) = traced_levenshtein(96);

    // ≥ 1 span per schedule phase, on the schedule track, matching the
    // per-phase stats the solution reports.
    let phase_spans: Vec<_> = data
        .spans
        .iter()
        .filter(|s| s.track == tracks::SCHEDULE)
        .collect();
    assert!(!solution.phases.is_empty());
    assert_eq!(phase_spans.len(), solution.phases.len());
    for (span, stat) in phase_spans.iter().zip(&solution.phases) {
        assert!((span.dur_s - stat.wall_s).abs() < 1e-9);
    }

    // Per-wave compute spans on the CPU and GPU engine tracks.
    assert!(data.spans_named("wave").any(|s| s.track == tracks::CPU));
    assert!(data.spans_named("wave").any(|s| s.track == tracks::GPU));

    // Link transfer spans for the shared phase's boundary copies.
    assert!(data.spans_named("copy").any(|s| s.track == tracks::LINK));

    // Busy time on the trace equals the breakdown's accounting.
    assert!((data.track_busy_s(tracks::CPU) - solution.breakdown.cpu_busy_s).abs() < 1e-9);
    assert!((data.track_busy_s(tracks::GPU) - solution.breakdown.gpu_busy_s).abs() < 1e-9);
}

#[test]
fn chrome_export_round_trips_count_and_order() {
    let (data, _) = traced_levenshtein(64);
    let text = chrome::to_chrome_json(&data);
    let v = json::parse(&text).unwrap();
    let events = v.get("traceEvents").and_then(|j| j.as_arr()).unwrap();

    // Every span came back as an X event, in emission order.
    let xs: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|j| j.as_str()) == Some("X"))
        .collect();
    assert_eq!(xs.len(), data.spans.len());
    for (x, span) in xs.iter().zip(&data.spans) {
        assert_eq!(
            x.get("name").and_then(|j| j.as_str()),
            Some(span.name.as_str())
        );
        let ts = x.get("ts").and_then(|j| j.as_f64()).unwrap();
        assert!((ts - span.start_s * 1e6).abs() < 1e-6);
        let pid = x.get("pid").and_then(|j| j.as_f64()).unwrap();
        assert_eq!(pid as u32, span.track.pid);
    }

    // Instants and counter samples survive too.
    let is: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|j| j.as_str()) == Some("i"))
        .collect();
    assert_eq!(is.len(), data.instants.len());
    let cs: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|j| j.as_str()) == Some("C"))
        .collect();
    assert_eq!(cs.len(), data.samples.len());
}

#[test]
fn tuned_traced_solve_records_sweep_points() {
    let kernel = LevenshteinKernel::new(random_seq(48, 4, 5), random_seq(48, 4, 6));
    let fw = Framework::new(hetero_high());
    let rec = Recorder::new();
    let solution = fw.solve_traced(&kernel, None, &rec).unwrap();
    let data = rec.snapshot();
    // The tuner recorded every sweep evaluation before the run.
    assert!(data.counters["tuner.evals"] >= 2);
    assert!(data
        .instants
        .iter()
        .any(|e| e.name == "tuner.sweep" && e.track == tracks::TUNER));
    // And the traced answer matches an untraced solve with the same
    // parameters.
    let check = fw.solve_with(&kernel, solution.params).unwrap();
    assert_eq!(solution.grid.to_row_major(), check.grid.to_row_major());
}

#[test]
fn parallel_engine_histogram_flows_through_the_same_sink() {
    use lddp::core::cell::{ContributingSet, RepCell};
    use lddp::core::kernel::{ClosureKernel, Neighbors};
    use lddp::core::Dims;
    use lddp::parallel::{ParallelEngine, SolveSpec};

    let set = ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N]);
    let kernel = ClosureKernel::new(Dims::new(64, 64), set, |i, j, n: &Neighbors<u64>| {
        n.w.unwrap_or(1)
            .wrapping_add(n.n.unwrap_or(i as u64))
            .wrapping_add(n.nw.unwrap_or(j as u64))
    });
    let rec = Recorder::new();
    rec.register_histogram(
        "parallel.barrier_wait_s",
        vec![1e-7, 1e-6, 1e-5, 1e-4, 1e-3],
    );
    let spec = SolveSpec {
        sink: &rec,
        ..SolveSpec::default()
    };
    ParallelEngine::new(2).solve_with(&kernel, &spec).unwrap();
    let data = rec.snapshot();
    let h = &data.histograms["parallel.barrier_wait_s"];
    assert!(h.count > 0, "barrier waits must be observed");
    assert_eq!(h.counts.len(), 6);
    assert!(
        data.samples
            .iter()
            .filter(|s| s.name == "worker.busy_s")
            .count()
            == 2
    );
    assert!(data.counters["parallel.waves"] > 0);
}
