//! Coverage contract between the problem crate and its drivers: every
//! kernel `lddp-problems` exports must be reachable through
//! `lddp-cli --problem <name>`, solvable end to end, and must agree
//! with the sequential oracle. A kernel registered in
//! [`lddp::problems::NAMES`] but missing from the CLI dispatch fails
//! here instead of silently becoming dead code.

use lddp::cli;
use lddp_trace::NullSink;

#[test]
fn every_exported_problem_is_reachable_from_the_cli() {
    for name in lddp::problems::NAMES {
        assert!(
            cli::PROBLEMS.contains(name),
            "problem \"{name}\" is exported by lddp-problems but not \
             registered in lddp-cli's --problem dispatch"
        );
        assert!(
            cli::parse(&[
                "solve".to_string(),
                "--problem".to_string(),
                name.to_string(),
                "--n".to_string(),
                "16".to_string(),
            ])
            .is_ok(),
            "\"{name}\" does not parse as a --problem value"
        );
    }
}

#[test]
fn every_exported_problem_solves_and_matches_the_oracle() {
    for name in lddp::problems::NAMES {
        let out = cli::run_solve_traced(name, 24, "high", None, &NullSink)
            .unwrap_or_else(|e| panic!("solving \"{name}\" failed: {e}"));
        let oracle = cli::run_solve_seq(name, 24)
            .unwrap_or_else(|e| panic!("sequential oracle for \"{name}\" failed: {e}"));
        assert_eq!(
            out.summary.answer, oracle,
            "\"{name}\": heterogeneous answer diverges from the sequential oracle"
        );
    }
}

#[test]
fn every_cli_problem_is_classifiable_and_tunable() {
    for name in cli::PROBLEMS {
        let pattern = cli::classify_problem(name, 24)
            .unwrap_or_else(|e| panic!("classifying \"{name}\" failed: {e}"));
        assert!(pattern.is_canonical(), "\"{name}\" classified as {pattern}");
        cli::tune_params(name, 24, "low")
            .unwrap_or_else(|e| panic!("tuning \"{name}\" failed: {e}"));
    }
}

#[test]
fn tune_balance_and_compare_run_every_cli_problem() {
    for name in cli::PROBLEMS {
        cli::run_tune(name, 24, "high", false)
            .unwrap_or_else(|e| panic!("`tune` on \"{name}\" failed: {e}"));
        cli::run_balance(name, 24, "high", 4)
            .unwrap_or_else(|e| panic!("`balance` on \"{name}\" failed: {e}"));
        cli::run_compare_data(name, 24, "low")
            .unwrap_or_else(|e| panic!("`compare` on \"{name}\" failed: {e}"));
    }
}

#[test]
fn compare_runs_the_named_problem_not_a_stand_in() {
    let dtw = cli::run_compare("dtw", 64, "low").unwrap();
    let fig9 = cli::run_compare("fig9", 64, "low").unwrap();
    let numbers = |out: &str| out.lines().skip(1).collect::<Vec<_>>().join("\n");
    assert_ne!(numbers(&dtw), numbers(&fig9), "dtw:\n{dtw}\nfig9:\n{fig9}");
}
