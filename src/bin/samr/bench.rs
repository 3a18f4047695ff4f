//! `samr bench` — run the fixed wall-clock benchmark suites and emit
//! machine-readable `BENCH_<suite>.json` reports, or check a fresh run
//! against checked-in baselines.
//!
//! ```text
//! samr bench [--suite kernels|partition|campaign|sim|regrid|adaptive|solver|all] [--quick] [--out DIR]
//! samr bench --check BASELINE.json [--check …] [--tolerance PCT] [--quick]
//!            [--allow-budget-mismatch]
//! ```
//!
//! Emit mode runs the selected suites (default: all seven) and writes
//! one `BENCH_<suite>.json` per suite into `--out` (default: the
//! current directory). Check mode loads each baseline file, re-runs
//! that file's suite, and fails — exit status 1 — when any baseline
//! bench is missing or more than `--tolerance` percent slower (default
//! 10). The two modes are exclusive: emit-only flags (`--out`,
//! `--suite`) next to `--check` are rejected rather than silently
//! ignored. `--quick` shrinks the measurement budget for smoke runs;
//! quick numbers are for plumbing validation, not for pinning
//! baselines — so a check whose run budget differs from the baseline's
//! recorded budget refuses the apples-to-oranges comparison unless
//! `--allow-budget-mismatch` explicitly (and loudly) overrides it.

use crate::{flag_value, has_flag};
use samr::bench::harness::{compare, speedup, validate, BenchBudget, BenchRecord, BenchReport};
use samr::bench::suites;
use std::path::PathBuf;

/// Every value of a repeatable `--flag V` occurrence, in order.
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// Every suite, in the order `--suite all` runs them.
const SUITES: [&str; 7] = [
    "kernels",
    "partition",
    "campaign",
    "sim",
    "regrid",
    "adaptive",
    "solver",
];

fn unknown_suite(name: &str) -> String {
    format!(
        "unknown suite '{name}' (expected {} | all)",
        SUITES.join(" | ")
    )
}

fn run_suite(suite: &str, budget: BenchBudget) -> Result<BenchReport, String> {
    let rep = match suite {
        "kernels" => suites::kernels_report(budget),
        "partition" => suites::partition_report(budget),
        "campaign" => suites::campaign_report(budget),
        "sim" => suites::sim_report(budget),
        "regrid" => suites::regrid_report(budget),
        "adaptive" => suites::adaptive_report(budget),
        "solver" => suites::solver_report(budget),
        other => return Err(unknown_suite(other)),
    };
    validate(&rep).map_err(|e| format!("suite '{suite}' produced an invalid report: {e}"))?;
    Ok(rep)
}

fn print_record(b: &BenchRecord) {
    match (&b.throughput, &b.throughput_units) {
        (Some(tp), Some(units)) => eprintln!(
            "  {:<28} {:>14.0} ns/op  {:>14.3e} {units}",
            b.name, b.ns_per_op, tp
        ),
        _ => eprintln!("  {:<28} {:>14.0} ns/op", b.name, b.ns_per_op),
    }
}

/// For every `<name>`/`<name>_scalar` and `<name>`/`<name>_naive` pair
/// in a report, print the optimized-over-baseline speedup — the number
/// the perf trajectory is judged by.
fn print_speedups(rep: &BenchReport) {
    for b in &rep.benches {
        let pair = [("_scalar", "scalar"), ("_naive", "naive")]
            .into_iter()
            .find_map(|(suffix, label)| {
                rep.get(&format!("{}{suffix}", b.name)).map(|r| (r, label))
            });
        let Some((base, label)) = pair else {
            continue;
        };
        // A degenerate timing (ns_per_op of 0, or non-finite) must not
        // print as an infinite or NaN speedup.
        match speedup(base, b) {
            Some(x) => eprintln!("  {:<28} {:>13.2}x vs {label} reference", b.name, x),
            None => eprintln!("  {:<28} speedup undefined (degenerate timing)", b.name),
        }
    }
}

fn run_checks(args: &[String], checks: &[String], budget: BenchBudget) -> Result<(), String> {
    let tolerance: f64 = flag_value(args, "--tolerance")
        .map(|v| v.parse().map_err(|e| format!("bad --tolerance '{v}': {e}")))
        .transpose()?
        .unwrap_or(10.0);
    if !(0.0..=10_000.0).contains(&tolerance) {
        return Err(format!("--tolerance {tolerance} out of range (0..=10000)"));
    }
    let mut failures = 0usize;
    for path in checks {
        let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let baseline: BenchReport =
            serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))?;
        validate(&baseline).map_err(|e| format!("baseline {path} is invalid: {e}"))?;
        // Numbers measured under different budgets are not comparable:
        // a quick re-run against a full-budget baseline would report
        // phantom regressions (or mask real ones). Refuse unless the
        // operator explicitly accepts the noise.
        let run_budget = budget.name();
        if baseline.budget != run_budget {
            if has_flag(args, "--allow-budget-mismatch") {
                eprintln!(
                    "warning: comparing a '{run_budget}'-budget run against the \
                     '{}'-budget baseline {path}: timings are not \
                     apples-to-apples, expect noise (--allow-budget-mismatch)",
                    baseline.budget
                );
            } else {
                return Err(format!(
                    "baseline {path} was measured under the '{}' budget but this \
                     run uses '{run_budget}': the comparison would be \
                     apples-to-oranges. Re-run with the matching budget, or pass \
                     --allow-budget-mismatch to compare anyway",
                    baseline.budget
                ));
            }
        }
        eprintln!(
            "checking suite '{}' against {path} (tolerance {tolerance}%, {run_budget} budget)",
            baseline.suite
        );
        let current = run_suite(&baseline.suite, budget)?;
        let regressions = compare(&current, &baseline, tolerance);
        if regressions.is_empty() {
            eprintln!("  ok: {} benches within tolerance", baseline.benches.len());
        } else {
            for r in &regressions {
                eprintln!("  REGRESSION {r}");
            }
            failures += regressions.len();
        }
    }
    if failures > 0 {
        return Err(format!("{failures} benchmark regression(s)"));
    }
    Ok(())
}

pub fn cmd_bench(args: &[String]) -> Result<(), String> {
    let budget = if has_flag(args, "--quick") {
        BenchBudget::quick()
    } else {
        BenchBudget::default_budget()
    };
    let checks = flag_values(args, "--check");
    if !checks.is_empty() {
        // Check mode never writes reports or picks suites (each baseline
        // names its own suite): silently ignoring an emit-only flag
        // would do something other than what the command line reads —
        // the same policy as `--spec` vs axis flags in `campaign`.
        for conflict in ["--out", "--suite"] {
            if has_flag(args, conflict) {
                return Err(format!(
                    "{conflict} conflicts with --check: check mode re-runs each \
                     baseline's own suite and writes nothing"
                ));
            }
        }
        return run_checks(args, &checks, budget);
    }
    if has_flag(args, "--tolerance") {
        return Err("--tolerance only applies with --check".into());
    }
    if has_flag(args, "--allow-budget-mismatch") {
        return Err("--allow-budget-mismatch only applies with --check".into());
    }
    let selected: Vec<&str> = match flag_value(args, "--suite").as_deref() {
        None | Some("all") => SUITES.to_vec(),
        Some(s) => vec![*SUITES
            .iter()
            .find(|&&name| name == s)
            .ok_or_else(|| unknown_suite(s))?],
    };
    let out_dir = PathBuf::from(flag_value(args, "--out").unwrap_or_else(|| ".".into()));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    for suite in selected {
        eprintln!(
            "running suite '{suite}' ({} budget) …",
            if has_flag(args, "--quick") {
                "quick"
            } else {
                "full"
            }
        );
        let rep = run_suite(suite, budget)?;
        for b in &rep.benches {
            print_record(b);
        }
        print_speedups(&rep);
        let path = out_dir.join(format!("BENCH_{suite}.json"));
        let json = serde_json::to_string_pretty(&rep)
            .map_err(|e| format!("serialize {suite} report: {e}"))?;
        std::fs::write(&path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "wrote {} ({} benches, {} threads, {})",
            path.display(),
            rep.benches.len(),
            rep.threads,
            rep.git_describe
        );
    }
    Ok(())
}
