//! Static vs. dynamic partitioner selection on a trace — the
//! proof-of-concept experiment for the meta-partitioner.
//!
//! The paper motivates the meta-partitioner with Figure 1 (a static P
//! leaves execution time on the table) and the ArMADA result ("even with
//! such a simple model, execution times were reduced"). This driver makes
//! that claim measurable: run a trace through every static partitioner
//! and through the [`MetaPartitioner`], under the same machine model, and
//! compare total estimated execution times.

use crate::meta::MetaPartitioner;
use crate::octant_meta::OctantMetaPartitioner;
use samr_partition::{DomainSfcPartitioner, HybridPartitioner, Partitioner, PatchPartitioner};
use samr_sim::{simulate_source_stats, SimConfig, StepMetrics};
use samr_trace::io::TraceIoError;
use samr_trace::{HierarchyTrace, MemorySource, SnapshotSource};
use serde::{Deserialize, Serialize};

/// Result of one partitioner (static or dynamic) over a trace.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Partitioner name.
    pub name: String,
    /// Total estimated execution time.
    pub total_time: f64,
    /// Mean load imbalance over the run.
    pub mean_imbalance: f64,
    /// Mean grid-relative communication.
    pub mean_rel_comm: f64,
    /// Mean grid-relative migration.
    pub mean_rel_migration: f64,
}

/// Outcome of the full comparison.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ComparisonResult {
    /// Static partitioner outcomes.
    pub static_runs: Vec<RunOutcome>,
    /// The meta-partitioner (continuous classification) outcome.
    pub meta_run: RunOutcome,
    /// The octant-approach baseline (discrete ArMADA-style
    /// classification) outcome — the legacy selector §3 critiques.
    pub octant_run: RunOutcome,
}

impl ComparisonResult {
    /// The best static outcome (an *oracle* static choice — stronger than
    /// what a user could pick a priori).
    pub fn best_static(&self) -> &RunOutcome {
        self.static_runs
            .iter()
            .min_by(|a, b| a.total_time.total_cmp(&b.total_time))
            .expect("at least one static partitioner")
    }

    /// The worst static outcome (the cost of picking wrong, once, for the
    /// whole run).
    pub fn worst_static(&self) -> &RunOutcome {
        self.static_runs
            .iter()
            .max_by(|a, b| a.total_time.total_cmp(&b.total_time))
            .expect("at least one static partitioner")
    }

    /// Meta time / best static time (< 1 means the dynamic selection beat
    /// even the oracle static choice).
    pub fn meta_vs_best(&self) -> f64 {
        self.meta_run.total_time / self.best_static().total_time
    }

    /// Meta time / worst static time.
    pub fn meta_vs_worst(&self) -> f64 {
        self.meta_run.total_time / self.worst_static().total_time
    }
}

/// Run one (possibly stateful) partitioner strictly sequentially over a
/// snapshot stream (window 1: the meta-partitioner's classification
/// depends on the previous hierarchy) and summarize it.
fn run_outcome<const D: usize>(
    source: &mut (dyn SnapshotSource<D> + '_),
    partitioner: &(dyn Partitioner<D> + Sync),
    cfg: &SimConfig,
) -> Result<RunOutcome, TraceIoError> {
    let (result, _) = simulate_source_stats(source, partitioner, cfg, 1)?;
    Ok(outcome(
        partitioner.name(),
        &result.steps,
        result.total_time,
    ))
}

fn outcome(name: String, steps: &[StepMetrics], total: f64) -> RunOutcome {
    let n = steps.len().max(1) as f64;
    RunOutcome {
        name,
        total_time: total,
        mean_imbalance: steps.iter().map(|s| s.load_imbalance).sum::<f64>() / n,
        mean_rel_comm: steps.iter().map(|s| s.rel_comm).sum::<f64>() / n,
        mean_rel_migration: steps.iter().map(|s| s.rel_migration).sum::<f64>() / n,
    }
}

/// Compare the three static partitioner families (default
/// configurations) against the meta-partitioner. The snapshot stream is
/// opened through `open` exactly **once** and drained into a shared
/// in-memory trace that every pass replays — N compared partitioners
/// cost one trace generation (an `open` backed by a generator used to
/// regenerate the whole trace per pass). Each pass runs strictly
/// sequentially (the selectors are stateful).
pub fn compare_on_sources<const D: usize, S, F>(
    mut open: F,
    cfg: &SimConfig,
) -> Result<ComparisonResult, TraceIoError>
where
    S: SnapshotSource<D>,
    F: FnMut() -> Result<S, TraceIoError>,
{
    let trace = {
        let mut source = open()?;
        let mut t = HierarchyTrace::new(source.meta().clone());
        while let Some(snap) = source.next_snapshot()? {
            t.push(snap);
        }
        t
    };
    let statics: Vec<Box<dyn Partitioner<D> + Sync>> = vec![
        Box::new(DomainSfcPartitioner::default()),
        Box::new(PatchPartitioner::default()),
        Box::new(HybridPartitioner::default()),
    ];
    let static_runs = statics
        .iter()
        .map(|p| run_outcome(&mut MemorySource::new(&trace), p.as_ref(), cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let meta = MetaPartitioner::for_machine(&cfg.machine);
    let octant = OctantMetaPartitioner::new();
    Ok(ComparisonResult {
        static_runs,
        meta_run: run_outcome(&mut MemorySource::new(&trace), &meta, cfg)?,
        octant_run: run_outcome(&mut MemorySource::new(&trace), &octant, cfg)?,
    })
}

/// Compare the three static partitioner families (default configurations)
/// against the meta-partitioner on one in-memory trace — the batch
/// facade over [`compare_on_sources`].
pub fn compare_on_trace<const D: usize>(
    trace: &HierarchyTrace<D>,
    cfg: &SimConfig,
) -> ComparisonResult {
    compare_on_sources(|| Ok(MemorySource::new(trace)), cfg)
        .expect("in-memory snapshot sources cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_apps::{generate_trace, AppKind, TraceGenConfig};

    fn cfg() -> SimConfig {
        SimConfig {
            nprocs: 8,
            ..SimConfig::default()
        }
    }

    #[test]
    fn comparison_produces_all_outcomes() {
        let trace = generate_trace(AppKind::Tp2d, &TraceGenConfig::smoke());
        let res = compare_on_trace(&trace, &cfg());
        assert_eq!(res.static_runs.len(), 3);
        assert!(res.meta_run.total_time > 0.0);
        for r in &res.static_runs {
            assert!(r.total_time > 0.0);
            assert!(r.mean_imbalance >= 1.0);
        }
    }

    #[test]
    fn meta_is_competitive_with_static_choices() {
        // The proof-of-concept claim: dynamic selection should not lose
        // badly to the oracle static choice and should beat the worst
        // static choice.
        let trace = generate_trace(AppKind::Bl2d, &TraceGenConfig::smoke());
        let res = compare_on_trace(&trace, &cfg());
        assert!(
            res.meta_vs_worst() < 1.0,
            "meta ({}) should beat the worst static ({})",
            res.meta_run.total_time,
            res.worst_static().total_time
        );
        assert!(
            res.meta_vs_best() < 1.6,
            "meta ({}) should stay near the best static ({})",
            res.meta_run.total_time,
            res.best_static().total_time
        );
    }

    #[test]
    fn comparison_generates_the_trace_once() {
        // Five partitioners are compared, but the source is opened (and
        // the trace therefore generated) exactly once.
        let trace = generate_trace(AppKind::Tp2d, &TraceGenConfig::smoke());
        let mut opens = 0usize;
        let shared = compare_on_sources::<2, _, _>(
            || {
                opens += 1;
                Ok(MemorySource::new(&trace))
            },
            &cfg(),
        )
        .unwrap();
        assert_eq!(opens, 1);
        // And the shared replay changes nothing about the outcomes.
        assert_eq!(shared, compare_on_trace(&trace, &cfg()));
    }

    #[test]
    fn sequential_static_runs_match_the_batch_driver() {
        use samr_sim::simulate_trace;
        let trace = generate_trace(AppKind::Sc2d, &TraceGenConfig::smoke());
        let cfg = cfg();
        let res = compare_on_trace(&trace, &cfg);
        let p = DomainSfcPartitioner::default();
        let par = simulate_trace(&trace, &p, &cfg);
        assert_eq!(
            res.static_runs[0],
            outcome(Partitioner::<2>::name(&p), &par.steps, par.total_time)
        );
    }
}
