//! The traced campaign run: the campaign a workload runs, driven through
//! the engine's public entry points with timing adapters at each layer
//! boundary, so the per-layer split is measured from outside the
//! program.
//!
//! **Set-up.** The store is warmed with `cached_model` per application,
//! rayon-parallel, as the campaign executor warms it (the whole call is
//! `engine.store_warm_ms`). Its stages are private, so they are split by
//! replaying each through public calls afterwards:
//!
//! - cold store only, one application at a time: the trace generator
//!   stream (`trace_source_any`, timed per `next_snapshot`) written with
//!   the binary codec, whose bytes must equal the store's spill file,
//!   with a bare solver replica (`Kernel::advance_coarse_step` via
//!   `make_kernel`, or the analytic 3-D driver) stepped in lockstep, so
//!   `grid.regrid_ms` = next_snapshot − advance compares timings taken
//!   under the same conditions;
//! - always: the spill decode (`open_trace_source(..).collect()`) and
//!   the model fold over it, exactly as the store performs them.
//!
//! The replays are work the untraced run does not do; they are part of
//! the reported tracing overhead. The solvers' row sweeps run on threads
//! of their own, so set-up counts toward the busy time by the process
//! CPU it uses rather than by span length.
//!
//! **Sweep.** Every planned scenario runs rayon-parallel the way
//! `Scenario::run` runs it, with the scenario's partitioner (and an
//! adaptive policy's balanced fallback) wrapped in [`TimedPartitioner`]
//! and its snapshot source in [`TimedSource`]. Both forward every trait
//! method, so the call path is the engine's own. Artifacts are rendered
//! and written as `Campaign::run_to_dir` writes them, so `run.py` can
//! compare them byte for byte with the untraced run's.
//!
//! Self times assume a nested parallel operation runs inline on the
//! calling worker, as the vendored rayon guarantees: a span's children
//! then execute on the span's own thread.

use rayon::prelude::*;
use samr_apps::tracegen::make_kernel;
use samr_apps::{trace_source_any, AppKind, Sp3d, TraceGenConfig};
use samr_core::{ModelPipeline, ModelState};
use samr_engine::{
    atomic_write, build_thread_pool, cached_model, cached_source, compute_front, write_front,
    CampaignManifest, CampaignPlan, CampaignSpec, CompletionRecord, Objective, PartitionerSpec,
    PlannedScenario, PolicySpec, Scenario, ScenarioOutcome, ShapeStats, ShardStrategy,
};
use samr_grid::GridHierarchy;
use samr_meta::AdaptivePolicy;
use samr_partition::{Partition, PartitionScratch, Partitioner, PartitionerChoice};
use samr_sim::{
    simulate_policy_source_stats, simulate_source_stats, PartitionPolicy, PolicySwitch, SimResult,
    StepMetrics, StreamStats,
};
use samr_trace::io::{open_trace_source, write_binary_source, TraceIoError};
use samr_trace::{shared_source, AnySnapshotSource, AnyTrace, HierarchyTrace, Snapshot};
use samr_trace::{SnapshotSource, TraceMeta};
use std::cell::Cell;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The raw counters of one traced run. Times are nanoseconds.
#[derive(Clone, Copy)]
enum C {
    AdvanceNs,
    AdvanceCalls,
    NextSnapshotNs,
    Patches,
    SpillWriteNs,
    SpillReadNs,
    SpillBytes,
    ModelNs,
    StoreWarmNs,
    PartitionNs,
    PartitionCalls,
    Fragments,
    DomainSfcNs,
    PatchNs,
    HybridNs,
    MetaNs,
    OctantMetaNs,
    /// Scenario snapshot pulls: the source children subtracted from the
    /// stream driver's span.
    SourceNs,
    StreamSelfNs,
    ReuseSkips,
    PeakResident,
    CommCells,
    MigrationCells,
    Switches,
    SwitchMigrationCells,
    ArtifactNs,
    ArtifactBytes,
    ParetoNs,
    StreamWindow,
}

const COUNTERS: usize = C::StreamWindow as usize + 1;

// Statistics only: no counter publishes other data, so Relaxed suffices.
static COUNTS: [AtomicU64; COUNTERS] = [const { AtomicU64::new(0) }; COUNTERS];

fn add(c: C, v: u64) {
    COUNTS[c as usize].fetch_add(v, Relaxed);
}

fn get(c: C) -> u64 {
    COUNTS[c as usize].load(Relaxed)
}

thread_local! {
    /// Time this thread has spent inside timed child spans (partition
    /// calls and source pulls), for the self time of their parent.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

fn child_ns() -> u64 {
    CHILD_NS.with(Cell::get)
}

fn nanos(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Run `f`, adding its duration to `c`; returns its result and duration.
fn timed<R>(c: C, f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    let ns = nanos(start);
    add(c, ns);
    (out, ns)
}

fn choice_family(choice: &PartitionerChoice) -> C {
    match choice {
        PartitionerChoice::DomainSfc(_) => C::DomainSfcNs,
        PartitionerChoice::Patch(_) => C::PatchNs,
        PartitionerChoice::Hybrid(_) => C::HybridNs,
    }
}

fn spec_family(spec: &PartitionerSpec) -> C {
    match spec {
        PartitionerSpec::Static(choice) => choice_family(choice),
        PartitionerSpec::Meta => C::MetaNs,
        PartitionerSpec::OctantMeta => C::OctantMetaNs,
    }
}

/// A partitioner that times every partitioning call and counts the
/// fragments it returns, forwarding all trait methods to `inner`.
struct TimedPartitioner<const D: usize> {
    inner: Box<dyn Partitioner<D> + Send + Sync>,
    family: C,
}

impl<const D: usize> TimedPartitioner<D> {
    fn record(&self, start: Instant, part: &Partition<D>) {
        let ns = nanos(start);
        add(C::PartitionNs, ns);
        add(self.family, ns);
        add(C::PartitionCalls, 1);
        let fragments: usize = part.levels.iter().map(|l| l.fragments.len()).sum();
        add(C::Fragments, fragments as u64);
        CHILD_NS.with(|c| c.set(c.get() + ns));
    }
}

impl<const D: usize> Partitioner<D> for TimedPartitioner<D> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn partition(&self, h: &GridHierarchy<D>, nprocs: usize) -> Partition<D> {
        let start = Instant::now();
        let part = self.inner.partition(h, nprocs);
        self.record(start, &part);
        part
    }

    fn partition_with(
        &self,
        h: &GridHierarchy<D>,
        nprocs: usize,
        scratch: &mut PartitionScratch<D>,
    ) -> Partition<D> {
        let start = Instant::now();
        let part = self.inner.partition_with(h, nprocs, scratch);
        self.record(start, &part);
        part
    }

    fn cost_estimate(&self, h: &GridHierarchy<D>) -> f64 {
        self.inner.cost_estimate(h)
    }
}

/// A snapshot source that times every pull into `counter`, forwarding
/// all trait methods to `inner`.
struct TimedSource<'a, const D: usize> {
    inner: &'a mut (dyn SnapshotSource<D> + 'a),
    counter: C,
}

impl<const D: usize> SnapshotSource<D> for TimedSource<'_, D> {
    fn meta(&self) -> &TraceMeta<D> {
        self.inner.meta()
    }

    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError> {
        let (snap, ns) = timed(self.counter, || self.inner.next_snapshot());
        CHILD_NS.with(|c| c.set(c.get() + ns));
        snap
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

/// An adaptive policy whose balanced fallback is timed too. The inner
/// policy owns the timed local partitioner and makes every decision;
/// this wrapper only substitutes its own timed copy of the fallback
/// while the inner policy is in balanced mode. The inner policy has
/// exactly two modes and every switch toggles between them, which the
/// name check below confirms on each switch.
struct TimedPolicy<const D: usize> {
    inner: AdaptivePolicy<D>,
    balanced: TimedPartitioner<D>,
    local_mode: bool,
}

impl<const D: usize> PartitionPolicy<D> for TimedPolicy<D> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn current(&self) -> &(dyn Partitioner<D> + Sync) {
        if self.local_mode {
            self.inner.current()
        } else {
            &self.balanced
        }
    }

    fn observe(&mut self, m: &StepMetrics) -> Option<PolicySwitch> {
        let switch = self.inner.observe(m);
        if switch.is_some() {
            self.local_mode = !self.local_mode;
            assert_eq!(
                self.current().name(),
                self.inner.current().name(),
                "the adaptive policy is no longer a two-mode toggle"
            );
        }
        switch
    }

    fn is_static(&self) -> bool {
        self.inner.is_static()
    }
}

/// Simulate one scenario's snapshot stream with timed adapters, exactly
/// as `PolicySpec::simulate_source` drives it.
fn simulate<const D: usize>(
    s: &Scenario,
    source: &mut (dyn SnapshotSource<D> + '_),
) -> Result<(SimResult, StreamStats), TraceIoError> {
    let mut source = TimedSource {
        inner: source,
        counter: C::SourceNs,
    };
    let local = TimedPartitioner {
        inner: s.partitioner.build::<D>(&s.sim.machine),
        family: spec_family(&s.partitioner),
    };
    let window = match s.policy {
        PolicySpec::Static => s.partitioner.window(),
        PolicySpec::Adaptive(_) => 1,
    };
    COUNTS[C::StreamWindow as usize].fetch_max(window as u64, Relaxed);
    match s.policy {
        PolicySpec::Static => simulate_source_stats(&mut source, &local, &s.sim, window),
        PolicySpec::Adaptive(cfg) => {
            let balanced = TimedPartitioner {
                inner: cfg.balanced.boxed::<D>(),
                family: choice_family(&cfg.balanced),
            };
            let mut policy = TimedPolicy {
                inner: AdaptivePolicy::new(Box::new(local), cfg),
                balanced,
                local_mode: true,
            };
            simulate_policy_source_stats(&mut source, &mut policy, &s.sim, window)
        }
    }
}

/// Run one scenario as `Scenario::run` does, through the timed driver.
fn run_scenario(s: &Scenario) -> Result<ScenarioOutcome, String> {
    let model = cached_model(s.app, &s.trace);
    let source = cached_source(s.app, &s.trace).map_err(|e| format!("open source: {e}"))?;
    let children = child_ns();
    let start = Instant::now();
    let (sim, stats) = match source {
        AnySnapshotSource::D2(mut src) => simulate::<2>(s, src.as_mut()),
        AnySnapshotSource::D3(mut src) => simulate::<3>(s, src.as_mut()),
    }
    .map_err(|e| format!("simulate {}: {e}", s.slug()))?;
    add(
        C::StreamSelfNs,
        nanos(start).saturating_sub(child_ns() - children),
    );

    // The driver charges no partitioning cost exactly on the steps that
    // reuse the previous partition; every partitioner's cost estimate is
    // positive on a non-empty hierarchy.
    let reused = sim.steps.iter().filter(|m| m.partition_cost == 0.0).count();
    add(C::ReuseSkips, reused as u64);
    COUNTS[C::PeakResident as usize].fetch_max(stats.peak_resident as u64, Relaxed);
    add(C::CommCells, sim.steps.iter().map(|m| m.comm_cells).sum());
    add(
        C::MigrationCells,
        sim.steps.iter().map(|m| m.migration_cells).sum(),
    );
    add(C::Switches, stats.switches() as u64);
    add(C::SwitchMigrationCells, stats.switch_migration_cells());
    Ok(outcome(s, sim, stats, model))
}

/// Assemble the outcome the engine assembles from a simulation result
/// (step 0 has no migration and no β_m, so shape statistics start at
/// step 1).
fn outcome(
    s: &Scenario,
    sim: SimResult,
    stats: StreamStats,
    model: Arc<Vec<ModelState>>,
) -> ScenarioOutcome {
    let tail = |f: fn(&ModelState) -> f64| model.iter().skip(1).map(f).collect::<Vec<f64>>();
    let measured =
        |f: fn(&StepMetrics) -> f64| sim.steps.iter().skip(1).map(f).collect::<Vec<f64>>();
    ScenarioOutcome {
        comm_shape: ShapeStats::compare(&tail(|m| m.beta_c), &measured(|m| m.rel_comm)),
        migration_shape: ShapeStats::compare(&tail(|m| m.beta_m), &measured(|m| m.rel_migration)),
        scenario: s.clone(),
        sim,
        stats,
        model,
    }
}

/// The store's spill file for each application, found by reading the
/// application name from each file's header.
fn spill_files() -> Result<Vec<(String, PathBuf)>, String> {
    let dir = std::env::temp_dir().join("samr-trace-cache");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
        let path = entry
            .map_err(|e| format!("list {}: {e}", dir.display()))?
            .path();
        if path.extension().is_some_and(|x| x == "trc") {
            let app = open_trace_source(&path)
                .map_err(|e| format!("open {}: {e}", path.display()))?
                .app();
            out.push((app, path));
        }
    }
    Ok(out)
}

fn spill_file_of(files: &[(String, PathBuf)], app: AppKind) -> Result<&Path, String> {
    let mut matches = files.iter().filter(|(name, _)| name == app.name());
    match (matches.next(), matches.next()) {
        (Some((_, path)), None) => Ok(path),
        _ => Err(format!(
            "expected exactly one spill file for {} in the store",
            app.name()
        )),
    }
}

/// The generator stream with a bare solver replica stepped in lockstep:
/// before every pull that advances the generator, the replica takes the
/// same coarse step first, so the advance and next_snapshot timings see
/// the same machine conditions.
struct Lockstep<'a, const D: usize> {
    generator: TimedSource<'a, D>,
    advance: &'a mut dyn FnMut(),
    steps: u32,
    pulls: u32,
}

impl<const D: usize> SnapshotSource<D> for Lockstep<'_, D> {
    fn meta(&self) -> &TraceMeta<D> {
        self.generator.meta()
    }

    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError> {
        // The generator emits step 0 without advancing, then advances
        // once per step up to `steps`.
        if (1..self.steps).contains(&self.pulls) {
            let ((), ns) = timed(C::AdvanceNs, &mut *self.advance);
            add(C::AdvanceCalls, 1);
            CHILD_NS.with(|c| c.set(c.get() + ns));
        }
        self.pulls += 1;
        self.generator.next_snapshot()
    }

    fn len_hint(&self) -> Option<usize> {
        self.generator.len_hint()
    }
}

/// Replay trace generation, written with the binary codec, beside the
/// bare solver (`Kernel::advance_coarse_step` via `make_kernel`, or the
/// analytic 3-D driver). The written bytes must equal the store's spill
/// file.
fn replay_generation(
    app: AppKind,
    cfg: &TraceGenConfig,
    replay_dir: &Path,
    spill: &Path,
) -> Result<(), String> {
    fn write<const D: usize>(
        generator: &mut (dyn SnapshotSource<D> + '_),
        advance: &mut dyn FnMut(),
        steps: u32,
        w: &mut BufWriter<std::fs::File>,
    ) -> Result<(), TraceIoError> {
        let mut lockstep = Lockstep {
            generator: TimedSource {
                inner: generator,
                counter: C::NextSnapshotNs,
            },
            advance,
            steps,
            pulls: 0,
        };
        write_binary_source::<D, _>(&mut lockstep, w).map(drop)
    }
    let path = replay_dir.join(format!("{}.trc", app.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("create replay file: {e}"))?;
    let mut w = BufWriter::new(file);
    let mut kernel = (app.dim() == 2).then(|| make_kernel(app, cfg));
    let mut sphere = Sp3d::new(cfg.steps, cfg.seed);
    let mut advance = || match kernel.as_mut() {
        Some(k) => k.advance_coarse_step(),
        None => sphere.advance_coarse_step(),
    };
    let children = child_ns();
    let start = Instant::now();
    let written = {
        match trace_source_any(app, cfg) {
            AnySnapshotSource::D2(mut s) => write(s.as_mut(), &mut advance, cfg.steps, &mut w),
            AnySnapshotSource::D3(mut s) => write(s.as_mut(), &mut advance, cfg.steps, &mut w),
        }
        .map_err(|e| e.to_string())
        .and_then(|()| w.flush().map_err(|e| e.to_string()))
    };
    written.map_err(|e| format!("replay {} generation: {e}", app.name()))?;
    add(
        C::SpillWriteNs,
        nanos(start).saturating_sub(child_ns() - children),
    );
    let replayed = std::fs::read(&path).map_err(|e| format!("read replay file: {e}"))?;
    let stored = std::fs::read(spill).map_err(|e| format!("read spill file: {e}"))?;
    if replayed != stored {
        return Err(format!(
            "{}: the replayed generation differs from the store's spill file",
            app.name()
        ));
    }
    add(C::SpillBytes, stored.len() as u64);
    Ok(())
}

/// Replay the store's read path: decode the spill file whole, then fold
/// the model over it.
fn replay_decode_fold(app: AppKind, spill: &Path) -> Result<(), String> {
    let (trace, _) = timed(C::SpillReadNs, || {
        open_trace_source(spill).and_then(AnySnapshotSource::collect)
    });
    let trace = Arc::new(trace.map_err(|e| format!("decode {}: {e}", spill.display()))?);
    let (model, _) = timed(C::ModelNs, || {
        ModelPipeline::new().run_any_source(&mut shared_source(Arc::clone(&trace)))
    });
    model.map_err(|e| format!("fold {}: {e}", app.name()))?;
    fn patches<const D: usize>(t: &HierarchyTrace<D>) -> u64 {
        t.snapshots
            .iter()
            .flat_map(|s| &s.hierarchy.levels)
            .map(|l| l.patch_count() as u64)
            .sum()
    }
    add(
        C::Patches,
        match &*trace {
            AnyTrace::D2(t) => patches(t),
            AnyTrace::D3(t) => patches(t),
        },
    );
    Ok(())
}

/// Warm the store and split its stages (see the module docs).
fn setup(
    apps: &[AppKind],
    cfg: &TraceGenConfig,
    cold: bool,
    replay_dir: &Path,
) -> Result<(), String> {
    apps.par_iter().for_each(|&app| {
        timed(C::StoreWarmNs, || cached_model(app, cfg));
    });
    let files = spill_files()?;
    if cold {
        std::fs::create_dir_all(replay_dir).map_err(|e| format!("create replay dir: {e}"))?;
        // One replay at a time, so no replay slows another, on a
        // one-thread pool, so a solver's own parallel loops run inline as
        // they do inside the executor's warm-up workers.
        build_thread_pool(1)?.install(|| {
            apps.iter().try_for_each(|&app| {
                replay_generation(app, cfg, replay_dir, spill_file_of(&files, app)?)
            })
        })?;
    }
    let replays: Vec<Result<(), String>> = apps
        .par_iter()
        .map(|&app| replay_decode_fold(app, spill_file_of(&files, app)?))
        .collect();
    replays.into_iter().collect()
}

/// Write one scenario's CSV, JSON and completion record, as the
/// executor writes them.
fn write_artifacts(
    dir: &Path,
    p: &PlannedScenario,
    plan_hash: &str,
    outcome: &ScenarioOutcome,
) -> std::io::Result<String> {
    let start = Instant::now();
    let csv = outcome.to_csv();
    atomic_write(&dir.join(format!("{}.csv", p.slug)), csv.as_bytes())?;
    let json = serde_json::to_string_pretty(&outcome.summary()).expect("summary serializes");
    atomic_write(&dir.join(format!("{}.json", p.slug)), json.as_bytes())?;
    CompletionRecord::stamp(
        dir,
        p.id,
        &p.slug,
        plan_hash,
        csv.as_bytes(),
        json.as_bytes(),
    )?;
    add(C::ArtifactNs, nanos(start));
    add(C::ArtifactBytes, (csv.len() + json.len()) as u64);
    Ok(csv)
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

/// Run the traced campaign into `out` and return the per-layer report
/// as one JSON object.
pub fn run(spec: &CampaignSpec, threads: usize, cold: bool, out: &Path) -> Result<String, String> {
    let start = Instant::now();
    let plan = CampaignPlan::new(spec, 1, ShardStrategy::default());
    if plan.is_empty() {
        return Err("the spec expands to zero scenarios".into());
    }
    let apps = crate::spec_apps(spec);
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let cpu = |what| {
        crate::rusage::this_process()
            .map(|u| u.user_s() + u.sys_s())
            .map_err(|e| format!("getrusage after {what}: {e}"))
    };
    let cpu_start = cpu("start")?;
    setup(&apps, &spec.trace, cold, &out.join("replay"))?;
    let setup_ns = nanos(start);
    // Set-up stages count by the CPU they use: a solver's row sweeps
    // run on threads of their own, outside the spans that time them.
    let setup_cpu_s = cpu("set-up")? - cpu_start;

    let sweep_start = Instant::now();
    let results: Vec<Result<(u64, String), String>> = plan
        .scenarios
        .par_iter()
        .map(|p| {
            let run_start = Instant::now();
            let outcome = run_scenario(&p.scenario)?;
            let scenario_ns = nanos(run_start);
            let csv = write_artifacts(out, p, &plan.plan_hash, &outcome)
                .map_err(|e| format!("write {}: {e}", p.slug))?;
            Ok((scenario_ns, csv))
        })
        .collect();
    let results: Vec<(u64, String)> = results.into_iter().collect::<Result<_, _>>()?;
    let sweep_ns = nanos(sweep_start);

    let io = |e: std::io::Error| format!("write campaign artifacts: {e}");
    let artifact_start = Instant::now();
    let mut campaign_csv = String::new();
    for (p, (_, csv)) in plan.scenarios.iter().zip(&results) {
        campaign_csv.push_str(&format!("# {}\n{csv}", p.slug));
    }
    atomic_write(&out.join("campaign.csv"), campaign_csv.as_bytes()).map_err(io)?;
    CampaignManifest {
        plan_hash: plan.plan_hash.clone(),
        scenario_count: plan.len(),
        shards: 1,
        elapsed_seconds: start.elapsed().as_secs_f64(),
        spec: plan.spec.clone(),
    }
    .write(out)
    .map_err(io)?;
    add(C::ArtifactNs, nanos(artifact_start));
    add(C::ArtifactBytes, campaign_csv.len() as u64);

    let pareto_start = Instant::now();
    let entries = plan
        .scenarios
        .iter()
        .map(|p| {
            let path = out.join(format!("{}.json", p.slug));
            let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            samr_engine::pareto::entry_from_json(p.id, &p.slug, &path, &bytes)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let front =
        compute_front(&plan.plan_hash, &Objective::ALL, &entries).map_err(|e| e.to_string())?;
    write_front(out, &front).map_err(|e| e.to_string())?;
    add(C::ParetoNs, nanos(pareto_start));

    let mut scenario_ns: Vec<u64> = results.iter().map(|(ns, _)| *ns).collect();
    scenario_ns.sort_unstable();
    let scenario_sum: u64 = scenario_ns.iter().sum();
    let ms = |c: C| get(c) as f64 / 1e6;
    let count = |c: C| get(c) as f64;
    let busy_s = setup_cpu_s + (scenario_sum + get(C::ArtifactNs) + get(C::ParetoNs)) as f64 / 1e9;
    let metrics: Vec<(&str, f64)> = vec![
        ("apps.advance_ms", ms(C::AdvanceNs)),
        ("apps.advance_calls", count(C::AdvanceCalls)),
        ("apps.next_snapshot_ms", ms(C::NextSnapshotNs)),
        (
            "grid.regrid_ms",
            (ms(C::NextSnapshotNs) - ms(C::AdvanceNs)).max(0.0),
        ),
        ("grid.patches", count(C::Patches)),
        ("trace.spill_write_ms", ms(C::SpillWriteNs)),
        ("trace.spill_read_ms", ms(C::SpillReadNs)),
        ("trace.spill_bytes", count(C::SpillBytes)),
        ("core.model_ms", ms(C::ModelNs)),
        ("engine.store_warm_ms", ms(C::StoreWarmNs)),
        ("partition.ms", ms(C::PartitionNs)),
        ("partition.calls", count(C::PartitionCalls)),
        ("partition.fragments", count(C::Fragments)),
        ("partition.domain_sfc_ms", ms(C::DomainSfcNs)),
        ("partition.patch_ms", ms(C::PatchNs)),
        ("partition.hybrid_ms", ms(C::HybridNs)),
        ("partition.meta_ms", ms(C::MetaNs)),
        ("partition.octant_meta_ms", ms(C::OctantMetaNs)),
        ("sim.stream_self_ms", ms(C::StreamSelfNs)),
        ("sim.reuse_skips", count(C::ReuseSkips)),
        ("sim.peak_resident", count(C::PeakResident)),
        ("sim.comm_cells", count(C::CommCells)),
        ("sim.migration_cells", count(C::MigrationCells)),
        ("meta.switches", count(C::Switches)),
        (
            "meta.switch_migration_cells",
            count(C::SwitchMigrationCells),
        ),
        (
            "engine.scenario_ms_p50",
            percentile(&scenario_ns, 0.5) / 1e6,
        ),
        (
            "engine.scenario_ms_p90",
            percentile(&scenario_ns, 0.9) / 1e6,
        ),
        ("engine.artifact_ms", ms(C::ArtifactNs)),
        ("engine.artifact_bytes", count(C::ArtifactBytes)),
        ("engine.pareto_ms", ms(C::ParetoNs)),
        (
            "engine.parallel_efficiency",
            scenario_sum as f64 / (sweep_ns as f64 * threads as f64),
        ),
        ("run.setup_s", setup_ns as f64 / 1e9),
        ("run.sweep_s", sweep_ns as f64 / 1e9),
        ("run.scenario_s", scenario_sum as f64 / 1e9),
        ("run.busy_s", busy_s),
        ("run.stream_window", count(C::StreamWindow)),
        (
            "run.trace_cache_budget",
            samr_engine::store::trace_cache_budget() as f64,
        ),
    ];
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    Ok(format!("{{{}}}", body.join(", ")))
}
