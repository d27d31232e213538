//! The `reproduce` and `rerender` workloads: one op is a fresh
//! [`PlanContext`] plus `run_reports(["all"])` at bench scale on one
//! simulation thread, with every report rendered to JSON in memory — what
//! `earlyreg-exp run all --scale bench --jobs 1 --format json` does.
//!
//! * `reproduce` runs each op against a fresh, empty point cache, so every
//!   unique point is simulated and stored.
//! * `rerender` runs each op against the cache its set-up filled, so every
//!   point is a cache hit and nothing is simulated.
//!
//! The traced op re-composes the engine's plan → dedup → load → simulate →
//! store → render loop from the same public calls, with a span around each,
//! and must produce byte-identical reports.

use crate::trace::Tracer;
use crate::{
    host, keep_going, stats, Args, EndToEndRun, Fidelity, PerLayerRun, Samples, Tally, WorkDir,
    SETUP_REPEATS,
};
use earlyreg_experiments::engine::{self, CacheResolver, PlanContext, PlannedPoint, ResultSet};
use earlyreg_experiments::report::{self, Artifact, Format};
use earlyreg_experiments::runner::{batch_order, RunResult};
use earlyreg_experiments::{
    fig03, fig10, ExperimentOptions, PointCache, ResolveStats, RunSummary, Scenario, WorkloadSet,
};
use earlyreg_sim::{decoded_trace_for, RunLimits, SimStats, Simulator, TRACE_SLACK};
use earlyreg_workloads::Scale;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which of the two report workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Reproduce,
    Rerender,
}

/// The CLI's options for `run all --scale bench --jobs 1`.
pub fn options() -> ExperimentOptions {
    ExperimentOptions {
        scale: Scale::Bench,
        threads: 1,
        ..ExperimentOptions::default()
    }
}

fn all() -> Vec<String> {
    vec!["all".to_string()]
}

/// What one op produced.
#[derive(Debug, PartialEq, Eq)]
pub struct OpOutput {
    pub artifacts: Vec<Artifact>,
    pub summary: RunSummary,
}

/// The untraced op.
pub fn op(cache: &PointCache) -> OpOutput {
    let ctx = PlanContext::new(options(), Scenario::table2());
    let outcome = engine::run_reports(&all(), &ctx, &CacheResolver { cache: Some(cache) })
        .expect("'all' names the whole registry");
    let artifacts = outcome
        .reports
        .iter()
        .flat_map(|r| report::render(r, Format::Json))
        .collect();
    OpOutput {
        artifacts,
        summary: outcome.summary,
    }
}

/// Exact counts of the points one traced op simulated.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    pub points: u64,
    pub committed: u64,
    pub cycles: u64,
    pub early_releases: u64,
    pub rename_stall_cycles: u64,
    pub captured: u64,
}

impl SimCounts {
    /// Count one point that was simulated during the op.  Points answered
    /// by the cache never reach this, so the counts cover only simulated
    /// instructions.
    pub fn add(&mut self, stats: &SimStats) {
        self.points += 1;
        self.committed += stats.committed;
        self.cycles += stats.cycles;
        self.early_releases += stats.release.int.total_early() + stats.release.fp.total_early();
        self.rename_stall_cycles += stats.rename_stalls.total();
    }
}

/// The traced op: the engine's loop, re-composed from public calls.
pub fn traced_op(tracer: &mut Tracer, cache: &PointCache) -> (OpOutput, SimCounts) {
    traced_op_with(tracer, cache, options())
}

fn traced_op_with(
    tracer: &mut Tracer,
    cache: &PointCache,
    options: ExperimentOptions,
) -> (OpOutput, SimCounts) {
    // Outside the op span: the suite alone, to split `WorkloadSet::new` into
    // program generation and fingerprinting.
    drop(tracer.span("probe.workloads.suite", || {
        earlyreg_workloads::suite(options.scale)
    }));

    tracer.enter("op");
    let set = tracer.span("experiments.workload_set", || {
        WorkloadSet::new(options.scale)
    });
    let ctx = PlanContext::with_workloads(options, Scenario::table2(), Arc::new(set));
    let experiments = engine::select(&all()).expect("'all' names the whole registry");

    let mut union: Vec<PlannedPoint> = Vec::new();
    for experiment in &experiments {
        union.extend(tracer.span("experiments.plan", || experiment.plan(&ctx)));
    }
    let planned = union.len();
    let unique = tracer.span("experiments.plan", || engine::dedup_plan(union));

    let mut results = ResultSet::default();
    let mut resolve = ResolveStats::default();
    let mut misses = Vec::new();
    for point in &unique {
        match tracer.span("experiments.cache_load", || cache.load(&point.key)) {
            Some(stats) => {
                resolve.cache_hits += 1;
                results.insert(
                    point.digest,
                    RunResult {
                        point: point.point,
                        stats,
                    },
                );
            }
            None => misses.push(point),
        }
    }

    // Same execution order as the engine's resolver.
    let order = batch_order(&misses, |p| p.point.workload);
    let mut counts = SimCounts::default();
    let mut captured = HashSet::new();
    let mut simulated = Vec::with_capacity(misses.len());
    for planned in order.into_iter().map(|i| misses[i]) {
        let workload = ctx
            .workload(planned.point.workload)
            .expect("planned workloads are in the suite");
        let budget = options.max_instructions;
        let trace = tracer.span("isa.capture", || {
            decoded_trace_for(&workload.program, budget.saturating_add(TRACE_SLACK))
        });
        if captured.insert(Arc::as_ptr(&trace)) {
            counts.captured += trace.len() as u64;
        }
        let mut sim = tracer.span("sim.setup", || {
            Simulator::with_replay(planned.config, workload.program.clone(), trace)
        });
        let stats = tracer.span("sim.run", || sim.run(RunLimits::instructions(budget)));
        assert_eq!(stats.oracle_violations, 0, "{:?}", planned.point);
        counts.add(&stats);
        simulated.push((planned, stats));
    }
    for (planned, stats) in simulated {
        if let Err(error) = tracer.span("experiments.cache_store", || {
            cache.store(&planned.key, &stats)
        }) {
            eprintln!("warning: cannot cache point {:?}: {error}", planned.point);
        }
        resolve.simulated += 1;
        results.insert(
            planned.digest,
            RunResult {
                point: planned.point,
                stats,
            },
        );
    }

    let mut reports = Vec::with_capacity(experiments.len());
    for experiment in &experiments {
        reports.push(tracer.span("experiments.render", || experiment.render(&ctx, &results)));
    }
    let artifacts = tracer.span("experiments.render", || {
        reports
            .iter()
            .flat_map(|r| report::render(r, Format::Json))
            .collect()
    });
    let summary = RunSummary {
        experiments: experiments.iter().map(|e| e.id()).collect(),
        planned,
        unique: unique.len(),
        cache_hits: resolve.cache_hits,
        coalesced: 0,
        simulated: resolve.simulated,
        resolve,
    };
    drop((reports, results, ctx));
    tracer.exit();
    (OpOutput { artifacts, summary }, counts)
}

/// Figure 10 and Figure 3 fidelity from the stored results of their plans,
/// or `None` when a point is missing from the cache.
pub fn fidelity(ctx: &PlanContext, cache: &PointCache) -> Option<Fidelity> {
    let fig10_plan = fig10::plan(ctx);
    let fig03_plan = fig03::plan(ctx);
    let mut results = ResultSet::default();
    for planned in fig10_plan.iter().chain(&fig03_plan) {
        let stats = cache.load(&planned.key)?;
        results.insert(
            planned.digest,
            RunResult {
                point: planned.point,
                stats,
            },
        );
    }
    let fig10 = fig10::summarise(&results.collect(&fig10_plan), &ctx.scenario.policies());
    let fig03 = fig03::summarise(&results.collect(&fig03_plan));
    Some(Fidelity::new(&fig10, &fig03))
}

/// Run `f`, turning a panic into `None` so the op counts as failed.
fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Set-up state of a run: a point cache filled by a cold op, the reports of
/// that op, which every later op must reproduce byte for byte, and the
/// context the fidelity check plans against.
struct Setup {
    check_ctx: PlanContext,
    cache: PointCache,
    cold: OpOutput,
}

fn set_up(work: &mut WorkDir) -> (Setup, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let check_ctx = PlanContext::new(options(), Scenario::table2());
        let cache = PointCache::new(work.fresh("warm"));
        let cold = op(&cache);
        times.push(start.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(Setup {
            check_ctx,
            cache,
            cold,
        }) {
            let now = &kept.as_ref().expect("just stored").cold;
            assert!(
                previous.cold == *now,
                "two cold runs of the same code produced different reports"
            );
            work.discard(previous.cache.dir());
        }
    }
    (kept.expect("at least one set-up"), times)
}

/// Checks of one op's output: the hit/simulate split the workload implies
/// and reports byte-equal to the set-up's cold reports.
fn op_ok(kind: Kind, setup: &Setup, out: &OpOutput) -> bool {
    let s = &out.summary;
    let counts_ok = match kind {
        Kind::Reproduce => s.cache_hits == 0 && s.simulated == s.unique,
        Kind::Rerender => s.simulated == 0 && s.cache_hits == s.unique,
    };
    counts_ok && s.unique > 0 && out.artifacts == setup.cold.artifacts
}

/// The cache an op runs against: fresh per op for `reproduce`, the set-up's
/// for `rerender`.
fn op_cache(kind: Kind, setup: &Setup, work: &mut WorkDir) -> PointCache {
    match kind {
        Kind::Reproduce => PointCache::new(work.fresh("cold")),
        Kind::Rerender => setup.cache.clone(),
    }
}

fn release_cache(kind: Kind, work: &WorkDir, cache: &PointCache) {
    if kind == Kind::Reproduce {
        work.discard(cache.dir());
    }
}

/// An untraced run: end-to-end metrics.
pub fn end_to_end(kind: Kind, args: &Args, work: &mut WorkDir) -> EndToEndRun {
    let (setup, setup_s) = set_up(work);
    let expected =
        fidelity(&setup.check_ctx, &setup.cache).expect("the set-up's cold op stored every point");
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while keep_going(start, budget, samples.wall_ms.len()) {
        let cache = op_cache(kind, &setup, work);
        let out = samples.time(|| guarded(|| op(&cache)));
        // `reproduce` recomputes fidelity from each op's freshly stored
        // results; `rerender` reads the set-up's results, measured above.
        let ok = out.is_some_and(|out| {
            op_ok(kind, &setup, &out)
                && (kind == Kind::Rerender || fidelity(&setup.check_ctx, &cache) == Some(expected))
        });
        tally.record(ok);
        release_cache(kind, work, &cache);
    }
    EndToEndRun {
        setup_s,
        samples,
        tally,
        peak_rss_mb: host::peak_rss_mb(),
        fidelity: expected,
    }
}

/// A traced run: alternate untraced and traced ops, then report per-layer
/// metrics from the spans.
pub fn per_layer(kind: Kind, args: &Args, work: &mut WorkDir, spans: &Path) -> PerLayerRun {
    let (setup, _) = set_up(work);
    let mut tracer = Tracer::default();
    let mut untraced = Samples::default();
    let mut tally = Tally::default();
    let mut traced_ops = 0u32;
    let mut exact: Option<(SimCounts, RunSummary)> = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while keep_going(start, budget, traced_ops as usize) {
        let cache = op_cache(kind, &setup, work);
        let plain = untraced.time(|| guarded(|| op(&cache)));
        release_cache(kind, work, &cache);
        let plain_ok = plain.as_ref().is_some_and(|p| op_ok(kind, &setup, p));
        tally.record(plain_ok);

        let cache = op_cache(kind, &setup, work);
        tracer.set_op(traced_ops);
        let traced = guarded(|| traced_op(&mut tracer, &cache));
        release_cache(kind, work, &cache);
        traced_ops += 1;
        let traced_ok = match (&plain, &traced) {
            (Some(plain), Some((out, counts))) => {
                let repeat_ok = match &exact {
                    Some(first) => *first == (*counts, out.summary.clone()),
                    None => {
                        exact = Some((*counts, out.summary.clone()));
                        true
                    }
                };
                // Byte-identical to the untraced op's reports.
                repeat_ok && out == plain && op_ok(kind, &setup, out)
            }
            _ => false,
        };
        tally.record(traced_ok);
    }
    if let Err(error) = tracer.write_jsonl(spans) {
        eprintln!(
            "warning: cannot write spans to {}: {error}",
            spans.display()
        );
    }
    let values = match exact {
        Some((counts, summary)) => layer_values(&tracer, traced_ops, &untraced, counts, &summary),
        None => BTreeMap::new(),
    };
    PerLayerRun { values, tally }
}

fn layer_values(
    tracer: &Tracer,
    ops: u32,
    untraced: &Samples,
    counts: SimCounts,
    summary: &RunSummary,
) -> BTreeMap<&'static str, f64> {
    let totals = tracer.totals();
    let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64);
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64);
    let ops = f64::from(ops.max(1));
    let per_op_ms = |total_ns: f64| total_ns / ops / 1e6;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let untraced_op_ms = stats::mean(&untraced.wall_ms);
    let op_ms = per_op_ms(ns("op"));
    let capture_ns = ns("isa.capture");
    let run_ns = ns("sim.run");
    let committed = counts.committed as f64;
    let mut values = BTreeMap::new();
    values.insert("workloads.suite_ms", per_op_ms(ns("probe.workloads.suite")));
    values.insert(
        "experiments.fingerprint_ms",
        per_op_ms(ns("experiments.workload_set") - ns("probe.workloads.suite")),
    );
    values.insert("experiments.plan_ms", per_op_ms(ns("experiments.plan")));
    values.insert("experiments.points_planned", summary.planned as f64);
    values.insert("experiments.points_unique", summary.unique as f64);
    values.insert(
        "experiments.cache_load_ms",
        per_op_ms(ns("experiments.cache_load")),
    );
    values.insert(
        "experiments.cache_hit_ratio",
        ratio(summary.cache_hits as f64, summary.unique as f64),
    );
    values.insert(
        "experiments.cache_store_ms",
        per_op_ms(ns("experiments.cache_store")),
    );
    values.insert("experiments.cache_stores", summary.simulated as f64);
    values.insert("experiments.render_ms", per_op_ms(ns("experiments.render")));
    values.insert("isa.capture_ms", per_op_ms(capture_ns));
    values.insert(
        "isa.capture_minstr_per_s",
        ratio(counts.captured as f64 * ops / 1e6, capture_ns / 1e9),
    );
    values.insert(
        "sim.setup_us_per_point",
        ratio(ns("sim.setup") / 1e3, counts.points as f64 * ops),
    );
    values.insert("sim.run_ms", per_op_ms(run_ns));
    values.insert("sim.ns_per_instr", ratio(run_ns, committed * ops));
    values.insert(
        "sim.ns_per_cycle",
        ratio(run_ns, counts.cycles as f64 * ops),
    );
    values.insert(
        "sim.minstr_per_s",
        ratio(committed / 1e6, untraced_op_ms / 1e3),
    );
    values.insert("sim.committed", committed);
    values.insert("sim.cycles", counts.cycles as f64);
    values.insert("core.early_releases", counts.early_releases as f64);
    values.insert(
        "core.rename_stall_cycles",
        counts.rename_stall_cycles as f64,
    );
    values.insert("trace.op_ms", op_ms);
    values.insert("trace.untraced_op_ms", untraced_op_ms);
    values.insert("trace.overhead_ms", op_ms - untraced_op_ms);
    values.insert("trace.other_ms", per_op_ms(self_ns("op")));
    values.insert("host.oncpu_ms", stats::mean(&untraced.oncpu_ms));
    values.insert("host.runq_wait_share", untraced.runq_wait_share());
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny smoke-scale copy of the op, so the test stays fast.
    fn smoke_op(tracer: &mut Tracer, cache: &PointCache) -> (OpOutput, SimCounts) {
        traced_op_with(tracer, cache, smoke_options())
    }

    fn smoke_options() -> ExperimentOptions {
        ExperimentOptions {
            scale: Scale::Smoke,
            threads: 1,
            max_instructions: 20_000,
        }
    }

    #[test]
    fn simulated_instructions_exclude_cache_hits() {
        let dir = std::env::temp_dir().join(format!("perfbench-counts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::new(&dir);
        let mut tracer = Tracer::default();

        let (cold, cold_counts) = smoke_op(&mut tracer, &cache);
        assert_eq!(cold.summary.simulated, cold.summary.unique);
        assert_eq!(cold_counts.points, cold.summary.unique as u64);
        assert!(cold_counts.committed > 0);

        // The same op again: every point is a cache hit, nothing simulated,
        // so no instruction counts toward the simulation rate.
        let (warm, warm_counts) = smoke_op(&mut tracer, &cache);
        assert_eq!(warm.summary.cache_hits, warm.summary.unique);
        assert_eq!(warm_counts, SimCounts::default());
        assert_eq!(
            warm.artifacts, cold.artifacts,
            "cached reports are byte-identical"
        );

        // The untraced engine path renders the same bytes.
        let ctx = PlanContext::new(smoke_options(), Scenario::table2());
        let outcome = engine::run_reports(
            &all(),
            &ctx,
            &CacheResolver {
                cache: Some(&cache),
            },
        )
        .unwrap();
        let plain: Vec<Artifact> = outcome
            .reports
            .iter()
            .flat_map(|r| report::render(r, Format::Json))
            .collect();
        assert_eq!(plain, cold.artifacts);
        assert!(fidelity(&ctx, &cache).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
