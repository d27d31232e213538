//! Parallel execution of simulation points.
//!
//! Every experiment reduces to a set of *(workload, policy, register-file
//! size)* points, each of which is an independent cycle-level simulation.
//! [`run_parallel`] distributes any list of jobs over a pool of scoped worker
//! threads through a shared atomic work index and writes each result into the
//! slot of its input item, so **output order never depends on thread
//! interleaving**, and [`run_configured_point`] simulates one point.  The
//! experiment engine in [`crate::engine`] builds on both: it plans the union
//! of several experiments' points, dedups them, orders the misses with
//! [`batch_order`] and backs them with an on-disk cache.

use earlyreg_core::ReleasePolicy;
use earlyreg_sim::{decoded_trace_for, MachineConfig, RunLimits, SimStats, Simulator, TRACE_SLACK};
use earlyreg_workloads::{Workload, WorkloadClass};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One simulation point.
///
/// The derived `Ord` — (workload, class, policy, int regs, fp regs) in field
/// order — is the canonical deterministic ordering of sweep results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct RunPoint {
    /// Workload name (must exist in the suite).
    pub workload: &'static str,
    /// Integer or FP benchmark group.
    pub class: WorkloadClass,
    /// Release policy.
    pub policy: ReleasePolicy,
    /// Integer physical registers.
    pub phys_int: usize,
    /// FP physical registers.
    pub phys_fp: usize,
}

/// Statistics of one simulated point.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// The point that was simulated.
    pub point: RunPoint,
    /// Full simulator statistics.
    pub stats: SimStats,
}

impl RunResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Simulate a single point under an explicit machine configuration (the
/// experiment engine uses this for scenario overrides and ablation variants).
///
/// Uses the decode-once trace-replay front-end: the program's
/// [`DecodedTrace`](earlyreg_isa::DecodedTrace) is captured once (memoized
/// per shared `Arc<Program>`) and every policy/config point replays it,
/// skipping per-instruction decode and value re-computation while keeping
/// `SimStats` bit-identical to the live front-end (pinned by
/// `tests/stats_equivalence.rs`).
pub fn run_configured_point(
    workload: &Workload,
    point: RunPoint,
    config: MachineConfig,
    max_instructions: u64,
) -> RunResult {
    let trace = decoded_trace_for(
        &workload.program,
        max_instructions.saturating_add(TRACE_SLACK),
    );
    let mut sim = Simulator::with_replay(config, workload.program.clone(), trace);
    let stats = sim.run(RunLimits::instructions(max_instructions));
    assert_eq!(
        stats.oracle_violations, 0,
        "{} under {:?} with {}int+{}fp registers read a discarded value",
        point.workload, point.policy, point.phys_int, point.phys_fp
    );
    RunResult { point, stats }
}

/// Run `job` over every item on `threads` scoped worker threads and return
/// the results **in input order**: each worker writes its result into the
/// slot of the item it claimed, so the output is deterministic regardless of
/// how the threads interleave.  With one thread (or one item) the jobs run
/// inline on the calling thread, without a spawn.
pub fn run_parallel<T, R, F>(threads: usize, items: &[T], job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Nothing to do: don't pay for a thread spawn.  The serving path hits
    // this on every fully-warm request (zero cache misses to simulate).
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(items.len());
    if threads == 1 {
        return items.iter().map(job).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next_item = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next_item.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    break;
                };
                let result = job(item);
                *slots[index].lock().expect("worker panicked") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker panicked")
                .expect("every slot is filled")
        })
        .collect()
}

/// Execution-order permutation for batched scheduling: indices grouped by
/// `key`, **largest group first** (ties broken by first occurrence, so the
/// order is deterministic), stable within each group.
///
/// Grouping same-key items consecutively keeps each workload's shared
/// decoded trace and kill plan hot while its policy/config points replay it;
/// putting the largest groups first is longest-processing-time-first
/// scheduling, which minimises the idle tail when the groups are distributed
/// over worker threads.
pub fn batch_order<T, K: PartialEq>(items: &[T], key: impl Fn(&T) -> K) -> Vec<usize> {
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    for (index, item) in items.iter().enumerate() {
        let k = key(item);
        match groups.iter_mut().find(|(existing, _)| *existing == k) {
            Some((_, members)) => members.push(index),
            None => groups.push((k, vec![index])),
        }
    }
    groups.sort_by_key(|(_, members)| (usize::MAX - members.len(), members[0]));
    groups
        .into_iter()
        .flat_map(|(_, members)| members)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentOptions, Scenario};
    use crate::engine::{dedup_plan, simulate, PlanContext};
    use earlyreg_workloads::Scale;

    #[test]
    fn run_parallel_preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 3, 8] {
            let results = run_parallel(threads, &items, |&i| i * 2);
            assert_eq!(results, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_parallel_handles_empty_input() {
        let results = run_parallel(4, &[] as &[usize], |&i| i);
        assert!(results.is_empty());
    }

    /// A smoke-scale context whose sweeps cover `workloads`.
    fn smoke_ctx(threads: usize, max_instructions: u64, workloads: &str) -> PlanContext {
        PlanContext::new(
            ExperimentOptions {
                scale: Scale::Smoke,
                threads,
                max_instructions,
            },
            Scenario::parse("sweep", &format!("workloads = {workloads}")).unwrap(),
        )
    }

    #[test]
    fn sweep_runs_points_in_parallel_and_sorts_results() {
        let ctx = smoke_ctx(2, 20_000, "perl, swim");
        let policies = [ReleasePolicy::Conventional, ReleasePolicy::Extended];
        let plan = dedup_plan(ctx.cross(&policies, &[48]));
        let results = simulate(&ctx, &plan);
        assert_eq!(results.len(), 4);
        let perl = ctx.workload("perl").unwrap();
        let extended = ctx.point(perl, ReleasePolicy::Extended, 48, 48);
        let basic = ctx.point(perl, ReleasePolicy::Basic, 48, 48);
        assert!(results.get(&extended).is_some_and(|r| r.ipc() > 0.0));
        assert!(results.get(&basic).is_none());
        let results = results.collect(&plan);
        assert!(results.iter().all(|r| r.stats.committed > 1_000));
        assert!(results.windows(2).all(|w| w[0].point < w[1].point));
    }

    #[test]
    fn sweep_ordering_is_deterministic_across_thread_counts() {
        // Shuffle the points (reversed + duplicated), run with different
        // worker counts, and demand the exact same point-sorted output every
        // time — the regression guard for deterministic sweep ordering.
        // Every registered policy runs (the oracle included), so concurrent
        // workers race on the process-wide memos — decoded trace, kill plan
        // and front-end table — and full `SimStats` must still agree.
        let policies: Vec<ReleasePolicy> = earlyreg_core::registry::registered().collect();
        assert!(policies.contains(&ReleasePolicy::Oracle));

        let mut reference: Option<Vec<(RunPoint, SimStats)>> = None;
        for threads in [1, 2, 5] {
            let ctx = smoke_ctx(threads, 10_000, "compress, mgrid");
            let mut points = ctx.cross(&policies, &[48, 40]);
            points.reverse();
            // Duplicates must collapse instead of being simulated twice.
            let mut with_dupes = points.clone();
            with_dupes.extend(points.iter().cloned());

            let results = simulate(&ctx, &with_dupes);
            assert_eq!(results.len(), points.len(), "duplicates must be dropped");
            let unique = dedup_plan(with_dupes);
            assert_eq!(unique.len(), points.len());
            assert!(
                unique.windows(2).all(|w| w[0].point < w[1].point),
                "the plan must come back point-sorted"
            );
            let key: Vec<(RunPoint, SimStats)> = results
                .collect(&unique)
                .into_iter()
                .map(|r| (r.point, r.stats))
                .collect();
            match &reference {
                None => reference = Some(key),
                Some(expected) => assert_eq!(&key, expected, "threads={threads}"),
            }
        }
    }
}
