//! Delay scheduling (Zaharia et al., EuroSys 2010 — the paper's \[22\]),
//! implemented the way Spark's `TaskSetManager` actually does it.
//!
//! The locality-wait clock is **per task set** (one job stage), not per
//! task. Each set starts at the `NODE_LOCAL` level; when the set has gone
//! longer than the wait threshold without launching a local task, it
//! *downgrades* to `ANY` and its remaining tasks accept whatever executor
//! is offered. A local launch resets the set back to `NODE_LOCAL`. This
//! cascade is why a single unlucky stall can send a burst of tasks
//! non-local — the per-job locality variance visible in the paper's
//! Fig. 7 ("some jobs only have less than 35 % of local tasks").
//!
//! Offer handling, in Spark's order:
//!
//! 1. A data-local task (earliest set first, FIFO within a set) launches
//!    immediately and resets its set's clock and level.
//! 2. A preference-free task (downstream stages) launches immediately —
//!    waiting buys nothing.
//! 3. Otherwise only non-local placements remain: the earliest set whose
//!    clock has expired launches its oldest task at `ANY`; if every set is
//!    still within its wait, the offer is declined with the time until the
//!    earliest expiry.

use std::collections::BTreeMap;

use custody_dfs::NodeId;
use custody_simcore::{SimDuration, SimTime};
use custody_workload::JobId;

use crate::{Placement, RunnableTask, TaskScheduler};

/// Per-task-set delay-scheduling state.
#[derive(Debug, Clone, Copy)]
struct SetState {
    /// Last time the set launched a local task (or was first seen).
    clock_start: SimTime,
    /// Whether the set has downgraded to the `ANY` level.
    allow_any: bool,
}

/// Delay scheduling with a fixed locality-wait threshold.
///
/// ```
/// use custody_scheduler::{DelayScheduler, Placement, RunnableTask, TaskScheduler};
/// use custody_dfs::NodeId;
/// use custody_simcore::{SimDuration, SimTime};
/// use custody_workload::JobId;
///
/// let mut sched = DelayScheduler::new(SimDuration::from_secs(3));
/// let task = RunnableTask {
///     job: JobId::new(0), stage: 0, task_index: 0,
///     preferred_nodes: [NodeId::new(5)].into(),
///     runnable_since: SimTime::ZERO,
/// };
/// // Offered the wrong node early: the task holds out for locality.
/// let p = sched.on_offer(NodeId::new(1), &[task.clone()], SimTime::from_secs(1));
/// assert!(matches!(p, Placement::Decline { .. }));
/// // Offered its preferred node: immediate local launch.
/// let p = sched.on_offer(NodeId::new(5), &[task], SimTime::from_secs(1));
/// assert!(matches!(p, Placement::Launch { local: true, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct DelayScheduler {
    wait_threshold: SimDuration,
    sets: BTreeMap<(JobId, usize), SetState>,
}

impl DelayScheduler {
    /// Creates the scheduler. A zero threshold yields locality-first
    /// behaviour (prefer local, never wait).
    pub fn new(wait_threshold: SimDuration) -> Self {
        DelayScheduler {
            wait_threshold,
            sets: BTreeMap::new(),
        }
    }

    /// The configured wait threshold.
    pub fn wait_threshold(&self) -> SimDuration {
        self.wait_threshold
    }

    fn set_state(&mut self, key: (JobId, usize), first_runnable: SimTime) -> &mut SetState {
        self.sets.entry(key).or_insert(SetState {
            clock_start: first_runnable,
            allow_any: false,
        })
    }
}

fn launch(task: &RunnableTask, local: bool) -> Placement {
    Placement::Launch {
        job: task.job,
        stage: task.stage,
        task_index: task.task_index,
        local,
    }
}

/// Task sets in FIFO order: keyed by the earliest `runnable_since` in the
/// set, then job id, then stage.
fn sets_in_order(runnable: &[RunnableTask]) -> Vec<((JobId, usize), SimTime)> {
    let mut earliest: BTreeMap<(JobId, usize), SimTime> = BTreeMap::new();
    for t in runnable {
        let e = earliest.entry((t.job, t.stage)).or_insert(t.runnable_since);
        *e = (*e).min(t.runnable_since);
    }
    let mut sets: Vec<((JobId, usize), SimTime)> = earliest.into_iter().collect();
    sets.sort_by_key(|&((job, stage), since)| (since, job, stage));
    sets
}

impl TaskScheduler for DelayScheduler {
    fn name(&self) -> &'static str {
        "delay"
    }

    fn on_offer(&mut self, node: NodeId, runnable: &[RunnableTask], now: SimTime) -> Placement {
        if runnable.is_empty() {
            return Placement::NoWork;
        }
        let sets = sets_in_order(runnable);

        // 1. Local task: earliest set first, FIFO within the set. A local
        //    launch resets the set's clock and level.
        for &(key, _) in &sets {
            let candidate = runnable
                .iter()
                .filter(|t| (t.job, t.stage) == key && t.local_on(node))
                .min_by_key(|t| (t.runnable_since, t.task_index));
            if let Some(task) = candidate {
                let state = self.set_state(key, task.runnable_since);
                state.clock_start = now;
                state.allow_any = false;
                return launch(task, true);
            }
        }

        // 2. Preference-free task (no locality to wait for).
        if let Some(task) = runnable
            .iter()
            .filter(|t| !t.has_preference())
            .min_by_key(|t| (t.runnable_since, t.job, t.stage, t.task_index))
        {
            return launch(task, false);
        }

        // 3. Non-local placements: expired sets launch, others wait.
        let mut earliest_expiry: Option<SimDuration> = None;
        for &(key, first_runnable) in &sets {
            let threshold = self.wait_threshold;
            let state = self.set_state(key, first_runnable);
            if !state.allow_any {
                let waited = now.saturating_since(state.clock_start);
                if waited >= threshold {
                    state.allow_any = true;
                } else {
                    let remaining = threshold - waited;
                    earliest_expiry = Some(match earliest_expiry {
                        Some(e) => e.min(remaining),
                        None => remaining,
                    });
                    continue;
                }
            }
            let task = runnable
                .iter()
                .filter(|t| (t.job, t.stage) == key)
                .min_by_key(|t| (t.runnable_since, t.task_index))
                .expect("set has at least one task"); // lint: allow(panic) — set keys are derived from runnable, so each has a task
            return launch(task, false);
        }
        Placement::Decline {
            retry_after: earliest_expiry.expect("some set must be waiting"), // lint: allow(panic) — reached only after a waiting set recorded its expiry
        }
    }

    fn clone_box(&self) -> Box<dyn TaskScheduler> {
        Box::new(self.clone())
    }

    /// Every locality set's clock as `[job, stage, clock start (µs),
    /// allow-any]`, in set order.
    fn decision_state(&self) -> Vec<u64> {
        self.sets
            .iter()
            .flat_map(|(&(job, stage), set)| {
                [
                    job.index() as u64,
                    stage as u64,
                    set.clock_start.as_micros(),
                    u64::from(set.allow_any),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(
        job: usize,
        stage: usize,
        idx: usize,
        nodes: &[usize],
        since_secs: u64,
    ) -> RunnableTask {
        RunnableTask {
            job: JobId::new(job),
            stage,
            task_index: idx,
            preferred_nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            runnable_since: SimTime::from_secs(since_secs),
        }
    }

    fn sched() -> DelayScheduler {
        DelayScheduler::new(SimDuration::from_secs(3))
    }

    #[test]
    fn empty_is_no_work() {
        let mut s = sched();
        assert_eq!(
            s.on_offer(NodeId::new(0), &[], SimTime::ZERO),
            Placement::NoWork
        );
    }

    #[test]
    fn local_task_launches_immediately() {
        let mut s = sched();
        let tasks = vec![task(0, 0, 0, &[1], 0), task(0, 0, 1, &[0], 0)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(1));
        assert_eq!(
            p,
            Placement::Launch {
                job: JobId::new(0),
                stage: 0,
                task_index: 1,
                local: true
            }
        );
    }

    #[test]
    fn earlier_set_wins_local_slot() {
        let mut s = sched();
        let tasks = vec![task(1, 0, 0, &[0], 5), task(0, 0, 1, &[0], 2)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(6));
        assert!(matches!(
            p,
            Placement::Launch { job, local: true, .. } if job == JobId::new(0)
        ));
    }

    #[test]
    fn preference_free_task_fills_nonlocal_slot() {
        let mut s = sched();
        let tasks = vec![task(0, 0, 0, &[1], 0), task(0, 1, 1, &[], 0)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::ZERO);
        assert_eq!(
            p,
            Placement::Launch {
                job: JobId::new(0),
                stage: 1,
                task_index: 1,
                local: false
            }
        );
    }

    #[test]
    fn declines_within_threshold() {
        let mut s = sched();
        let tasks = vec![task(0, 0, 0, &[1], 0)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(1));
        assert_eq!(
            p,
            Placement::Decline {
                retry_after: SimDuration::from_secs(2)
            }
        );
    }

    #[test]
    fn downgrades_after_threshold() {
        let mut s = sched();
        let tasks = vec![task(0, 0, 0, &[1], 0)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(3));
        assert_eq!(
            p,
            Placement::Launch {
                job: JobId::new(0),
                stage: 0,
                task_index: 0,
                local: false
            }
        );
    }

    #[test]
    fn downgrade_cascades_across_the_set() {
        let mut s = sched();
        let tasks: Vec<RunnableTask> = (0..4).map(|i| task(0, 0, i, &[9], 0)).collect();
        // First non-local launch needed a 3s wait...
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(3));
        assert!(matches!(
            p,
            Placement::Launch {
                task_index: 0,
                local: false,
                ..
            }
        ));
        // ...but the rest of the set launches anywhere immediately.
        let p = s.on_offer(NodeId::new(1), &tasks[1..], SimTime::from_secs(3));
        assert!(matches!(
            p,
            Placement::Launch {
                task_index: 1,
                local: false,
                ..
            }
        ));
    }

    #[test]
    fn local_launch_resets_the_level() {
        let mut s = sched();
        let tasks: Vec<RunnableTask> = vec![task(0, 0, 0, &[0], 0), task(0, 0, 1, &[9], 0)];
        // Downgrade the set.
        let p = s.on_offer(NodeId::new(5), &tasks, SimTime::from_secs(3));
        assert!(matches!(p, Placement::Launch { local: false, .. }));
        // A local launch for task 0 resets the clock...
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(3));
        assert!(matches!(
            p,
            Placement::Launch {
                task_index: 0,
                local: true,
                ..
            }
        ));
        // ...so the remaining non-local task must wait a fresh 3 s.
        let p = s.on_offer(NodeId::new(5), &tasks[1..], SimTime::from_secs(4));
        assert_eq!(
            p,
            Placement::Decline {
                retry_after: SimDuration::from_secs(2)
            }
        );
    }

    #[test]
    fn zero_threshold_never_declines() {
        let mut s = DelayScheduler::new(SimDuration::ZERO);
        let tasks = vec![task(0, 0, 0, &[1], 10)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(10));
        assert!(matches!(p, Placement::Launch { local: false, .. }));
    }

    #[test]
    fn independent_sets_have_independent_clocks() {
        let mut s = sched();
        // Set (job 0) runnable at t=0; set (job 1) at t=4.
        let tasks = vec![task(0, 0, 0, &[9], 0), task(1, 0, 0, &[9], 4)];
        // At t=3.5 job 0's set expired, job 1's did not.
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_millis(3_500));
        assert!(matches!(p, Placement::Launch { job, .. } if job == JobId::new(0)));
        let p = s.on_offer(NodeId::new(0), &tasks[1..], SimTime::from_millis(3_600));
        assert!(matches!(p, Placement::Decline { .. }));
    }

    #[test]
    fn retry_after_counts_down() {
        let mut s = sched();
        let tasks = vec![task(0, 0, 0, &[1], 0)];
        for (now_ms, expect_ms) in [(0u64, 3000u64), (1000, 2000), (2999, 1)] {
            let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_millis(now_ms));
            assert_eq!(
                p,
                Placement::Decline {
                    retry_after: SimDuration::from_millis(expect_ms)
                }
            );
        }
    }
}
