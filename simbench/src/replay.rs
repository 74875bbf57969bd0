//! Allocation rounds replayed outside the simulator, on views built from
//! a workload's own generated jobs and NameNode placement.
//!
//! One round runs per job submission, in schedule order. The submitted
//! job's input tasks join its application's demand with the replica
//! locations of their blocks as preferred nodes, the production
//! `CustodyAllocator` decides the round, and the grants are applied:
//! granted executors leave the idle pool for [`HOLD_ROUNDS`] rounds and
//! launch the task they were granted for (or the next pending task).
//! Every round is also decided by `reference_allocate`, the executable
//! specification, and the two must agree grant for grant.

use std::collections::VecDeque;

use custody_cluster::ExecutorId;
use custody_core::custody::reference_allocate;
use custody_core::{
    AllocationView, AppState, Assignment, CustodyAllocator, ExecutorAllocator, ExecutorInfo,
    JobDemand, TaskDemand,
};
use custody_simcore::SimRng;
use custody_workload::{AppId, JobId};

use crate::trace::Tracer;
use crate::workloads::Inputs;

/// Rounds an executor stays granted before it returns to the idle pool.
pub const HOLD_ROUNDS: usize = 16;

/// What a replay did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Rounds decided by the allocator.
    pub rounds: usize,
    /// Executors granted over every round.
    pub grants: usize,
}

/// Replays one round per submission of `inputs`, timing each
/// `allocate()` call in a `core.allocate` span and checking it against
/// `reference_allocate` in a `core.reference` span.
pub fn replay(inputs: &Inputs, tracer: &mut Tracer) -> Result<ReplayStats, String> {
    let all: Vec<ExecutorInfo> = inputs
        .cluster
        .executors()
        .iter()
        .map(|e| ExecutorInfo {
            id: e.id,
            node: e.node,
        })
        .collect();
    let quota = inputs.config.quota_per_app().min(all.len());
    let mut apps: Vec<AppState> = (0..inputs.datasets.len())
        .map(|i| AppState {
            app: AppId::new(i),
            quota,
            held: 0,
            local_jobs: 0,
            total_jobs: 0,
            local_tasks: 0,
            total_tasks: 0,
            pending_jobs: Vec::new(),
        })
        .collect();
    let mut idle = vec![true; all.len()];
    let mut leases: VecDeque<(usize, ExecutorId, AppId)> = VecDeque::new();
    let mut allocator = CustodyAllocator::new();
    let mut rng = SimRng::for_stream(inputs.config.seed, "alloc");
    let mut stats = ReplayStats {
        rounds: 0,
        grants: 0,
    };
    let namenode = &inputs.namenode;
    for (round, sub) in inputs.schedule.submissions().iter().enumerate() {
        while let Some(&(_, executor, app)) = leases.front().filter(|l| l.0 <= round) {
            leases.pop_front();
            idle[executor.index()] = true;
            apps[app.index()].held -= 1;
        }
        let dataset = inputs.datasets[sub.app.index()][sub.seq];
        let blocks = &namenode.dataset(dataset).blocks;
        apps[sub.app.index()].pending_jobs.push(JobDemand {
            job: JobId::new(round),
            unsatisfied_inputs: blocks
                .iter()
                .enumerate()
                .map(|(t, &b)| TaskDemand {
                    task_index: t,
                    preferred_nodes: namenode.locations(b).into(),
                })
                .collect(),
            pending_tasks: blocks.len(),
            total_inputs: blocks.len(),
            satisfied_inputs: 0,
        });
        let view = AllocationView {
            idle: all.iter().filter(|e| idle[e.id.index()]).copied().collect(),
            all_executors: all.clone(),
            apps: apps.clone(),
        };
        let grants = tracer.span("core.allocate", |_| allocator.allocate(&view, &mut rng));
        let reference = tracer.span("core.reference", |_| reference_allocate(&view));
        if reference != grants {
            return Err(format!(
                "replayed round {round}: allocate() granted {} executors, \
                 reference_allocate {} (or a different set)",
                grants.len(),
                reference.len()
            ));
        }
        for g in &grants {
            apply_grant(&mut apps, &mut idle, g)
                .map_err(|e| format!("replayed round {round}: {e}"))?;
            leases.push_back((round + HOLD_ROUNDS, g.executor, g.app));
        }
        for app in &mut apps {
            retire_drained_jobs(app);
        }
        stats.rounds += 1;
        stats.grants += grants.len();
    }
    Ok(stats)
}

/// Hands `g.executor` to its application and launches the task it was
/// granted for, or the oldest pending task for a filler grant.
fn apply_grant(apps: &mut [AppState], idle: &mut [bool], g: &Assignment) -> Result<(), String> {
    let slot = idle
        .get_mut(g.executor.index())
        .filter(|free| **free)
        .ok_or_else(|| format!("{} granted but not idle", g.executor))?;
    *slot = false;
    let app = &mut apps[g.app.index()];
    if app.held >= app.quota {
        return Err(format!("{} granted past its quota {}", g.app, app.quota));
    }
    app.held += 1;
    match g.for_task {
        Some((job, task)) => {
            let demand = app
                .pending_jobs
                .iter_mut()
                .find(|j| j.job == job)
                .ok_or_else(|| format!("{} granted for unknown {job}", g.executor))?;
            let at = demand
                .unsatisfied_inputs
                .iter()
                .position(|t| t.task_index == task)
                .ok_or_else(|| {
                    format!("{} granted for satisfied task {task} of {job}", g.executor)
                })?;
            demand.unsatisfied_inputs.remove(at);
            demand.satisfied_inputs += 1;
            demand.pending_tasks -= 1;
        }
        None => {
            if let Some(demand) = app.pending_jobs.iter_mut().find(|j| j.pending_tasks > 0) {
                if !demand.unsatisfied_inputs.is_empty() {
                    demand.unsatisfied_inputs.remove(0);
                }
                demand.pending_tasks -= 1;
            }
        }
    }
    Ok(())
}

/// Moves jobs with nothing left to launch into the application's
/// locality history.
fn retire_drained_jobs(app: &mut AppState) {
    for job in app.pending_jobs.iter().filter(|j| j.pending_tasks == 0) {
        app.total_jobs += 1;
        app.total_tasks += job.total_inputs;
        app.local_tasks += job.satisfied_inputs;
        app.local_jobs += usize::from(job.satisfied_inputs == job.total_inputs);
    }
    app.pending_jobs.retain(|j| j.pending_tasks > 0);
}
