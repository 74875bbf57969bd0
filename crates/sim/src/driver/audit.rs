//! Always-on invariant auditor for the simulation driver.
//!
//! After every handled event (in debug builds and in release builds that
//! opt in via [`SimConfig::with_audit`](crate::SimConfig::with_audit)),
//! the driver re-derives its redundant state from first principles and
//! panics on the first disagreement. The point is to catch accounting
//! bugs — a failure path that forgets to roll back a counter, a
//! speculation race that double-credits locality, a demand-cache entry
//! that went stale without being dirtied — at the event that introduced
//! them rather than thousands of events later when a job mysteriously
//! never finishes.
//!
//! The audited invariants:
//!
//! 1. **Executor conservation** — every executor is held by at most one
//!    application, and `AppRuntime::held` is exactly the inverse of
//!    `ExecState::owner`. Pool members are idle, alive, and unowned.
//! 2. **Death discipline** — a dead executor runs nothing, is owned by
//!    nobody, sits in no pool, and its host node is recorded as down
//!    (and vice versa: every down node's executors are dead).
//! 3. **Remote-read conservation** — `remote_reads_in_flight` equals
//!    the number of live attempts reading remote input.
//! 4. **Attempt discipline** — a `Running` task has one or two live
//!    attempts (the record-bound one among them), a `Runnable`/`Blocked`
//!    task has none, and a `Done` task has at most one (a speculation
//!    loser still draining).
//! 5. **Locality accounting** — each application's `total_jobs`,
//!    `total_tasks`, `local_tasks`, and `local_jobs` re-derive exactly
//!    from its jobs' task records.
//! 6. **Stage counters** — every stage's `launched`/`completed` counts
//!    match its tasks' states.
//! 7. **Wake and gate conservation** — queued `Wake` events equal the
//!    dedup set, so a decline burst can never flood the event queue, and
//!    backoff gates cover only re-queued (runnable) tasks of live jobs.
//! 8. **NameNode invariants** — replica maps and usage accounting (see
//!    [`NameNode::check_invariants`](custody_dfs::NameNode)), plus
//!    agreement between the driver's fault records and DataNode
//!    decommission state.
//! 9. **Demand-cache freshness** — every clean cache slot matches a
//!    from-scratch recomputation (incremental engine only).
//! 10. **Belief coherence** (detector mode) — executor death tracks
//!     suspicion/lease-revocation belief exactly, DFS decommissions
//!     track DataNode suspicion, ownership and leases form a bijection,
//!     suspicion timers are disarmed exactly while their suspicion
//!     stands, and the lease timer covers the earliest expiry.
//! 11. **Gray-failure discipline** (fail-slow layer) — no job's retry
//!     count exceeds the budget, a failed job holds no live attempts,
//!     and with detection on no idle executor on a quarantined node is
//!     held by any application (launches there are additionally
//!     asserted at launch time).
//! 12. **Preferred-node freshness** — every unlaunched input task of an
//!     unfinished job agrees with the NameNode's current replica map, so
//!     the journal-driven sharded invalidation misses nothing.
//! 13. **Partition discipline** (connectivity layer) — ghost dispatches
//!     exist only under an active cut and only on busy minority
//!     executors the master cannot reach, an active split has an
//!     episode on record, and reconvergence is only ever awaited after a
//!     heal.
//! 14. **Durability discipline** (corruption layer) — every standing
//!     tombstone has zero intact replicas, live marks and onset entries
//!     never outnumber injected marks, and *no completed task ever read
//!     a corrupted replica* (enforced at completion by the verified-read
//!     gate and re-asserted before `mark_done`).
//! 15. **Counter ledger** — [`RunMetrics::check_counters`](crate::RunMetrics):
//!     a layer that is off counts nothing; the unavailability ledger
//!     balances (`blocks_unavailable` = recovered + standing
//!     tombstones); fenced + still-bouncing deferred reports never exceed
//!     deferrals, every partition-fenced Finish also hit the epoch fence,
//!     the episode cap holds; detection-latency samples never exceed
//!     detections; clone races never exceed clones, recoveries never
//!     exceed faults, and no stale completion slipped past epoch
//!     fencing. `finish()` re-checks these at the end of every run.
//! 16. **Dispatch coverage** — every live, owned executor that runs
//!     nothing is on the release candidate list, so the next release
//!     pass reaches it without scanning any `held` set. This is what
//!     catches a site that frees a held executor's slot without pushing
//!     it.

use custody_cluster::HealthState;

use crate::job::TaskState;

use super::{Driver, FaultKind};

impl Driver {
    /// Checks every driver invariant, panicking with a description of
    /// the first violation. Cost is O(executors + tasks) per call, so
    /// release-mode experiment sweeps leave it off unless asked.
    pub(crate) fn audit(&self) {
        self.audit_executors();
        self.audit_attempts();
        self.audit_accounting();
        assert_eq!(
            self.pending_wakes,
            self.wakes.len(),
            "queued Wake events out of sync with the dedup set"
        );
        // Backoff gates (transient faults and failed verified reads) cover
        // only re-queued tasks of live jobs.
        for &(j, s, t) in self.retry_gates.keys() {
            assert!(
                !self.jobs[j].is_finished(),
                "retry gate outlives finished job {j}"
            );
            assert_eq!(
                self.jobs[j].stages[s].tasks[t].state,
                TaskState::Runnable,
                "job {j} stage {s} task {t} gated while not runnable"
            );
        }
        self.audit_topology();
        self.audit_preferred();
        if self.incremental {
            self.cache.audit(&self.jobs);
        }
        if self.health.is_some() {
            self.audit_health();
        }
        self.audit_partition();
        self.audit_durability();
        self.check_counters();
        self.audit_dispatch();
    }

    /// Invariant 16: dispatch coverage — no idle held executor is missing
    /// from the release candidates.
    fn audit_dispatch(&self) {
        let candidates: custody_simcore::DenseSet =
            self.release_candidates.iter().map(|e| e.index()).collect();
        for (e, st) in self.exec_state.iter().enumerate() {
            if st.owner.is_some() && st.running.is_none() && !st.dead {
                assert!(
                    candidates.contains(e),
                    "idle held executor {e} is missing from the release candidates"
                );
            }
        }
    }

    /// Invariant 15: the counter ledger's own relations, stated against
    /// the layers that are on. `finish()` calls this too, so runs
    /// without the per-event auditor still check them at the end.
    pub(super) fn check_counters(&self) {
        self.metrics.check_counters(
            self.partition
                .as_ref()
                .map(|p| (p.cfg.max_episodes, p.deferred.len())),
            self.durability.as_ref().map(|d| d.unavailable.len()),
        );
    }

    /// Invariant 14: durability discipline — tombstone justification and
    /// the corruption-mark bounds. The invariant's completion half —
    /// *no completed task ever read a corrupted replica* — is enforced
    /// structurally at completion time: the verified-read gate diverts
    /// every corrupt-source attempt before `mark_done`, and a
    /// debug assertion re-checks the winner's source there.
    fn audit_durability(&self) {
        let Some(d) = &self.durability else { return };
        // Every standing tombstone is justified: no intact copy exists.
        for &block in &d.unavailable {
            assert_eq!(
                self.namenode.clean_replica_count(block),
                0,
                "{block} is tombstoned but has an intact replica"
            );
        }
        // Every undetected-onset entry points at a live mark, and no
        // block holds more marks than were ever injected.
        let mut marks_total = 0;
        for b in 0..self.namenode.num_blocks() {
            marks_total += self
                .namenode
                .corrupt_replicas(custody_dfs::BlockId::new(b))
                .len();
        }
        assert!(
            marks_total <= self.metrics.replicas_corrupted,
            "{marks_total} live corruption marks exceed {} ever injected",
            self.metrics.replicas_corrupted
        );
        // Onset entries are inserted once per successful mark; stale
        // entries (the replica crashed away before detection) are legal,
        // so only the insertion bound holds.
        assert!(
            d.onset.len() <= self.metrics.replicas_corrupted,
            "{} onset entries exceed {} marks ever injected",
            d.onset.len(),
            self.metrics.replicas_corrupted
        );
    }

    /// Invariant 13: partition discipline — ghost-dispatch and episode
    /// bookkeeping.
    fn audit_partition(&self) {
        let Some(p) = &self.partition else { return };
        let c = &p.connectivity;
        assert!(
            p.lost_dispatches.is_empty() || c.cutting(),
            "ghost dispatches survived a reconnect unreconciled"
        );
        for &e in &p.lost_dispatches {
            let node = self.cluster.node_of(e);
            assert!(
                c.in_minority(node),
                "ghost dispatch on majority-side executor {e}"
            );
            assert!(
                !c.master_reaches_node(node),
                "ghost dispatch on a reachable node ({e})"
            );
            let st = &self.exec_state[e.index()];
            assert!(
                !st.dead && st.running.is_some(),
                "ghost dispatch on an executor ({e}) the master does not believe busy"
            );
        }
        assert!(
            !c.split_active() || self.metrics.partition_episodes >= 1,
            "active split without an episode on record"
        );
        assert!(
            p.awaiting_reconverge.is_none() || !c.split_active(),
            "reconvergence awaited while a split is still open"
        );
    }

    /// Invariant 11: gray-failure discipline — retry budgets, failed-job
    /// hygiene, and quarantine exclusion.
    fn audit_health(&self) {
        let h = self.health.as_ref().expect("health audit without layer"); // lint: allow(panic) — the health audit only runs when the layer is configured
                                                                           // Transient faults and failed verified reads draw on the same
                                                                           // per-job retry counter, so the bound is the larger of the two
                                                                           // budgets when the durability layer is also active.
        let budget = self
            .durability
            .as_ref()
            .map_or(h.retry.budget, |d| h.retry.budget.max(d.retry.budget));
        for (j, job) in self.jobs.iter().enumerate() {
            assert!(
                job.retries <= budget,
                "job {j} consumed {} retries against a budget of {budget}",
                job.retries,
            );
            if job.failed {
                let running = job
                    .stages
                    .iter()
                    .flat_map(|s| &s.tasks)
                    .filter(|t| t.state == TaskState::Running)
                    .count();
                assert_eq!(running, 0, "failed job {j} still has running tasks");
            }
        }
        if !h.cfg.detection {
            return;
        }
        for (e, st) in self.exec_state.iter().enumerate() {
            let node = self.cluster.node_of(custody_cluster::ExecutorId::new(e));
            if h.belief[node.index()].state == HealthState::Quarantined
                && st.owner.is_some()
                && st.running.is_none()
            {
                // lint: allow(panic) — audit failure: stopping loudly on a broken invariant is the point
                panic!("idle executor {e} on quarantined node {node} is still held");
            }
        }
        for (n, b) in h.belief.iter().enumerate() {
            assert!(
                b.samples.len() <= h.cfg.window,
                "node {n} sample window overflowed"
            );
        }
    }

    /// Invariant 12: preferred-node freshness — every unlaunched input
    /// task of an unfinished job points at exactly its block's current
    /// replica set. Replica churn is propagated through the NameNode's
    /// change journal and the demand cache's block → watching-jobs index;
    /// this catches a journal entry that was never drained, or a drain
    /// that missed a watching job.
    fn audit_preferred(&self) {
        for (j, job) in self.jobs.iter().enumerate() {
            if job.is_finished() {
                continue;
            }
            for (t, task) in job.stages[0].tasks.iter().enumerate() {
                if !matches!(task.state, TaskState::Blocked | TaskState::Runnable) {
                    continue;
                }
                let block = task.block.expect("input task has a block"); // lint: allow(panic) — input tasks always carry a block id
                assert_eq!(
                    &task.preferred[..],
                    self.namenode.locations(block),
                    "job {j} input task {t}: preferred nodes out of date with the replica map"
                );
            }
        }
    }

    /// Invariants 1–3: ownership bijection, pool hygiene, death
    /// discipline, remote-read conservation.
    fn audit_executors(&self) {
        let mut remote = 0usize;
        for (e, st) in self.exec_state.iter().enumerate() {
            if st.dead {
                assert!(st.running.is_none(), "dead executor {e} is running a task");
                assert!(st.owner.is_none(), "dead executor {e} has an owner");
                assert!(
                    !self.pool.contains(e),
                    "dead executor {e} sits in the idle pool"
                );
            }
            if let Some(owner) = st.owner {
                assert!(
                    self.apps[owner.index()].held.contains(e),
                    "executor {e} owned by {owner} but missing from its held set"
                );
            }
            if let Some(r) = st.running {
                assert!(
                    st.owner.is_some(),
                    "executor {e} runs a task without an owner"
                );
                if r.remote_input {
                    remote += 1;
                }
            }
        }
        let held_total: usize = self.apps.iter().map(|a| a.held.len()).sum();
        let owned_total = self
            .exec_state
            .iter()
            .filter(|st| st.owner.is_some())
            .count();
        assert_eq!(
            held_total, owned_total,
            "an executor is held by more than one application"
        );
        for (i, a) in self.apps.iter().enumerate() {
            for e in a.held.iter() {
                let st = &self.exec_state[e];
                assert_eq!(
                    st.owner.map(custody_workload::AppId::index),
                    Some(i),
                    "app {i} holds executor {e} but the executor disagrees"
                );
            }
        }
        for e in self.pool.iter() {
            let st = &self.exec_state[e];
            assert!(st.owner.is_none(), "pooled executor {e} still has an owner");
            assert!(
                st.running.is_none(),
                "pooled executor {e} is running a task"
            );
            assert!(!st.dead, "pooled executor {e} is dead");
        }
        assert_eq!(
            self.remote_reads_in_flight, remote,
            "remote-read counter out of sync with live attempts"
        );
    }

    /// Invariant 4: per-task attempt counts and the record-bound attempt.
    fn audit_attempts(&self) {
        use std::collections::BTreeMap;
        let mut attempts: BTreeMap<(usize, usize, usize), Vec<&super::RunningTask>> =
            BTreeMap::new();
        for st in &self.exec_state {
            if st.dead {
                continue;
            }
            if let Some(r) = &st.running {
                attempts
                    .entry((r.job_idx, r.stage, r.task))
                    .or_default()
                    .push(r);
            }
        }
        for (j, job) in self.jobs.iter().enumerate() {
            for (s, stage) in job.stages.iter().enumerate() {
                for (t, task) in stage.tasks.iter().enumerate() {
                    let live = attempts.get(&(j, s, t)).map_or(&[][..], |v| &v[..]);
                    match task.state {
                        TaskState::Blocked | TaskState::Runnable => assert!(
                            live.is_empty(),
                            "job {j} stage {s} task {t} is {:?} with a live attempt",
                            task.state
                        ),
                        TaskState::Running => {
                            assert!(
                                (1..=2).contains(&live.len()),
                                "job {j} stage {s} task {t} runs {} attempts",
                                live.len()
                            );
                            assert!(
                                live.iter().any(|r| Some(r.launched_at) == task.launched_at
                                    && r.local == task.local),
                                "job {j} stage {s} task {t}: record-bound attempt is not live"
                            );
                        }
                        TaskState::Done => assert!(
                            live.len() <= 1,
                            "job {j} stage {s} task {t} finished with {} live attempts",
                            live.len()
                        ),
                    }
                }
            }
        }
    }

    /// Invariants 5–6: per-app locality accounting and stage counters
    /// re-derive from the task records.
    fn audit_accounting(&self) {
        for (i, a) in self.apps.iter().enumerate() {
            assert_eq!(a.total_jobs, a.jobs.len(), "app {i} job count drifted");
            let mut total_tasks = 0;
            let mut local_tasks = 0;
            let mut local_jobs = 0;
            for &j in &a.jobs {
                let job = &self.jobs[j];
                let stage0 = &job.stages[0];
                total_tasks += stage0.tasks.len();
                local_tasks += stage0
                    .tasks
                    .iter()
                    .filter(|t| t.local == Some(true))
                    .count();
                if job.settled_local {
                    local_jobs += 1;
                    assert!(
                        stage0.tasks.iter().all(|t| t.local == Some(true)),
                        "app {i} job {j} settled local with a non-local input"
                    );
                }
            }
            assert_eq!(a.total_tasks, total_tasks, "app {i} total_tasks drifted");
            assert_eq!(a.local_tasks, local_tasks, "app {i} local_tasks drifted");
            assert_eq!(a.local_jobs, local_jobs, "app {i} local_jobs drifted");
        }
        for (j, job) in self.jobs.iter().enumerate() {
            for (s, stage) in job.stages.iter().enumerate() {
                let running_or_done = stage
                    .tasks
                    .iter()
                    .filter(|t| matches!(t.state, TaskState::Running | TaskState::Done))
                    .count();
                let done = stage
                    .tasks
                    .iter()
                    .filter(|t| t.state == TaskState::Done)
                    .count();
                assert_eq!(
                    stage.launched, running_or_done,
                    "job {j} stage {s} launched counter drifted"
                );
                assert_eq!(
                    stage.completed, done,
                    "job {j} stage {s} completed counter drifted"
                );
            }
        }
    }

    /// Invariant 8: driver fault records, executor liveness, and DFS
    /// decommission state all agree; then the NameNode's own deep check.
    ///
    /// In oracle mode liveness is coupled to *physical* truth
    /// (`node_down`); in detector mode it is coupled to the master's
    /// *belief* (suspicions and lease revocations), which is checked by
    /// [`audit_detector`](Self::audit_detector) instead.
    fn audit_topology(&self) {
        if self.detector.is_some() {
            self.audit_detector();
            self.namenode.check_invariants();
            return;
        }
        for (e, st) in self.exec_state.iter().enumerate() {
            let node = self.cluster.node_of(custody_cluster::ExecutorId::new(e));
            assert_eq!(
                st.dead,
                self.node_down[node.index()].is_some(),
                "executor {e} liveness disagrees with its node's fault record"
            );
        }
        for (n, down) in self.node_down.iter().enumerate() {
            let failed = self.namenode.is_node_failed(custody_dfs::NodeId::new(n));
            match down {
                Some(FaultKind::Machine) => assert!(
                    failed,
                    "node {n} lost its machine but the NameNode still places there"
                ),
                Some(FaultKind::ExecutorsOnly) => assert!(
                    !failed,
                    "node {n} lost only executors but its DataNode is decommissioned"
                ),
                None => assert!(!failed, "node {n} is up but decommissioned"),
            }
        }
        self.namenode.check_invariants();
    }

    /// Invariant 10 (detector mode): the master's belief state is
    /// internally coherent — executor death tracks suspicion/revocation
    /// exactly, DFS decommissions track DataNode suspicion exactly,
    /// ownership and leases are a bijection, suspicion timers are
    /// disarmed exactly while their suspicion stands, and the single lease
    /// timer covers the earliest expiry.
    fn audit_detector(&self) {
        let d = self.detector.as_ref().expect("detector audit without one"); // lint: allow(panic) — the detector audit only runs in detector mode
        for (e, st) in self.exec_state.iter().enumerate() {
            let node = self.cluster.node_of(custody_cluster::ExecutorId::new(e));
            let believed_dead = d.exec_suspected[node.index()] || d.revoked[e];
            assert_eq!(
                st.dead, believed_dead,
                "executor {e} deadness disagrees with suspicion/revocation belief"
            );
            assert_eq!(
                st.owner.is_some(),
                d.leases.holds(custody_cluster::ExecutorId::new(e)),
                "executor {e} ownership and lease disagree"
            );
        }
        for n in 0..self.node_down.len() {
            assert_eq!(
                self.namenode.is_node_failed(custody_dfs::NodeId::new(n)),
                d.dfs_suspected[n],
                "node {n} DFS decommission state disagrees with suspicion belief"
            );
            if d.exec_suspected[n] {
                assert!(
                    !d.exec_deadline_armed[n],
                    "node {n} exec-suspected with its suspicion timer still armed"
                );
            }
            if d.dfs_suspected[n] {
                assert!(
                    !d.dfs_deadline_armed[n],
                    "node {n} dfs-suspected with its suspicion timer still armed"
                );
            }
        }
        if let Some(next) = d.leases.next_expiry() {
            let armed_at = d
                .lease_deadline_at
                .expect("live leases without a pending expiry timer"); // lint: allow(panic) — audit invariant: live leases imply a pending expiry timer
            assert!(
                armed_at <= next,
                "lease timer armed after the earliest lease expiry"
            );
        }
    }
}
