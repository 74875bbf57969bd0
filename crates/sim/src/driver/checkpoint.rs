//! Master checkpoint + write-ahead log: crash the master, replay, verify.
//!
//! When [`ControlPlaneConfig::with_checkpoints`](crate::ControlPlaneConfig)
//! enables a checkpoint interval, the driver keeps two durable artifacts:
//!
//! * a **checkpoint** — a full snapshot of itself, taken at run start
//!   (genesis) and after every `Checkpoint` event;
//! * a **WAL** — every event popped since that snapshot, in pop order.
//!
//! A master crash (drawn per `ChaosFault` pop with
//! `master_crash_fraction`) is modeled as losing the live state entirely
//! and rebuilding it: a *ghost* driver starts from the checkpoint, pops
//! its own copy of each WAL entry, and handles it exactly as the live
//! loop would — same event, same time, same sequence number, same RNG
//! draws. Because the whole simulation is deterministic, the ghost must
//! arrive at a state identical to the one that crashed;
//! [`assert_converged`] proves it field by field before the ghost takes
//! over as the live driver. Recovery is thus not merely survived but
//! *verified* on every single crash.
//!
//! Excluded from convergence (and carried over from the crashed state):
//! the trace (already holds pre-crash records the ghost must not
//! duplicate), the ledger's host measurements (real time, not
//! simulated), the checkpoint/WAL themselves, the crash RNG (replay must
//! not re-draw crash coins), and the recovery counter.

use custody_simcore::ScheduledEvent;

use super::{Driver, Event};

impl Driver {
    /// A self-snapshot suitable for recovery: everything but the
    /// recovery machinery itself and the trace.
    pub(super) fn clone_for_checkpoint(&self) -> Driver {
        let mut snap = self.clone();
        snap.trace = None;
        snap.checkpoint = None;
        snap.wal = Vec::new();
        snap
    }

    /// The master crashed at the pop of `ev` (not yet handled, not yet
    /// logged). Rebuild the driver from checkpoint + WAL, verify the
    /// rebuilt state converged to the crashed one, and swap it in; the
    /// caller then handles `ev` on the recovered master.
    pub(super) fn master_crash_recover(&mut self, ev: &ScheduledEvent<Event>) {
        let mut ghost: Box<Driver> = Box::new(
            self.checkpoint
                .as_ref()
                .expect("master crash without a checkpoint") // lint: allow(panic) — master-crash events are only scheduled with checkpointing on
                .as_ref()
                .clone(),
        );
        // The WAL survives recovery: a second crash before the next
        // checkpoint replays this same prefix again.
        let wal = std::mem::take(&mut self.wal);
        for &(time, seq, event) in &wal {
            let popped = ghost.queue.pop().expect("WAL longer than ghost schedule"); // lint: allow(panic) — ghost replay length was validated against the WAL
            assert_eq!(
                (popped.time, popped.seq, popped.event),
                (time, seq, event),
                "WAL replay diverged from the ghost's event schedule"
            );
            ghost.handle_event(event, time);
        }
        // The ghost's next event must be exactly the interrupted one.
        let popped = ghost.queue.pop().expect("ghost queue drained early"); // lint: allow(panic) — ghost replay length was validated against the WAL
        assert_eq!(
            (popped.time, popped.seq, popped.event),
            (ev.time, ev.seq, ev.event),
            "recovered master is not at the interrupted event"
        );
        assert_converged(self, &ghost);
        ghost.trace = self.trace.take();
        ghost.metrics.adopt_host_measurements(&self.metrics);
        ghost.metrics.master_recoveries = self.metrics.master_recoveries + 1;
        ghost.checkpoint = self.checkpoint.take();
        ghost.wal = wal;
        ghost.crash_rng = self.crash_rng.clone();
        *self = *ghost;
    }
}

/// Panics unless `ghost` (checkpoint + WAL replay) reconstructed exactly
/// the state of `live` (the driver that crashed). Every field that
/// affects future behavior is compared.
fn assert_converged(live: &Driver, ghost: &Driver) {
    macro_rules! check {
        ($($f:ident).+) => {
            assert_eq!(
                live.$($f).+,
                ghost.$($f).+,
                concat!(
                    "master recovery diverged on `",
                    stringify!($($f).+),
                    "`"
                )
            );
        };
    }
    let key = |e: &ScheduledEvent<Event>| (e.time, e.seq, e.event);
    assert_eq!(
        live.queue.snapshot().iter().map(key).collect::<Vec<_>>(),
        ghost.queue.snapshot().iter().map(key).collect::<Vec<_>>(),
        "master recovery diverged on the pending event schedule"
    );
    assert_eq!(
        live.queue.now(),
        ghost.queue.now(),
        "master recovery diverged on the simulation clock"
    );
    assert_eq!(
        live.queue.next_seq(),
        ghost.queue.next_seq(),
        "master recovery diverged on the event sequence counter"
    );
    check!(namenode);
    check!(jobs);
    check!(exec_state);
    check!(pool);
    check!(alloc_rng);
    check!(fail_rng);
    check!(noise_rng);
    check!(chaos_rng);
    check!(control_rng);
    check!(wakes);
    check!(pending_wakes);
    check!(speculation);
    check!(detector);
    check!(node_down);
    check!(perma_down);
    check!(degraded_until);
    check!(remote_reads_in_flight);
    check!(last_round);
    check!(health);
    check!(failslow_rng);
    check!(taskfault_rng);
    check!(retry_gates);
    check!(partition);
    check!(partition_rng);
    check!(durability);
    check!(corruption_rng);
    check!(repair_armed);
    check!(open_disruptions);
    check!(cache);
    check!(release_candidates);
    assert_eq!(
        live.allocator.decision_state(),
        ghost.allocator.decision_state(),
        "master recovery diverged on the allocator's decision state"
    );
    // The whole counter ledger, less what recovery carries over from the
    // crashed state: host measurements and the recovery counter.
    let mut replayed = ghost.metrics.clone();
    replayed.adopt_host_measurements(&live.metrics);
    replayed.master_recoveries = live.metrics.master_recoveries;
    assert_eq!(
        live.metrics, replayed,
        "master recovery diverged on the counter ledger"
    );
    // Per-application allocation state: job lists, quotas, held sets, the
    // locality accounting the allocator reads, the task scheduler's
    // decision state, and the per-app metrics.
    let apps = |d: &Driver| {
        d.apps
            .iter()
            .map(|a| {
                let locality = (a.total_jobs, a.local_jobs, a.total_tasks, a.local_tasks);
                (
                    a.jobs.clone(),
                    a.quota,
                    a.held.clone(),
                    locality,
                    a.scheduler.decision_state(),
                    a.metrics.clone(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        apps(live),
        apps(ghost),
        "master recovery diverged on application state"
    );
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::config::{CorruptionConfig, SimConfig};

    /// Whether `assert_converged` rejects `live` against a copy of it
    /// that `perturb` changed.
    fn diverges(live: &Driver, perturb: impl FnOnce(&mut Driver)) -> bool {
        let mut ghost = live.clone();
        perturb(&mut ghost);
        catch_unwind(AssertUnwindSafe(|| assert_converged(live, &ghost))).is_err()
    }

    #[test]
    fn convergence_check_covers_the_durability_layer() {
        let cfg = SimConfig::small_demo(43).with_corruption(
            CorruptionConfig::default()
                .with_latent_fraction(0.05)
                .with_mean_time_between_corruptions(10.0),
        );
        let live = Driver::new(&cfg);
        assert!(!diverges(&live, |_| {}));
        assert!(diverges(&live, |g| {
            g.durability.as_mut().expect("layer on").scrub_cursor += 1;
        }));
        assert!(diverges(&live, |g| {
            g.corruption_rng.below(2);
        }));
        assert!(diverges(&live, |g| g.repair_armed = !g.repair_armed));
        assert!(diverges(&live, |g| g.metrics.scrub_detections += 1));
        // Recovery carries these over from the crashed state.
        assert!(!diverges(&live, |g| g.metrics.master_recoveries += 1));
        assert!(!diverges(&live, |g| g.metrics.allocator_wall_secs += 1.0));
    }

    /// A driver that handled the first `n` events of `cfg`'s run.
    fn pumped(cfg: &SimConfig, n: usize) -> Driver {
        let mut d = Driver::new(cfg);
        for _ in 0..n {
            let Some(ev) = d.queue.pop() else { break };
            d.handle_event(ev.event, ev.time);
        }
        d
    }

    #[test]
    fn convergence_check_covers_dispatch_and_decision_state() {
        use custody_cluster::ExecutorId;
        use custody_core::AllocatorKind;
        for kind in [
            AllocatorKind::DynamicOffer,
            AllocatorKind::StaticSpread,
            AllocatorKind::StaticRandom,
        ] {
            let cfg = SimConfig::small_demo(5).with_allocator(kind);
            let live = pumped(&cfg, 40);
            let fresh = cfg.allocator.build();
            assert_ne!(
                live.allocator.decision_state(),
                fresh.decision_state(),
                "{kind}: the run left no allocator state to perturb"
            );
            assert!(diverges(&live, |g| g.allocator = fresh), "{kind}");
        }
        let cfg = SimConfig::small_demo(5);
        let live = pumped(&cfg, 40);
        assert!(!diverges(&live, |_| {}));
        let app = live
            .apps
            .iter()
            .position(|a| !a.scheduler.decision_state().is_empty())
            .expect("some delay scheduler kept a locality clock");
        assert!(diverges(&live, |g| {
            g.apps[app].scheduler = cfg.scheduler.build();
        }));
        assert!(diverges(&live, |g| {
            g.release_candidates.push(ExecutorId::new(0));
        }));
        // The kept idle view the next allocation view is patched from.
        assert!(diverges(&live, |g| g.pool.invalidate_view()));
    }
}
