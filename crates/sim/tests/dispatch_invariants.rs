//! The dispatch loop's incremental bookkeeping under every fault layer.
//!
//! The release pass walks a candidate list instead of every application's
//! `held` set, and allocation views patch a kept idle list instead of
//! rebuilding it. Both are only correct if every site that frees a held
//! executor pushes it as a candidate, and every change to a node's
//! schedulability drops the kept list. With the auditor on, group 16
//! checks the first after every event and the view build checks the
//! second against a rebuild; a composed storm drives every such site
//! (finishes, failed jobs, belief kills and ghost reaping, lost
//! dispatches, quarantine and probation).

use custody_sim::{
    AllocatorKind, Campaign, ChaosConfig, ControlPlaneConfig, CorruptionConfig, FailSlowConfig,
    PartitionConfig, SimConfig, Simulation, WorkloadKind,
};

/// A small mixed campaign with chaos, fail-slow, partitions, corruption
/// and the modeled control plane's detector all on, audited per event.
fn reduced_storm(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(WorkloadKind::WordCount, 24, AllocatorKind::Custody, seed);
    cfg.campaign = Campaign::mixed().with_jobs_per_app(5);
    cfg.with_chaos(
        ChaosConfig::default()
            .with_mean_time_between_faults(20.0)
            .with_horizon(150.0),
    )
    .with_failslow(
        FailSlowConfig::default()
            .with_sick_fraction(0.2)
            .with_transient_fault_prob(0.05),
    )
    .with_partition(
        PartitionConfig::default()
            .with_split_fraction(0.3)
            .with_mean_heal(8.0)
            .with_mean_time_between_partitions(30.0),
    )
    .with_corruption(
        CorruptionConfig::default()
            .with_latent_fraction(0.05)
            .with_mean_time_between_corruptions(15.0),
    )
    .with_control_plane(ControlPlaneConfig::default())
    .with_audit(true)
}

#[test]
fn audited_storms_keep_dispatch_bookkeeping_exact() {
    let (mut requeued, mut failed, mut discarded, mut quarantined) = (0, 0, 0, 0);
    for seed in [3, 11, 42, 97] {
        let cfg = reduced_storm(seed);
        let submitted = cfg.campaign.num_apps() * cfg.campaign.jobs_per_app;
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(
            out.jobs_completed + out.jobs_failed,
            submitted,
            "seed {seed}: a job neither completed nor failed"
        );
        assert!(
            out.views_built <= out.allocation_rounds,
            "seed {seed}: more views than executed rounds"
        );
        requeued += out.tasks_requeued;
        failed += out.jobs_failed;
        discarded += out.partition_work_discarded;
        quarantined += out.nodes_quarantined;
    }
    // The storms reached the sites that free held executors.
    assert!(requeued > 0, "no attempt was ever killed and re-queued");
    assert!(failed > 0, "no job ever failed");
    assert!(discarded > 0, "no partition ever discarded work");
    assert!(quarantined > 0, "no node was ever quarantined");
}
