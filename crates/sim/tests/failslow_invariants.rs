//! Gray-failure hardening: fail-slow nodes, transient task faults, and
//! the peer-relative health detector must keep every driver invariant
//! intact.
//!
//! These tests run in debug mode, so the driver's invariant auditor
//! re-checks the health-layer invariants (retry budgets never exceeded,
//! no launch on a quarantined node, belief coherence, gate discipline)
//! after *every* event — on top of the assertions below.

use custody_sim::{AllocatorKind, ChaosConfig, FailSlowConfig, SimConfig, Simulation};
use custody_simcore::SimRng;

/// An inert fail-slow configuration (nothing sickens, nothing faults)
/// must degenerate to the oracle exactly: event-for-event identical to a
/// run with no fail-slow configuration at all — the gray-failure
/// analogue of `perfect_control_plane_is_event_for_event_oracle`.
#[test]
fn inert_failslow_is_event_for_event_oracle() {
    let inert = FailSlowConfig::default()
        .with_sick_fraction(0.0)
        .with_transient_fault_prob(0.0);
    assert!(inert.is_inert());
    for seed in [3, 19, 71] {
        let base = SimConfig::small_demo(seed);
        let oracle = Simulation::run(&base).cluster_metrics;
        let mut modeled = Simulation::run(&base.clone().with_failslow(inert)).cluster_metrics;
        // Wall-clock and RSS measure the host machine, not the run.
        modeled.adopt_host_measurements(&oracle);
        assert_eq!(oracle, modeled, "seed {seed}: inert fail-slow diverged");
        assert_eq!(modeled.failslow_onsets, 0);
        assert_eq!(modeled.task_faults_injected, 0);
        assert_eq!(modeled.nodes_quarantined, 0);
    }
}

/// Property-style schedule fuzzing: many randomly drawn fail-slow
/// configurations (sick fractions, causes, episodic vs persistent
/// slowdowns, fault rates, budgets, detector thresholds) and seeds, each
/// fully audited after every event. The property is "completes or fails
/// cleanly with consistent counters" — the auditor supplies the
/// fine-grained assertions.
#[test]
fn auditor_passes_on_arbitrary_failslow_schedules() {
    let mut gen = SimRng::seed_from_u64(0xFA11_510A);
    for case in 0..10 {
        let mut fs = FailSlowConfig::default();
        fs.sick_fraction = gen.unit() * 0.5;
        fs.mean_onset_secs = 1.0 + gen.unit() * 30.0;
        fs.mean_episode_secs = if gen.chance(0.5) {
            0.0 // persistent
        } else {
            2.0 + gen.unit() * 20.0 // episodic: remit and relapse
        };
        fs.mean_remission_secs = 2.0 + gen.unit() * 20.0;
        fs.disk_fraction = gen.unit() * 0.5;
        fs.nic_fraction = gen.unit() * 0.5;
        fs.disk_factor = 1.5 + gen.unit() * 10.0;
        fs.nic_factor = 1.5 + gen.unit() * 10.0;
        fs.cpu_factor = 1.5 + gen.unit() * 6.0;
        fs.transient_fault_prob = gen.unit() * 0.15;
        fs.retry_budget = 2 + (gen.unit() * 10.0) as usize;
        fs.retry_jitter = gen.unit() * 0.5;
        fs.detection = gen.chance(0.75);
        fs.demotion = gen.chance(0.75);
        fs.min_samples = 2 + (gen.unit() * 6.0) as usize;
        fs.window = fs.min_samples + 2 + (gen.unit() * 20.0) as usize;
        fs.suspect_ratio = 1.2 + gen.unit();
        fs.quarantine_ratio = fs.suspect_ratio + 0.5 + gen.unit();
        let seed = 100 + case as u64;
        for kind in [AllocatorKind::Custody, AllocatorKind::StaticSpread] {
            let cfg = SimConfig::small_demo(seed)
                .with_allocator(kind)
                .with_failslow(fs);
            let out = Simulation::run(&cfg).cluster_metrics;
            assert_eq!(
                out.jobs_completed + out.jobs_failed,
                12,
                "case {case} {kind}: a job neither completed nor failed"
            );
            assert!(
                out.quarantine_latency_secs.count() + out.false_quarantines
                    <= out.nodes_quarantined,
                "case {case} {kind}: scored quarantines exceed quarantines taken"
            );
            assert!(
                out.task_retries <= out.task_faults_injected,
                "case {case} {kind}: more retries than faults"
            );
        }
    }
}

/// Fail-slow nodes on top of crash-stop chaos, with the full control
/// plane: the two failure models and both detectors must compose without
/// violating any invariant.
#[test]
fn failslow_composes_with_chaos_and_control_plane() {
    use custody_sim::ControlPlaneConfig;
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(15.0)
        .with_horizon(150.0);
    let fs = FailSlowConfig::default()
        .with_sick_fraction(0.3)
        .with_transient_fault_prob(0.03);
    let cfg = SimConfig::small_demo(41)
        .with_chaos(chaos)
        .with_control_plane(ControlPlaneConfig::default())
        .with_failslow(fs);
    let out = Simulation::run(&cfg).cluster_metrics;
    assert_eq!(out.jobs_completed + out.jobs_failed, 12);
    assert_eq!(out.unfenced_stale_finishes, 0);
}

/// With speculation disabled, no configuration of gray failures or chaos
/// may ever launch a speculative clone — the paper's baseline schedulers
/// must stay clone-free.
#[test]
fn speculation_disabled_means_no_clones_under_gray_failures() {
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(12.0)
        .with_horizon(150.0);
    let fs = FailSlowConfig::default()
        .with_sick_fraction(0.4)
        .with_transient_fault_prob(0.05);
    for seed in [2, 13, 29] {
        let cfg = SimConfig::small_demo(seed)
            .with_speculation_enabled(false)
            .with_chaos(chaos)
            .with_failslow(fs);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(
            out.tasks_speculated, 0,
            "seed {seed}: clone launched with speculation disabled"
        );
        assert_eq!(out.clones_won + out.clones_lost, 0, "seed {seed}");
    }
}

/// Turning the detector on must help on a badly limping cluster: mean
/// job completion time with quarantine + demotion is strictly lower than
/// with detection disabled (same physical sickness schedule).
#[test]
fn detection_strictly_lowers_jct_on_a_limping_cluster() {
    let mut fs = FailSlowConfig::default()
        .with_sick_fraction(0.2)
        .with_transient_fault_prob(0.0);
    fs.mean_onset_secs = 2.0;
    fs.disk_factor = 12.0;
    fs.nic_factor = 12.0;
    fs.cpu_factor = 12.0;
    fs.min_samples = 3;
    // Five congested nodes: the sick node serves a fifth of the work, so
    // routing around it dwarfs the capacity lost to quarantine. (On a
    // lightly loaded cluster the trade can go the other way — the
    // fail-slow table in `custody_bench` averages it over seeds.)
    let mut base = SimConfig::small_demo(51).with_allocator(AllocatorKind::StaticSpread);
    base.cluster.num_nodes = 5;
    let on = Simulation::run(&base.clone().with_failslow(fs)).cluster_metrics;
    let off = Simulation::run(&base.with_failslow(fs.with_detection(false))).cluster_metrics;
    // Same physical truth on both sides: the "failslow" stream is
    // untouched by the belief layer.
    assert_eq!(on.failslow_onsets, off.failslow_onsets);
    assert!(on.nodes_quarantined > 0, "detector never quarantined");
    assert_eq!(off.nodes_quarantined, 0, "disabled detector quarantined");
    let (jct_on, jct_off) = (
        on.job_completion_secs().mean(),
        off.job_completion_secs().mean(),
    );
    assert!(
        jct_on < jct_off,
        "quarantining a 12x-slower node must pay off: {jct_on:.2}s on vs {jct_off:.2}s off"
    );
}
