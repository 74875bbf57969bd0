//! Simulated-behaviour claims of the evaluation's studies, checked on
//! tiny instances of the same scenarios the `figures` harness runs.

use custody_bench::{
    chaos_scenario, demotion_scenario, detector_scenario, durability_scenario, failslow_scenario,
    paper_config, partition_scenario, Scenario, Variant, PAPER_BASELINE,
};
use custody_sim::{AllocatorKind, RunMetrics, WorkloadKind};
use custody_simcore::stats::Summary;

fn total(runs: &[RunMetrics], f: impl Fn(&RunMetrics) -> usize) -> usize {
    runs.iter().map(f).sum()
}

#[test]
fn custody_never_loses_locality_to_the_baseline() {
    let base = paper_config(WorkloadKind::WordCount, 10, 2, 11);
    let versus = [AllocatorKind::Custody, PAPER_BASELINE];
    let outcome = Scenario::new(base, &versus, [Variant::base("wordcount")]).run();
    let (custody, baseline) = (&outcome.runs(0, 0)[0], &outcome.runs(0, 1)[0]);
    assert_eq!((custody.jobs_completed, baseline.jobs_completed), (8, 8));
    let (c, b) = (custody.input_locality(), baseline.input_locality());
    assert!(c.count() == 8 && b.count() == 8);
    assert!(c.mean() >= b.mean() - 1e-11);
}

#[test]
fn chaos_runs_complete_every_job() {
    let outcome = chaos_scenario(10, 2, &[40.0, 15.0], 13).run();
    // Variant 0 is the calm reference: no fault fired.
    assert_eq!(outcome.runs(0, 0)[0].nodes_failed, 0);
    for (variant, allocator) in [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)] {
        assert_eq!(outcome.runs(variant, allocator)[0].jobs_completed, 8);
    }
}

#[test]
fn detector_runs_complete_and_fence_every_stale_finish() {
    let outcome = detector_scenario(10, 2, &[0.05, 0.4], 17).run();
    let oracle = &outcome.runs(0, 0)[0];
    assert_eq!((oracle.false_suspicions, oracle.jobs_completed), (0, 8));
    for variant in 1..=2 {
        let m = &outcome.runs(variant, 0)[0];
        assert_eq!((m.jobs_completed, m.unfenced_stale_finishes), (8, 0));
    }
}

#[test]
fn partition_runs_complete_and_fence_every_stale_finish() {
    let outcome = partition_scenario(10, 4, &[0.2, 0.4], &[8.0], 19).run();
    let mut episodes = 0;
    for allocator in 0..2 {
        // The calm reference never saw a cut.
        let calm = &outcome.runs(0, allocator)[0];
        assert_eq!((calm.partition_episodes, calm.jobs_completed), (0, 16));
        for variant in 1..=2 {
            // Split-brain fencing never lets work double-complete, and
            // every job still finishes once the cuts heal.
            let m = &outcome.runs(variant, allocator)[0];
            assert_eq!((m.jobs_completed, m.unfenced_stale_finishes), (16, 0));
            episodes += m.partition_episodes;
        }
    }
    assert!(episodes > 0, "partition study drew no episodes");
}

#[test]
fn only_detection_on_failslow_variants_quarantine() {
    // Variants: (0 %, on), (0 %, off), (30 %, on), (30 %, off).
    let outcome = failslow_scenario(6, 1, &[0.0, 0.3], &[21, 22]).run();
    // No sick nodes: nothing to detect.
    assert_eq!(total(outcome.runs(0, 0), |m| m.failslow_onsets), 0);
    assert_eq!(total(outcome.runs(0, 0), |m| m.nodes_quarantined), 0);
    // Sick: slowdowns set in, and only detection-on variants quarantine.
    assert!(total(outcome.runs(2, 0), |m| m.failslow_onsets) > 0);
    for allocator in 0..2 {
        assert_eq!(
            total(outcome.runs(3, allocator), |m| m.nodes_quarantined),
            0
        );
    }
}

#[test]
fn demotion_gap_is_zero_without_sick_nodes() {
    // Variants: (0 %, soft), (0 %, hard), (30 %, soft), (30 %, hard).
    let outcome = demotion_scenario(6, 2, &[0.0, 0.3], &[21, 22]).run();
    let pooled_jct = |variant| {
        let mut pooled = Summary::new();
        for m in outcome.runs(variant, 0) {
            pooled.merge(&m.job_completion_secs());
        }
        pooled.mean()
    };
    // No sick nodes: soft and hard demotion see identical clusters and
    // the detector never fires, so the gap is exactly zero.
    assert_eq!(total(outcome.runs(0, 0), |m| m.failslow_onsets), 0);
    assert_eq!(pooled_jct(0), pooled_jct(1));
    for variant in 2..=3 {
        let onsets = total(outcome.runs(variant, 0), |m| m.failslow_onsets);
        assert!(onsets > 0, "no slowdown drawn");
    }
}

#[test]
fn scrubbing_beats_no_scrubbing_at_every_rate() {
    // Variants: calm, then (rate, scrub on), (rate, scrub off) per rate.
    let outcome = durability_scenario(10, 4, &[0.15, 0.3], 19).run();
    let calm = &outcome.runs(0, 0)[0];
    assert_eq!((calm.replicas_corrupted, calm.jobs_completed), (0, 16));
    for rate in 0..2 {
        let on = &outcome.runs(1 + 2 * rate, 0)[0];
        let off = &outcome.runs(2 + 2 * rate, 0)[0];
        for m in [on, off] {
            // No job may ever hang or double-complete under rot.
            assert_eq!(m.jobs_completed + m.jobs_failed, 16);
            assert!(m.replicas_corrupted > 0, "no corruption injected");
        }
        // Scrubbing is the only detector that finds rot nobody reads.
        assert!(on.scrub_detections > 0, "scrubber idle");
        assert_eq!(off.scrub_detections, 0);
        let lost = (on.blocks_permanently_lost, off.blocks_permanently_lost);
        assert!(
            lost.0 < lost.1,
            "scrubbing did not dominate on loss: {lost:?}"
        );
        let at_risk = (on.blocks_at_risk, off.blocks_at_risk);
        assert!(
            at_risk.0 < at_risk.1,
            "scrubbing did not cut risk: {at_risk:?}"
        );
    }
}
