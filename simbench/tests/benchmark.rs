//! The benchmark's own tests. Run them in release mode
//! (`cargo test --release`): debug builds audit every event anyway, so
//! only release builds compare an audited run with an unaudited one.

use custody_sim::Simulation;
use custody_simbench::measure::{self, check_run, Options, END_TO_END, PER_LAYER};
use custody_simbench::workloads::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
    }
}

#[test]
fn reduced_workloads_match_their_audited_runs() {
    for w in Workload::ALL {
        let cfg = w.reduced_config(DEFAULT_SEED);
        let plain = Simulation::run(&cfg).cluster_metrics;
        let audited = Simulation::run(&cfg.clone().with_audit(true)).cluster_metrics;
        let submitted = cfg.campaign.total_jobs();
        assert_eq!(
            check_run(&plain, &plain, submitted),
            Vec::<String>::new(),
            "{}",
            w.name()
        );
        assert_eq!(
            check_run(&audited, &plain, submitted),
            Vec::<String>::new(),
            "{}: the audited run differs",
            w.name()
        );
    }
}

#[test]
fn reduced_fault_storm_fires_every_layer() {
    let cfg = Workload::FaultStorm.reduced_config(DEFAULT_SEED);
    let m = Simulation::run(&cfg).cluster_metrics;
    assert!(m.nodes_failed + m.executor_faults > 0, "chaos never fired");
    assert!(
        m.failslow_onsets + m.task_faults_injected > 0,
        "gray failures never fired"
    );
    assert!(m.partition_episodes > 0, "no partition opened");
    assert!(m.replicas_corrupted > 0, "no replica rotted");
}

#[test]
fn check_run_catches_lost_jobs_and_nondeterminism() {
    let cfg = Workload::ScaleWide.reduced_config(DEFAULT_SEED);
    let first = Simulation::run(&cfg).cluster_metrics;
    let submitted = cfg.campaign.total_jobs();
    let mut lost = first.clone();
    lost.jobs_completed -= 1;
    assert_eq!(
        check_run(&lost, &first, submitted).len(),
        2,
        "lost job and changed statistics"
    );
    let mut drifted = first.clone();
    drifted.events_processed += 1;
    assert_eq!(check_run(&drifted, &first, submitted).len(), 1);
    let mut unfenced = first.clone();
    unfenced.unfenced_stale_finishes = 1;
    assert!(!check_run(&unfenced, &first, submitted).is_empty());
}

#[test]
fn configs_follow_the_seed() {
    for w in Workload::ALL {
        let a = w.configs(DEFAULT_SEED);
        let b = w.configs(DEFAULT_SEED);
        let c = w.configs(HELD_OUT_SEED);
        let seeds = |cs: &[custody_sim::SimConfig]| cs.iter().map(|c| c.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b), "{}", w.name());
        assert_ne!(seeds(&a), seeds(&c), "{}", w.name());
        assert!(a
            .iter()
            .all(|c| c.allocator == custody_sim::AllocatorKind::Custody));
    }
}

#[test]
fn traced_invocation_reports_every_layer_metric() {
    for w in Workload::ALL {
        let opts = options(w, true);
        let out = measure::run_configs(&opts, || vec![w.reduced_config(opts.seed)]);
        assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
        let value = |name: &str| out.metrics.iter().find(|m| m.0 == name).expect(name).1;
        assert!(value("sim.rest_s") >= 0.0, "{}: sim.rest_s < 0", w.name());
        assert!(value("core.replay_rounds") > 0.0);
        assert!(value("bench.passes") >= measure::MIN_PASSES as f64);
        assert!(out.tracer.spans().iter().any(|s| s.name == "sim.run"));
    }
}

#[test]
fn untraced_invocation_reports_every_end_to_end_metric() {
    let w = Workload::StreamMixed;
    let opts = options(w, false);
    let out = measure::run_configs(&opts, || vec![w.reduced_config(opts.seed)]);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    assert_eq!(out.failed, 0);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    assert!(out.metrics.iter().all(|m| m.1 > 0.0), "{:?}", out.metrics);
    assert!(
        out.tracer.spans().is_empty(),
        "end-to-end runs record no spans"
    );
}

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    for (name, unit) in &all {
        assert!(well_formed(name, 64, ""), "bad metric name {name:?}");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name:?}"
        );
        assert!(well_formed(unit, 16, "/%"), "bad unit {unit:?} of {name}");
    }
    let mut names: Vec<&str> = all.iter().map(|m| m.0).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names must be unique");
}

/// Every `"<key>": "<value>"` string in `text`, in order.
fn string_values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let json = include_str!("../../BENCHMARK.json");
    let e2e_at = json.find("\"end_to_end\"").expect("end_to_end");
    let layer_at = json.find("\"per_layer\"").expect("per_layer");
    let workloads_at = json.find("\"workloads\"").expect("workloads");
    assert!(workloads_at < e2e_at && e2e_at < layer_at, "section order");
    let workloads = string_values(&json[workloads_at..e2e_at], "name");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    let section = |text: &str| -> Vec<(String, String)> {
        string_values(text, "name")
            .into_iter()
            .zip(string_values(text, "unit"))
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section(&json[e2e_at..layer_at]), owned(&END_TO_END));
    assert_eq!(section(&json[layer_at..]), owned(&PER_LAYER));
}
