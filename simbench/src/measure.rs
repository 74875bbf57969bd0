//! One benchmark invocation: set up a workload, replay its allocation
//! rounds, run the simulator repeatedly for a fixed time, check every
//! result, and derive the end-to-end or per-layer metrics.

use std::time::{Duration, Instant};

use custody_sim::metrics::peak_rss_bytes;
use custody_sim::{RunMetrics, SimConfig, Simulation, TaskRecord, TaskTrace};
use custody_simcore::stats::Summary;

use crate::probe::Probe;
use crate::replay::replay;
use crate::trace::Tracer;
use crate::workloads::{Inputs, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_locality", "frac"),
    ("sim_jct_mean_s", "sim_s"),
    ("sim_jct_p90_s", "sim_s"),
    ("jobs_completed_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("sim.round_s", "s"),
    ("sim.rest_s", "s"),
    ("sim.demand_s", "s"),
    ("sim.rounds", "count"),
    ("sim.rounds_skipped", "count"),
    ("sim.rounds_per_event", "rounds/event"),
    ("sim.jct_p50_s", "sim_s"),
    ("sim.makespan_s", "sim_s"),
    ("core.allocate_us_p50", "us"),
    ("core.allocate_us_p90", "us"),
    ("core.replay_rounds", "count"),
    ("core.grants_per_round", "grants/round"),
    ("simcore.events", "count"),
    ("simcore.pop_s", "s"),
    ("simcore.queue_peak", "count"),
    ("workload.generate_s", "s"),
    ("workload.jobs", "count"),
    ("workload.input_tasks", "count"),
    ("dfs.place_s", "s"),
    ("dfs.blocks", "count"),
    ("scheduler.tasks", "count"),
    ("scheduler.input_local_frac", "frac"),
    ("scheduler.delay_p50_s", "sim_s"),
    ("scheduler.delay_p99_s", "sim_s"),
    ("scheduler.tasks_requeued", "count"),
    ("scheduler.task_retries", "count"),
    ("dfs.replicas_corrupted", "count"),
    ("dfs.corrupt_reads", "count"),
    ("dfs.scrub_detections", "count"),
    ("dfs.replicas_repaired", "count"),
    ("dfs.blocks_unavailable", "count"),
    ("dfs.blocks_lost", "count"),
    ("sim.detector.false_suspicions", "count"),
    ("sim.detector.leases_revoked", "count"),
    ("sim.detector.stale_fenced", "count"),
    ("sim.health.quarantined", "count"),
    ("sim.health.false_quarantines", "count"),
    ("sim.partition.episodes", "count"),
    ("sim.partition.finishes_fenced", "count"),
    ("sim.partition.work_discarded", "count"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.passes", "count"),
    ("bench.host_slowdown_p10", "ratio"),
    ("bench.host_slowdown_p50", "ratio"),
];

/// Fewest passes per mode, whatever `--seconds` says: two are needed for
/// the determinism check, and a third steadies the estimates.
pub const MIN_PASSES: usize = 3;

/// Host time spent on set-ups before each untraced pass: set-ups repeat
/// until this much has been spent, so a workload whose set-up takes a few
/// milliseconds still gets enough samples to find its fastest one.
const SETUP_SECS_PER_PASS: f64 = 0.1;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// How long the repeated passes last.
    pub seconds: f64,
    /// Per-layer metrics (and spans) instead of end-to-end metrics.
    pub trace: bool,
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Simulator runs made, plus one per replayed configuration.
    pub attempted: usize,
    /// Runs and replays that failed a correctness check.
    pub failed: usize,
    /// Correctness checks that failed, one message each; any failure,
    /// including a metric that is not a finite number, makes the
    /// invocation incorrect.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Untraced passes measured; each ran every configuration once.
    pub passes: usize,
    /// Host seconds the allocator replay took, outside the measured
    /// window.
    pub replay_secs: f64,
    /// Timed calls of the host-speed probe over the window.
    pub probe_calls: usize,
    /// How much slower than its reference speed the host ran the probe,
    /// at the 10th percentile of its calls and at their median: the
    /// end-to-end host times are divided by the first, the per-layer ones
    /// by the second.
    pub slowdown: (f64, f64),
    /// The recorded spans (traced mode only).
    pub tracer: Tracer,
}

/// The host times of one pass, in which every configuration ran once.
/// The host timers of `RunMetrics` are summed for traced passes only.
#[derive(Default)]
struct Pass {
    /// Host seconds of each configuration's run.
    secs: Vec<f64>,
    /// `allocator_wall_secs` summed over the pass's runs.
    round_secs: f64,
    /// `event_pop_wall_secs` summed over the pass's runs.
    pop_secs: f64,
    /// `demand_wall_secs` summed over the pass's runs.
    demand_secs: f64,
}

impl Pass {
    /// Adds the host timers `m` carries.
    fn record(&mut self, m: &RunMetrics) {
        self.round_secs += m.allocator_wall_secs;
        self.pop_secs += m.event_pop_wall_secs;
        self.demand_secs += m.demand_wall_secs;
    }

    fn secs(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Checks every run as it finishes. Only the first run of each
/// configuration (and the first task log, in traced mode) is kept, as
/// the reference for later runs and the source of the simulated metrics,
/// so what the benchmark holds does not grow with the number of passes.
struct Checks {
    /// Jobs submitted, per configuration.
    submitted: Vec<usize>,
    first_runs: Vec<RunMetrics>,
    first_logs: Vec<TaskTrace>,
    failures: Vec<String>,
    failed: usize,
}

impl Checks {
    fn new(submitted: Vec<usize>) -> Self {
        Checks {
            submitted,
            first_runs: Vec::new(),
            first_logs: Vec::new(),
            failures: Vec::new(),
            failed: 0,
        }
    }

    /// Checks run `m` of configuration `c`, and its task log if it is a
    /// traced run. Configurations run in order, so the first pass fills
    /// the references.
    fn check(&mut self, pass: &str, c: usize, m: RunMetrics, log: Option<TaskTrace>) {
        let mut problems = check_run(&m, self.first_runs.get(c).unwrap_or(&m), self.submitted[c]);
        if let Some(log) = log {
            match self.first_logs.get(c) {
                Some(first) if first.records() != log.records() => {
                    problems.push("task log differs from the first traced pass".into());
                }
                Some(_) => {}
                None => self.first_logs.push(log),
            }
        }
        if self.first_runs.len() == c {
            self.first_runs.push(m);
        }
        self.failed += usize::from(!problems.is_empty());
        self.failures.extend(
            problems
                .into_iter()
                .map(|e| format!("{pass}, configuration {c}: {e}")),
        );
    }

    fn sum(&self, f: impl Fn(&RunMetrics) -> usize) -> usize {
        self.first_runs.iter().map(f).sum()
    }

    /// Merges one per-run summary over the first run of every
    /// configuration.
    fn pooled(&self, f: impl Fn(&RunMetrics) -> Summary) -> Summary {
        let mut s = Summary::new();
        for m in &self.first_runs {
            s.merge(&f(m));
        }
        s
    }
}

/// What the per-layer metrics need from the generated inputs, kept so
/// the inputs themselves can be dropped.
struct Shape {
    jobs: usize,
    input_tasks: usize,
    blocks: usize,
}

/// Runs one benchmark invocation on the workload's configurations.
pub fn run(opts: &Options) -> Outcome {
    run_configs(opts, || opts.workload.configs(opts.seed))
}

/// Runs one benchmark invocation on the configurations `configs` makes.
/// The inputs are set up again before every untraced pass but the first
/// and dropped before it runs.
pub fn run_configs(opts: &Options, configs: impl Fn() -> Vec<SimConfig>) -> Outcome {
    let mut tracer = Tracer::new(opts.trace);
    let mut probe = Probe::default();
    let mut setup_secs = Vec::new();
    let inputs = set_up(&configs, &mut tracer, &mut setup_secs);
    let mut checks = Checks::new(inputs.iter().map(Inputs::total_jobs).collect());
    let shape = Shape {
        jobs: checks.submitted.iter().sum(),
        input_tasks: inputs.iter().map(Inputs::input_tasks).sum(),
        blocks: inputs.iter().map(|i| i.namenode.num_blocks()).sum(),
    };

    let (mut replay_rounds, mut replay_grants) = (0, 0);
    let replay_started = Instant::now();
    tracer.span("core.replay", |t| {
        for input in &inputs {
            match replay(input, t) {
                Ok(stats) => {
                    replay_rounds += stats.rounds;
                    replay_grants += stats.grants;
                }
                Err(e) => {
                    checks.failures.push(e);
                    checks.failed += 1;
                }
            }
        }
    });
    let replay_secs = replay_started.elapsed().as_secs_f64();
    // Only the configurations outlive the replay, so the process's peak
    // resident set is not raised by inputs the benchmark keeps beside a
    // run.
    let configs_run: Vec<SimConfig> = inputs.into_iter().map(|i| i.config).collect();

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    while plain.len() < MIN_PASSES
        || (opts.trace && traced.len() < MIN_PASSES)
        || Instant::now() < deadline
    {
        // Set-ups between passes spread the set-up samples over the whole
        // measured window, like the passes, instead of a burst up front.
        // Each one's inputs are dropped before the pass runs.
        if !plain.is_empty() {
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < SETUP_SECS_PER_PASS {
                drop(set_up(&configs, &mut tracer, &mut setup_secs));
            }
            probe.after(started.elapsed().as_secs_f64());
        }
        let label = format!("pass {}", plain.len());
        let mut pass = Pass::default();
        for (c, config) in configs_run.iter().enumerate() {
            let started = Instant::now();
            let m = Simulation::run(config).cluster_metrics;
            let secs = started.elapsed().as_secs_f64();
            pass.secs.push(secs);
            probe.after(secs);
            checks.check(&label, c, m, None);
        }
        plain.push(pass);
        if opts.trace {
            let label = format!("traced pass {}", traced.len());
            let mut pass = Pass::default();
            tracer.span("sim.pass", |t| {
                for (c, config) in configs_run.iter().enumerate() {
                    let started = Instant::now();
                    let (out, log) = t.span("sim.run", |_| Simulation::run_traced(config));
                    probe.after(started.elapsed().as_secs_f64());
                    pass.record(&out.cluster_metrics);
                    checks.check(&label, c, out.cluster_metrics, Some(log));
                }
            });
            traced.push(pass);
        }
    }
    // A traced pass's time is its `sim.run` spans alone, without the
    // benchmark's own checks between them.
    let run_spans = tracer.durations("sim.run");
    for (pass, secs) in traced.iter_mut().zip(run_spans.chunks(configs_run.len())) {
        pass.secs = secs.to_vec();
    }

    let slowdown = (probe.slowdown(0.1), probe.slowdown(0.5));
    let metrics = if opts.trace {
        let replayed = (replay_rounds, replay_grants);
        layer_metrics(
            &checks, &shape, replayed, &tracer, slowdown, &plain, &traced,
        )
    } else {
        end_to_end_metrics(&checks, &setup_secs, slowdown.0, &plain)
    };
    let mut failures = checks.failures;
    failures.extend(
        metrics
            .iter()
            .filter(|(_, value, _)| !value.is_finite())
            .map(|(name, value, _)| format!("{name} is not a finite number: {value}")),
    );
    Outcome {
        attempted: (plain.len() + traced.len() + 1) * configs_run.len(),
        failed: checks.failed,
        failures,
        metrics,
        passes: plain.len(),
        replay_secs,
        probe_calls: probe.calls(),
        slowdown,
        tracer,
    }
}

/// Generates the inputs of every configuration in a `bench.setup` span
/// and records how long that took.
fn set_up(
    configs: &impl Fn() -> Vec<SimConfig>,
    tracer: &mut Tracer,
    setup_secs: &mut Vec<f64>,
) -> Vec<Inputs> {
    let started = Instant::now();
    let inputs = tracer.span("bench.setup", |t| {
        configs()
            .into_iter()
            .map(|c| Inputs::generate(c, t))
            .collect()
    });
    setup_secs.push(started.elapsed().as_secs_f64());
    inputs
}

/// Checks one run against the run's invariants and against the first run
/// of the same configuration; returns what failed.
pub fn check_run(m: &RunMetrics, first: &RunMetrics, submitted: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if m.jobs_completed + m.jobs_failed != submitted {
        problems.push(format!(
            "{} completed + {} failed != {submitted} submitted",
            m.jobs_completed, m.jobs_failed
        ));
    }
    if m.unfenced_stale_finishes != 0 {
        problems.push(format!(
            "{} stale finishes slipped past fencing",
            m.unfenced_stale_finishes
        ));
    }
    let mut simulated = m.clone();
    simulated.adopt_host_measurements(first);
    if simulated != *first {
        problems.push("simulated statistics differ between runs of one seed".into());
    }
    problems
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut s = Summary::new();
    s.extend(values);
    s.median().unwrap_or(0.0)
}

/// Pairs each named value with its unit from `list`, whose names must
/// come in the same order.
fn with_units<const N: usize>(
    list: &[(&'static str, &'static str); N],
    values: [(&'static str, f64); N],
) -> Vec<(&'static str, f64, &'static str)> {
    list.iter()
        .zip(values)
        .map(|(&(name, unit), (named, value))| {
            assert_eq!(name, named, "metric order differs from its list");
            (name, value, unit)
        })
        .collect()
}

/// Sums, over the configurations, the fastest run of each across
/// `passes`. Noise on a shared machine only ever adds host time, and it
/// comes in stretches of seconds to minutes; the fastest of many short
/// runs is the estimate that moves least with it.
fn fastest_pass_secs(passes: &[Pass]) -> f64 {
    (0..passes[0].secs.len())
        .map(|c| {
            passes
                .iter()
                .map(|p| p.secs[c])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Host times are the fastest over the window, divided by `slowdown`, the
/// probe's 10th-percentile call against its reference time: a quiet
/// moment of the simulator over a quiet moment of the probe. When the
/// whole window falls in a slow stretch, both are slow and the ratio
/// stays put.
fn end_to_end_metrics(
    checks: &Checks,
    setup_secs: &[f64],
    slowdown: f64,
    passes: &[Pass],
) -> Vec<(&'static str, f64, &'static str)> {
    let runs = checks.first_runs.len() as f64;
    let events = checks.sum(|m| m.events_processed) as f64;
    let pass_secs = fastest_pass_secs(passes) / slowdown;
    let mut jct = checks.pooled(RunMetrics::job_completion_secs);
    let values = [
        ("run_s", pass_secs / runs),
        ("events_per_s", events / pass_secs),
        (
            "setup_s",
            setup_secs.iter().copied().fold(f64::INFINITY, f64::min) / slowdown,
        ),
        ("peak_rss_mib", peak_rss_bytes() as f64 / (1024.0 * 1024.0)),
        (
            "sim_locality",
            checks.pooled(RunMetrics::input_locality).mean(),
        ),
        ("sim_jct_mean_s", jct.mean()),
        ("sim_jct_p90_s", jct.percentile(0.9).unwrap_or(0.0)),
        (
            "jobs_completed_frac",
            checks.sum(|m| m.jobs_completed) as f64 / checks.submitted.iter().sum::<usize>() as f64,
        ),
    ];
    with_units(&END_TO_END, values)
}

fn layer_metrics(
    checks: &Checks,
    shape: &Shape,
    (replay_rounds, replay_grants): (usize, usize),
    tracer: &Tracer,
    (slowdown_p10, slowdown): (f64, f64),
    plain: &[Pass],
    traced: &[Pass],
) -> Vec<(&'static str, f64, &'static str)> {
    let runs = checks.first_runs.len() as f64;
    // Host times are per run: the pass total over its runs, median over
    // passes, over the probe's median slowdown. Counts are totals over
    // one pass.
    let per_run = |f: &dyn Fn(&Pass) -> f64| median(traced.iter().map(|p| f(p) / runs)) / slowdown;
    let mut allocate_us = Summary::new();
    allocate_us.extend(
        tracer
            .durations("core.allocate")
            .into_iter()
            .map(|s| s * 1e6 / slowdown),
    );
    let log: Vec<&TaskRecord> = checks
        .first_logs
        .iter()
        .flat_map(TaskTrace::records)
        .collect();
    let input_count = log.iter().filter(|t| t.stage == 0).count();
    let local_count = log.iter().filter(|t| t.stage == 0 && t.local).count();
    let mut delay = Summary::new();
    delay.extend(
        log.iter()
            .map(|t| t.launched_at.saturating_since(t.runnable_at).as_secs_f64()),
    );
    let rounds = checks.sum(|m| m.allocation_rounds);
    let events = checks.sum(|m| m.events_processed);
    let count = |n: usize| n as f64;
    let total = |f: fn(&RunMetrics) -> usize| count(checks.sum(f));
    let values = [
        ("sim.round_s", per_run(&|p| p.round_secs)),
        (
            "sim.rest_s",
            per_run(&|p| p.secs() - p.round_secs - p.pop_secs),
        ),
        ("sim.demand_s", per_run(&|p| p.demand_secs)),
        ("sim.rounds", count(rounds)),
        ("sim.rounds_skipped", total(|m| m.rounds_skipped)),
        ("sim.rounds_per_event", rounds as f64 / events.max(1) as f64),
        (
            "sim.jct_p50_s",
            checks
                .pooled(RunMetrics::job_completion_secs)
                .percentile(0.5)
                .unwrap_or(0.0),
        ),
        (
            "sim.makespan_s",
            checks
                .first_runs
                .iter()
                .map(|m| m.makespan.as_secs_f64())
                .sum::<f64>()
                / runs,
        ),
        (
            "core.allocate_us_p50",
            allocate_us.percentile(0.5).unwrap_or(0.0),
        ),
        (
            "core.allocate_us_p90",
            allocate_us.percentile(0.9).unwrap_or(0.0),
        ),
        ("core.replay_rounds", count(replay_rounds)),
        (
            "core.grants_per_round",
            replay_grants as f64 / replay_rounds.max(1) as f64,
        ),
        ("simcore.events", count(events)),
        ("simcore.pop_s", per_run(&|p| p.pop_secs)),
        (
            "simcore.queue_peak",
            count(
                checks
                    .first_runs
                    .iter()
                    .map(|m| m.peak_queue_len)
                    .max()
                    .unwrap_or(0),
            ),
        ),
        (
            "workload.generate_s",
            median(tracer.child_totals("bench.setup", "workload.generate")) / slowdown,
        ),
        ("workload.jobs", count(shape.jobs)),
        ("workload.input_tasks", count(shape.input_tasks)),
        (
            "dfs.place_s",
            median(tracer.child_totals("bench.setup", "dfs.place")) / slowdown,
        ),
        ("dfs.blocks", count(shape.blocks)),
        ("scheduler.tasks", count(log.len())),
        (
            "scheduler.input_local_frac",
            local_count as f64 / input_count.max(1) as f64,
        ),
        (
            "scheduler.delay_p50_s",
            delay.percentile(0.5).unwrap_or(0.0),
        ),
        (
            "scheduler.delay_p99_s",
            delay.percentile(0.99).unwrap_or(0.0),
        ),
        ("scheduler.tasks_requeued", total(|m| m.tasks_requeued)),
        ("scheduler.task_retries", total(|m| m.task_retries)),
        ("dfs.replicas_corrupted", total(|m| m.replicas_corrupted)),
        ("dfs.corrupt_reads", total(|m| m.corrupt_reads_detected)),
        ("dfs.scrub_detections", total(|m| m.scrub_detections)),
        ("dfs.replicas_repaired", total(|m| m.replicas_repaired)),
        ("dfs.blocks_unavailable", total(|m| m.blocks_unavailable)),
        ("dfs.blocks_lost", total(|m| m.blocks_lost)),
        (
            "sim.detector.false_suspicions",
            total(|m| m.false_suspicions),
        ),
        ("sim.detector.leases_revoked", total(|m| m.leases_revoked)),
        (
            "sim.detector.stale_fenced",
            total(|m| m.stale_finishes_fenced),
        ),
        ("sim.health.quarantined", total(|m| m.nodes_quarantined)),
        (
            "sim.health.false_quarantines",
            total(|m| m.false_quarantines),
        ),
        ("sim.partition.episodes", total(|m| m.partition_episodes)),
        (
            "sim.partition.finishes_fenced",
            total(|m| m.partition_finishes_fenced),
        ),
        (
            "sim.partition.work_discarded",
            total(|m| m.partition_work_discarded),
        ),
        (
            "bench.trace_overhead_frac",
            median(traced.iter().map(Pass::secs)) / median(plain.iter().map(Pass::secs)) - 1.0,
        ),
        ("bench.passes", count(traced.len())),
        ("bench.host_slowdown_p10", slowdown_p10),
        ("bench.host_slowdown_p50", slowdown),
    ];
    with_units(&PER_LAYER, values)
}
