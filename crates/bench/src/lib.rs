#![warn(missing_docs)]

//! # custody-bench
//!
//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation section (§VI) from the simulator, plus the ablation
//! and fault studies DESIGN.md calls out.
//!
//! Every study is a [`Scenario`] — a base configuration, labelled config
//! transforms, allocators and seeds — run by one [`runner`], and every
//! table is a [`Table`] drawn from its outcome. The `figures` binary
//! prints them all: `cargo run --release -p custody-bench --bin figures
//! -- all`. Host-time measurements live in `sim_scale` and `simbench`,
//! so the figures are a pure function of their options.
//!
//! Absolute numbers differ from the paper (the substrate is a simulator,
//! not 100 Linode VMs); the *shape* — who wins, by roughly what factor,
//! and how trends move with cluster size — is the reproduction target.
//! EXPERIMENTS.md records paper-vs-measured for every row.

pub mod cli;
pub mod runner;
pub mod scale;
pub use runner::{Outcome, Row, Scenario, Table, Variant};
pub use scale::{scale_config, synthetic_round_view};

use custody_core::theory::{exact_max_local_jobs, greedy_local_jobs, roundrobin_local_jobs};
use custody_core::AllocatorKind;
use custody_scheduler::speculation::SpeculationConfig;
use custody_scheduler::SchedulerKind;
use custody_sim::report::{gain_pct, pct_mean_std, reduction_pct};
use custody_sim::{
    Campaign, ChaosConfig, ClusterSpec, ControlPlaneConfig, CorruptionConfig, FailSlowConfig,
    PartitionConfig, PlacementKind, QuotaMode, RunMetrics, SimConfig, WorkloadKind,
};
use custody_simcore::stats::Summary;
use custody_simcore::{SimDuration, SimRng};

/// The cluster sizes of §VI-A1 (experiments "separately run on clusters
/// with 25, \[50\] and 100 nodes").
pub const PAPER_CLUSTER_SIZES: [usize; 3] = [25, 50, 100];

/// The baseline the paper compares against: Spark's standalone cluster
/// manager.
pub const PAPER_BASELINE: AllocatorKind = AllocatorKind::StaticSpread;

/// Options shared by all figure generators.
#[derive(Debug, Clone)]
pub struct FigureOptions {
    /// Jobs per application (the paper uses 30).
    pub jobs_per_app: usize,
    /// Master seed.
    pub seed: u64,
    /// Cluster sizes to sweep.
    pub sizes: Vec<usize>,
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions {
            jobs_per_app: 30,
            seed: 42,
            sizes: PAPER_CLUSTER_SIZES.to_vec(),
        }
    }
}

impl FigureOptions {
    /// A scaled-down variant for quick checks and CI.
    pub fn quick() -> Self {
        FigureOptions {
            jobs_per_app: 5,
            ..FigureOptions::default()
        }
    }

    /// The congested regime the fault studies run in: the smallest
    /// paper cluster, where a fault actually displaces running work.
    fn congested_nodes(&self, cap: usize) -> usize {
        self.sizes.iter().copied().min().unwrap_or(cap).min(cap)
    }
}

/// The paper configuration (Custody, four applications of `workload`)
/// at `nodes` nodes with `jobs` jobs per application.
pub fn paper_config(workload: WorkloadKind, nodes: usize, jobs: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(workload, nodes, AllocatorKind::Custody, seed);
    cfg.campaign = cfg.campaign.with_jobs_per_app(jobs);
    cfg
}

/// [`paper_config`] for WordCount, the workload of the fault studies.
fn wordcount(nodes: usize, jobs: usize, seed: u64) -> SimConfig {
    paper_config(WorkloadKind::WordCount, nodes, jobs, seed)
}

/// Swaps the campaign's workload, keeping its length.
fn with_workload(mut cfg: SimConfig, workload: WorkloadKind) -> SimConfig {
    cfg.campaign = Campaign::paper(workload).with_jobs_per_app(cfg.campaign.jobs_per_app);
    cfg
}

/// Swaps the cluster for a paper-spec one of `nodes` nodes.
fn with_nodes(mut cfg: SimConfig, nodes: usize) -> SimConfig {
    cfg.cluster = ClusterSpec::paper(nodes);
    cfg
}

/// A fraction as a whole-percent label.
fn pct_label(fraction: f64) -> String {
    format!("{:.0} %", fraction * 100.0)
}

fn jct(m: &RunMetrics) -> f64 {
    m.job_completion_secs().mean()
}

fn locality(m: &RunMetrics) -> f64 {
    m.input_locality().mean()
}

fn secs(value: f64) -> String {
    format!("{value:.2} s")
}

/// Custody vs the paper's baseline.
const VERSUS: [AllocatorKind; 2] = [AllocatorKind::Custody, PAPER_BASELINE];

/// Figs. 7–10: all three workloads × the given cluster sizes, Custody vs
/// the baseline, variants in (size-major, workload-minor) order.
pub fn paper_scenario(sizes: &[usize], jobs_per_app: usize, seed: u64) -> Scenario {
    let variants = sizes.iter().flat_map(|&n| {
        WorkloadKind::ALL.map(|w| {
            Variant::new([n.to_string(), w.name().to_string()], move |cfg| {
                with_workload(with_nodes(cfg, n), w)
            })
        })
    });
    let base = paper_config(WorkloadKind::WordCount, 25, jobs_per_app, seed);
    Scenario::new(base, &VERSUS, variants)
}

/// Fig. 7's layout: input locality per (nodes, workload) row.
fn locality_table(title: &str) -> Table {
    Table::new(title)
        .key("nodes", 0)
        .key("workload", 1)
        .col("custody", |r| pct_mean_std(&r.m(0).input_locality()))
        .col("spark-static", |r| pct_mean_std(&r.m(1).input_locality()))
        .col("gain", |r| {
            format!("{:+.2} pp", (locality(r.m(0)) - locality(r.m(1))) * 100.0)
        })
}

/// Fig. 7: data locality of input tasks, Custody vs the Spark baseline,
/// per workload and cluster size.
pub fn fig7_table() -> Table {
    locality_table("Fig. 7 — % local input tasks (mean ± std per job)")
}

/// Custody and the baseline on one per-run mean in seconds, then the
/// reduction Custody achieves.
fn reduction_columns(table: Table, f: fn(&RunMetrics) -> f64) -> Table {
    table
        .col("custody", move |r| secs(f(r.m(0))))
        .col("spark-static", move |r| secs(f(r.m(1))))
        .col("reduction", move |r| {
            format!("{:+.2} %", reduction_pct(f(r.m(0)), f(r.m(1))))
        })
}

/// Fig. 8: average job completion times.
pub fn fig8_table() -> Table {
    let table = Table::new("Fig. 8 — average job completion time")
        .key("nodes", 0)
        .key("workload", 1);
    reduction_columns(table, jct)
}

/// Fig. 9: average completion time of map (input) stages in the largest
/// cluster.
pub fn fig9_table(opts: &FigureOptions) -> Table {
    let largest = opts.sizes.iter().copied().max().unwrap_or(0);
    let table = Table::new(format!(
        "Fig. 9 — average input (map) stage completion time, {largest}-node cluster"
    ))
    .only(move |r| r.key(0) == largest.to_string())
    .key("workload", 1);
    reduction_columns(table, |m| m.input_stage_secs().mean())
}

/// Fig. 10: average scheduler delay vs cluster size (averaged across
/// workloads, as the paper plots one curve per system).
pub fn fig10_table() -> Table {
    let delay = |r: &Row, a| r.mean_over_arms(a, |m| m.scheduler_delay_secs().mean()) * 1000.0;
    let queue = |r: &Row, a| secs(r.mean_over_arms(a, |m| m.queueing_delay_secs().mean()));
    Table::new(
        "Fig. 10 — average scheduler delay (locality wait while an executor idled),\n\
         plus total queueing delay (runnable → launch) for context",
    )
    .span(WorkloadKind::ALL.len())
    .key("nodes", 0)
    .col("custody", move |r| format!("{:.1} ms", delay(r, 0)))
    .col("spark-static", move |r| format!("{:.1} ms", delay(r, 1)))
    .col("custody-queue", move |r| queue(r, 0))
    .col("spark-queue", move |r| queue(r, 1))
}

/// Fig. 7 companion: the fixed-per-app-capacity regime in which the
/// baseline's locality decays with cluster size exactly as §VI-C
/// describes, while Custody stays insensitive.
pub fn fig7_fixed_quota(opts: &FigureOptions) -> String {
    let base = paper_config(WorkloadKind::Sort, 25, opts.jobs_per_app, opts.seed)
        .with_quota(QuotaMode::FixedPerApp(12));
    let variants = (opts.sizes.iter())
        .map(|&n| Variant::new([n.to_string(), "sort".into()], move |c| with_nodes(c, n)));
    locality_table(
        "Fig. 7 (fixed per-app capacity = 12 executors) — baseline locality decays with size",
    )
    .draw(&Scenario::new(base, &VERSUS, variants).run())
}

/// The ablations: intra- and inter-application strategy under locality
/// scarcity, replica placement, the delay-scheduling threshold, and
/// speculative execution.
pub fn ablations(opts: &FigureOptions) -> String {
    let scarce = scarce_scenario(opts).run();
    let intra = intra_table().draw(&scarce);
    [
        format!("{intra}\n{}\n", one_shot_intra(opts.seed)),
        inter_table().draw(&scarce),
        placement(opts),
        delay(opts),
        speculation(opts),
    ]
    .join("\n")
}

/// Locality scarcity — the Fig. 3/4 regime where "the resources in a
/// cluster ... may become too scarce to satisfy the locality
/// requirements from all the jobs" (§IV-A): single-replica blocks (each
/// block lives on exactly one node, like the worked examples), a tight
/// 8-executor quota per application, and a zero-wait task scheduler so
/// locality missed at allocation time is never recovered by waiting.
/// Here the allocation *strategy* alone decides which jobs end up local.
fn scarce_scenario(opts: &FigureOptions) -> Scenario {
    let mut base = paper_config(WorkloadKind::WordCount, 50, opts.jobs_per_app, opts.seed)
        .with_quota(QuotaMode::FixedPerApp(8))
        .with_scheduler(SchedulerKind::LocalityFirst);
    base.cluster = base.cluster.with_replication(1);
    let variants =
        WorkloadKind::ALL.map(|w| Variant::new([w.name()], move |c| with_workload(c, w)));
    let allocators = [
        AllocatorKind::Custody,
        AllocatorKind::CustodyFairIntra,
        AllocatorKind::CustodyNaiveInter,
    ];
    Scenario::new(base, &allocators, variants)
}

fn min_local_jobs(m: &RunMetrics) -> String {
    format!("{:.1} %", m.min_local_job_fraction() * 100.0)
}

/// Ablation: priority vs fairness-based intra-application allocation
/// (Fig. 4/5 at scale).
fn intra_table() -> Table {
    Table::new(
        "Ablation (intra-app): fewest-tasks-first priority vs round-robin fairness, \
         scarce quota (8 executors/app, 50 nodes)",
    )
    .key("workload", 0)
    .col("min-local-jobs prio", |r| min_local_jobs(r.m(0)))
    .col("min-local-jobs fair", |r| min_local_jobs(r.m(1)))
    .col("jct prio", |r| secs(jct(r.m(0))))
    .col("jct fair", |r| secs(jct(r.m(1))))
}

/// Ablation: min-locality vs naive count-fair inter-application selection
/// (Fig. 3 at scale). Reports the fairness of the locality distribution.
fn inter_table() -> Table {
    let jain = |m: &RunMetrics| {
        let index = custody_core::fairness::jain_index(&m.local_job_fractions());
        format!("{:.4}", index.unwrap_or(0.0))
    };
    Table::new(
        "Ablation (inter-app): min-locality vs naive count-fair selection, \
         scarce quota (8 executors/app, 50 nodes)",
    )
    .key("workload", 0)
    .col("min-local-jobs custody", |r| min_local_jobs(r.m(0)))
    .col("min-local-jobs naive", |r| min_local_jobs(r.m(2)))
    .col("jain custody", move |r| jain(r.m(0)))
    .col("jain naive", move |r| jain(r.m(2)))
}

/// Executors in a random one-round instance.
const EXECUTORS: usize = 8;

/// A random one-round instance: 2 to `2 + jobs - 1` jobs of 1 to `tasks`
/// input tasks, each preferring 1–2 distinct executors.
fn random_jobs(rng: &mut SimRng, jobs: usize, tasks: usize) -> Vec<Vec<Vec<usize>>> {
    (0..2 + rng.below(jobs))
        .map(|_| {
            (0..1 + rng.below(tasks))
                .map(|_| {
                    let replicas = 1 + rng.below(2);
                    rng.choose_distinct(EXECUTORS, replicas)
                })
                .collect()
        })
        .collect()
}

/// One-shot allocation rounds (the Fig. 4 setting proper): random
/// instances with a tight budget, priority vs round-robin fairness.
fn one_shot_intra(seed: u64) -> String {
    let mut rng = SimRng::seed_from_u64(seed);
    let (mut prio_jobs, mut fair_jobs) = (0usize, 0usize);
    let trials = 1000;
    for _ in 0..trials {
        let jobs = random_jobs(&mut rng, 3, 4);
        let budget = 2 + rng.below(4);
        prio_jobs += greedy_local_jobs(&jobs, EXECUTORS, budget).local_jobs;
        fair_jobs += roundrobin_local_jobs(&jobs, EXECUTORS, budget).local_jobs;
    }
    format!(
        "One-shot allocation rounds ({trials} random instances, tight budget): \
         fully-local jobs priority {prio_jobs} vs fairness {fair_jobs} ({:+.1} %)",
        100.0 * (prio_jobs as f64 - fair_jobs as f64) / fair_jobs.max(1) as f64
    )
}

/// Draws `table` — one row per (variant, allocator) — over `variants` of
/// Sort on `nodes` paper nodes, Custody vs the baseline.
fn sort_ablation(
    opts: &FigureOptions,
    nodes: usize,
    variants: Vec<Variant>,
    table: Table,
) -> String {
    let base = paper_config(WorkloadKind::Sort, nodes, opts.jobs_per_app, opts.seed);
    let outcome = Scenario::new(base, &VERSUS, variants).run();
    table.per_allocator().draw(&outcome)
}

fn allocator_name(r: &Row) -> String {
    r.allocator().name().to_string()
}

/// Replica placement policies under Custody (§VII: popularity-based
/// replication "will further enhance the performance of Custody").
fn placement(opts: &FigureOptions) -> String {
    let variants = [PlacementKind::Random, PlacementKind::Popularity]
        .map(|p| Variant::new([p.name()], move |c| c.with_placement(p)));
    let table = Table::new("Ablation (placement): replica placement × allocator, Sort, 100 nodes")
        .key("placement", 0)
        .col("allocator", allocator_name)
        .col("locality", |r| pct_mean_std(&r.m(0).input_locality()))
        .col("jct", |r| secs(jct(r.m(0))));
    sort_ablation(opts, 100, variants.into(), table)
}

/// The delay-scheduling wait threshold with and without Custody (§V
/// interaction).
fn delay(opts: &FigureOptions) -> String {
    let variants = [0u64, 1_000, 3_000, 10_000].map(|wait_ms| {
        let label = format!("{:.1} s", wait_ms as f64 / 1000.0);
        let scheduler = SchedulerKind::Delay(SimDuration::from_millis(wait_ms));
        Variant::new([label], move |c| c.with_scheduler(scheduler))
    });
    let table = Table::new(
        "Ablation (delay scheduling): locality-wait threshold × allocator, Sort, 100 nodes",
    )
    .key("wait", 0)
    .col("allocator", allocator_name)
    .col("locality", |r| pct_mean_std(&r.m(0).input_locality()))
    .col("jct", |r| secs(jct(r.m(0))))
    .col("sched-delay", |r| {
        format!("{:.1} ms", r.m(0).scheduler_delay_secs().mean() * 1000.0)
    });
    sort_ablation(opts, 100, variants.into(), table)
}

/// Speculative execution (the §IV-B straggler-mitigation extension) on
/// a congested cluster, with and without Custody — does cloning
/// stragglers recover what locality misses?
fn speculation(opts: &FigureOptions) -> String {
    let variants =
        [("off", None), ("on", Some(SpeculationConfig::default()))].map(|(label, spec)| {
            Variant::new([label], move |mut c| {
                c.speculation = spec;
                c
            })
        });
    let table = Table::new(
        "Ablation (speculation): straggler cloning × allocator, Sort, congested 25 nodes",
    )
    .key("speculation", 0)
    .col("allocator", allocator_name)
    .col("jct", |r| secs(jct(r.m(0))))
    .col("input-stage", |r| secs(r.m(0).input_stage_secs().mean()))
    .col("clones", |r| r.m(0).tasks_speculated.to_string());
    sort_ablation(opts, 25, variants.into(), table)
}

/// The chaos study: a calm (chaos-off) reference, then increasing fault
/// rates (decreasing MTBF), Custody vs the baseline. All variants share
/// the submission schedule and placement, and — per MTBF — the fault
/// schedule.
pub fn chaos_scenario(nodes: usize, jobs: usize, mtbfs: &[f64], seed: u64) -> Scenario {
    let cells = mtbfs.iter().map(|&mtbf| {
        Variant::new([format!("{mtbf:.0} s")], move |c| {
            c.with_chaos(ChaosConfig::default().with_mean_time_between_faults(mtbf))
        })
    });
    let variants = std::iter::once(Variant::base("calm")).chain(cells);
    Scenario::new(wordcount(nodes, jobs, seed), &VERSUS, variants)
}

/// Chaos: an increasingly violent stochastic fault process (node
/// crash/recovery cycles, executor-only faults, transient network
/// degradation). Reports locality degradation relative to the calm run,
/// fault counts, and the fault-to-stable recovery time — the §VII
/// fault-tolerance story.
pub fn chaos(opts: &FigureOptions) -> String {
    let nodes = opts.congested_nodes(25);
    let mtbfs = [120.0, 60.0, 30.0, 15.0];
    let outcome = chaos_scenario(nodes, opts.jobs_per_app, &mtbfs, opts.seed).run();
    Table::new(format!(
        "Chaos sweep — locality under stochastic faults, WordCount, {nodes} nodes\n\
         (degradation = locality lost vs the calm run; recovery = mean fault-to-stable time)"
    ))
    .with_reference()
    .key("mtbf", 0)
    .both("custody", |r| pct_mean_std(&r.m(0).input_locality()))
    .both("spark-static", |r| pct_mean_std(&r.m(1).input_locality()))
    .col("degradation c/s", |r| {
        let lost = |a| (locality(r.reference().m(a)) - locality(r.m(a))) * 100.0;
        format!("{:+.2} / {:+.2} pp", lost(0), lost(1))
    })
    .col("faults (custody)", |r| {
        let m = r.m(0);
        let (down, up) = (m.nodes_failed, m.nodes_recovered);
        let (exec, req) = (m.executor_faults, m.tasks_requeued);
        format!("{down}+{exec} dn, {up} up, {req} req")
    })
    .col("recovery c/s", |r| {
        let recovery = |a| r.m(a).requeue_drain_secs.mean();
        format!("{:.1} / {:.1} s", recovery(0), recovery(1))
    })
    .draw(&outcome)
}

/// The partition study: a partition-free reference, then a grid of
/// (split fraction × mean heal time), split-major, Custody vs the
/// baseline. The reference runs the same modeled control plane
/// (partitions require heartbeats to cut), so each variant isolates what
/// the cuts themselves cost. Episodes arrive fast enough that short runs
/// see several, with asymmetric cuts and flapping both in play so the
/// fencing and reconciliation paths all get exercised.
pub fn partition_scenario(
    nodes: usize,
    jobs: usize,
    splits: &[f64],
    heals: &[f64],
    seed: u64,
) -> Scenario {
    let calm = Variant::new(["calm", "-"], |c| {
        c.with_control_plane(ControlPlaneConfig::default())
    });
    let cells = splits.iter().flat_map(|&split| {
        heals.iter().map(move |&heal| {
            Variant::new([pct_label(split), format!("{heal:.0} s")], move |c| {
                c.with_partition(
                    PartitionConfig::default()
                        .with_split_fraction(split)
                        .with_mean_heal(heal)
                        .with_mean_time_between_partitions(12.0),
                )
            })
        })
    });
    let variants = std::iter::once(calm).chain(cells);
    Scenario::new(wordcount(nodes, jobs, seed), &VERSUS, variants)
}

/// Partitions: seeded network partitions — clean splits, asymmetric
/// cuts, and flapping links. Reports JCT stretch relative to the
/// partition-free run, the split-brain fencing counters (deferred and
/// fenced minority Finish reports, minority work discarded at
/// reconnect), and the mean heal-to-reconverge time — the
/// rejoin-reconciliation story.
pub fn partition(opts: &FigureOptions) -> String {
    let nodes = opts.congested_nodes(25);
    let (splits, heals) = ([0.2, 0.4], [5.0, 15.0]);
    let outcome = partition_scenario(nodes, opts.jobs_per_app, &splits, &heals, opts.seed).run();
    Table::new(format!(
        "Partition sweep — network cuts by split fraction and heal time, WordCount, {nodes} nodes\n\
         (stretch = mean-JCT inflation vs the partition-free run; fenced = split-brain Finish\n\
         reports the epoch fence rejected; reconverge = heal-to-settled belief time)"
    ))
    .with_reference()
    .key("split", 0)
    .key("heal", 1)
    .both("jct c/s", |r| {
        format!("{:.2} / {:.2} s", jct(r.m(0)), jct(r.m(1)))
    })
    .col("stretch c/s", |r| {
        let stretch = |a| gain_pct(jct(r.m(a)), jct(r.reference().m(a)));
        format!("{:+.1} / {:+.1} %", stretch(0), stretch(1))
    })
    .col("episodes (custody)", |r| {
        let m = r.m(0);
        let (episodes, deferred) = (m.partition_episodes, m.partition_finishes_deferred);
        format!("{episodes} ep, {deferred} def")
    })
    .col("fencing c/s", |r| {
        let fenced = |a| r.m(a).partition_finishes_fenced;
        let discarded = r.m(0).partition_work_discarded;
        format!("{} / {} fenced, {discarded} disc", fenced(0), fenced(1))
    })
    .col("reconverge c/s", |r| {
        let reconverge = |a| r.m(a).partition_reconverge_secs.mean();
        format!("{:.1} / {:.1} s", reconverge(0), reconverge(1))
    })
    .draw(&outcome)
}

/// The corruption-injection profile the durability study runs: a latent
/// population plus fast ongoing arrivals, a deep retry budget so jobs
/// survive the rot they can survive, and default scrub/repair pacing
/// when on.
fn study_corruption(latent_fraction: f64, scrub: bool) -> CorruptionConfig {
    let mut cc = CorruptionConfig::default()
        .with_latent_fraction(latent_fraction)
        .with_mean_time_between_corruptions(3.0)
        .with_scrub_interval(if scrub { 5.0 } else { 0.0 });
    // A provisioned scrubber: wide enough to cover the whole namespace
    // every tick or two even on the paper clusters, so rot is found well
    // before the arrival process can finish off a block's remaining
    // copies. Both variants get the same provisioned repair pacing —
    // only detection differs between them.
    cc.scrub_blocks_per_tick = 2048;
    cc.repair_batch = 16;
    cc.retry_budget = 64;
    cc
}

/// The durability study: a corruption-free reference, then per injected
/// latent-corruption rate (each also running the same ongoing arrival
/// process) Custody with the background scrubber + unified prioritized
/// repair pipeline on, then off — arms 0 and 1 of a row, seeding the
/// same latent marks.
pub fn durability_scenario(nodes: usize, jobs: usize, latents: &[f64], seed: u64) -> Scenario {
    let cells = latents.iter().flat_map(|&latent| {
        [true, false].map(|scrub| {
            Variant::new([pct_label(latent)], move |c| {
                c.with_corruption(study_corruption(latent, scrub))
            })
        })
    });
    let variants = std::iter::once(Variant::base("calm")).chain(cells);
    Scenario::new(
        wordcount(nodes, jobs, seed),
        &[AllocatorKind::Custody],
        variants,
    )
}

/// Durability: scrubbing + prioritized repair on vs off by latent rot
/// rate. Reports blocks permanently lost and left at risk, the mean
/// corruption-onset-to-detection latency, repair traffic, and the
/// mean-JCT overhead relative to the corruption-free run — scrubbing
/// dominates on loss at every rate, and the overhead is the price of
/// that durability.
pub fn durability(opts: &FigureOptions) -> String {
    let nodes = opts.congested_nodes(25);
    let rates = [0.15, 0.2, 0.3];
    let outcome = durability_scenario(nodes, opts.jobs_per_app, &rates, opts.seed).run();
    let on_off = |f: fn(&RunMetrics) -> usize| {
        move |r: &Row| format!("{} / {}", f(r.arm(0, 0)), f(r.arm(1, 0)))
    };
    Table::new(format!(
        "Durability sweep — scrub + prioritized repair on/off by latent rot rate, WordCount, {nodes} nodes\n\
         (lost = blocks with zero intact replicas at end of run; at risk = down to a sole intact copy;\n\
         detect = mean onset-to-detection latency; overhead = mean-JCT inflation vs the rot-free run)"
    ))
    .with_reference()
    .span(2)
    .key("rot", 0)
    .col("lost on/off", on_off(|m| m.blocks_permanently_lost))
    .col("at risk on/off", on_off(|m| m.blocks_at_risk))
    .col("detect on/off", |r| {
        let detect = |arm| r.arm(arm, 0).corruption_detection_secs.mean();
        format!("{:.1} / {:.1} s", detect(0), detect(1))
    })
    .col("repairs on/off", on_off(|m| m.replicas_repaired))
    .col_or(
        "jct on/off",
        |r| format!("{:.2} / {:.2} s", jct(r.arm(0, 0)), jct(r.arm(1, 0))),
        |calm| secs(jct(calm.m(0))),
    )
    .col("overhead on/off", |r| {
        let overhead = |arm| gain_pct(jct(r.arm(arm, 0)), jct(r.reference().m(0)));
        format!("{:+.1} / {:+.1} %", overhead(0), overhead(1))
    })
    .draw(&outcome)
}

/// The detector study: one chaotic run with oracle failure knowledge
/// (instant, perfect detection) first, then the same chaos schedule
/// re-run with the modeled control plane at each heartbeat-drop
/// probability. Master checkpointing and crash/recovery stay on
/// throughout the modeled variants, so every row also exercises WAL
/// replay.
pub fn detector_scenario(nodes: usize, jobs: usize, drops: &[f64], seed: u64) -> Scenario {
    let cells = drops.iter().map(|&drop| {
        Variant::new([pct_label(drop)], move |c| {
            c.with_control_plane(
                ControlPlaneConfig::default()
                    .with_drop_probability(drop)
                    .with_checkpoints(15.0)
                    .with_master_crash_fraction(0.25),
            )
        })
    });
    let variants = std::iter::once(Variant::base("oracle")).chain(cells);
    let mut scenario = Scenario::new(
        wordcount(nodes, jobs, seed),
        &[AllocatorKind::Custody],
        variants,
    );
    let chaos = ChaosConfig::default().with_mean_time_between_faults(30.0);
    scenario.base = scenario.base.with_chaos(chaos.with_horizon(240.0));
    scenario
}

/// Detector: the modeled control plane (lossy heartbeats, suspicion
/// timeouts, leases, epoch fencing, master checkpoint/WAL recovery) vs
/// oracle failure knowledge, on the same chaos schedule. Shows what
/// imperfect detection costs — false suspicions, detection latency,
/// lease revocations, lost blocks — and what it does to the paper's
/// headline metrics.
pub fn detector(opts: &FigureOptions) -> String {
    let nodes = opts.congested_nodes(25);
    let drops = [0.0, 0.05, 0.2, 0.5];
    let outcome = detector_scenario(nodes, opts.jobs_per_app, &drops, opts.seed).run();
    Table::new(format!(
        "Detector sweep — oracle vs modeled control plane by heartbeat drop rate,\n\
         WordCount, {nodes} nodes (checkpoints + master crashes on in every modeled row)"
    ))
    .key("hb drop", 0)
    .col("locality", |r| pct_mean_std(&r.m(0).input_locality()))
    .col("jct", |r| secs(jct(r.m(0))))
    .col("false-susp", |r| r.m(0).false_suspicions.to_string())
    .col("det-latency", |r| {
        let latency = &r.m(0).detection_latency_secs;
        if latency.count() > 0 {
            format!("{:.2} s ({})", latency.mean(), latency.count())
        } else {
            "-".to_string()
        }
    })
    .col("leases-rev", |r| r.m(0).leases_revoked.to_string())
    .col("blocks-lost", |r| r.m(0).blocks_lost.to_string())
    .col("recoveries", |r| r.m(0).master_recoveries.to_string())
    .draw(&outcome)
}

/// The severe gray-failure template the fail-slow study injects: brutal
/// slowdown factors and a quick detector, so the variants measure the
/// detection trade-off rather than waiting out gentle defaults.
fn severe_failslow(sick_fraction: f64, detection: bool) -> FailSlowConfig {
    let mut fs = FailSlowConfig::default()
        .with_sick_fraction(sick_fraction)
        .with_detection(detection);
    fs.mean_onset_secs = 3.0;
    fs.disk_factor = 20.0;
    fs.nic_factor = 20.0;
    fs.cpu_factor = 20.0;
    // An aggressive detector: a short window flushes pre-onset samples
    // fast (low detection latency), and a long probation delay keeps a
    // confirmed-slow node out instead of flapping through re-admission
    // probes that each run 10x slow — the right call against the
    // persistent slowdowns this study injects.
    fs.min_samples = 3;
    fs.window = 8;
    fs.suspect_ratio = 1.4;
    fs.quarantine_ratio = 2.4;
    fs.probation_delay_secs = 60.0;
    fs
}

/// A study that pairs two gray-failure arms per sick fraction — `arm`
/// builds the profile for arm 0 (`true`) and arm 1 (`false`) — with
/// every cell run over all `seeds`: which node a seed sickens decides
/// how much detection pays, so single runs are noisy. All variants of
/// one seed ride identical physical sickness schedules (belief never
/// feeds back into the `"failslow"` stream).
fn failslow_study(
    nodes: usize,
    jobs: usize,
    fractions: &[f64],
    seeds: &[u64],
    allocators: &[AllocatorKind],
    arm: fn(f64, bool) -> FailSlowConfig,
) -> Scenario {
    let variants = fractions.iter().flat_map(|&f| {
        [true, false].map(|on| Variant::new([pct_label(f)], move |c| c.with_failslow(arm(f, on))))
    });
    Scenario {
        seeds: seeds.to_vec(),
        ..Scenario::new(wordcount(nodes, jobs, seeds[0]), allocators, variants)
    }
}

/// The fail-slow study: severe gray failures at increasing sick
/// fractions, Custody vs the baseline with the peer-relative detector
/// on, then off (arms 0 and 1 of a row).
pub fn failslow_scenario(nodes: usize, jobs: usize, fractions: &[f64], seeds: &[u64]) -> Scenario {
    failslow_study(nodes, jobs, fractions, seeds, &VERSUS, severe_failslow)
}

/// Fail-slow: gray failures (limping disks, NICs, CPUs plus transient
/// task faults) at increasing sick fractions. Shows what detection buys
/// (JCT with quarantine + demotion vs riding the slowdown out) and what
/// it costs (false quarantines, capacity held in probation).
pub fn failslow(opts: &FigureOptions) -> String {
    // The latency-sensitive regime: a small cluster with headroom. In a
    // deeply queued batch, makespan is pure throughput and excluding a
    // half-useful slow node always costs; with spare capacity the
    // exclusion is free and detection shows its real value — killing
    // stragglers before they stretch every job's tail.
    let nodes = opts.congested_nodes(10);
    let seeds: Vec<u64> = (0..5).map(|i| opts.seed + i).collect();
    let fractions = [0.0, 0.1, 0.2, 0.3];
    let jobs = opts.jobs_per_app.min(8);
    let outcome = failslow_scenario(nodes, jobs, &fractions, &seeds).run();
    let jct = |r: &Row, arm, a| r.pooled(arm, a, RunMetrics::job_completion_secs).mean();
    Table::new(format!(
        "Fail-slow sweep — gray failures by sick fraction, WordCount, {nodes} nodes,\n\
         5 seeds per cell (jct on/off = health detection enabled/disabled; gain = mean-JCT\n\
         reduction from detection, positive = quarantine paid off)"
    ))
    .span(2)
    .key("sick", 0)
    .col("custody jct on/off", move |r| {
        format!("{:.2} / {:.2} s", jct(r, 0, 0), jct(r, 1, 0))
    })
    .col("spark jct on/off", move |r| {
        format!("{:.2} / {:.2} s", jct(r, 0, 1), jct(r, 1, 1))
    })
    .col("det gain c/s", move |r| {
        let gain = |a| reduction_pct(jct(r, 0, a), jct(r, 1, a));
        format!("{:+.1} / {:+.1} %", gain(0), gain(1))
    })
    .col("locality (on)", |r| {
        pct_mean_std(&r.pooled(0, 0, RunMetrics::input_locality))
    })
    .col("quarantines", |r| {
        let quarantined = r.total(0, 0, |m| m.nodes_quarantined);
        let wrongly = r.total(0, 0, |m| m.false_quarantines);
        format!("{quarantined} ({wrongly} false)")
    })
    .col("q-latency", |r| {
        let latency = r.pooled(0, 0, |m| m.quarantine_latency_secs.clone());
        if latency.count() > 0 {
            format!("{:.1} s", latency.mean())
        } else {
            "-".to_string()
        }
    })
    .col("faults (custody on)", |r| {
        let retries = r.total(0, 0, |m| m.task_retries);
        let failed = r.total(0, 0, |m| m.jobs_failed);
        format!("{retries} retry, {failed} failed")
    })
    .draw(&outcome)
}

/// Gray failures tuned to the suspect band: slow enough for the
/// detector to demote (peer ratios 2–4x vs the 1.4 suspect threshold)
/// but with the quarantine threshold pushed out of reach, so a sick
/// node stays *demoted-but-usable* for the whole run — the classic
/// lingering gray failure that never looks dead enough to banish — and
/// the study isolates what the allocator does with that belief. The
/// severe profile's 20x factors plus its 2.4 quarantine ratio would
/// rocket every sick node straight into quarantine, which soft and hard
/// demotion treat identically. The three fault kinds get *different*
/// factors: a heterogeneously sick cluster is exactly where a graded
/// cost model can beat a binary verdict — a binary demoted set cannot
/// prefer the mildly limping CPU over the badly limping disk. `soft`
/// picks soft (cost-based) over hard (binary) demotion.
fn lingering_failslow(sick_fraction: f64, soft: bool) -> FailSlowConfig {
    let mut fs = severe_failslow(sick_fraction, true).with_soft_demotion(soft);
    fs.disk_factor = 4.0;
    fs.nic_factor = 3.0;
    fs.cpu_factor = 2.0;
    fs.quarantine_ratio = 8.0;
    fs
}

/// The demotion study: saturated Custody batches with lingering
/// suspect-band gray failures at increasing sick fractions, soft then
/// hard demotion (arms 0 and 1 of a row). Saturation is the regime where
/// the distinction matters — a busy batch cannot afford to starve 10–30%
/// of its capacity, so pricing sick nodes into the cost model (graded
/// filler order, health-weighted locality credit, healthiest-replica
/// pick) should beat the binary exclusion. Detection is on in both arms;
/// only what the allocator does with the belief differs.
pub fn demotion_scenario(nodes: usize, jobs: usize, fractions: &[f64], seeds: &[u64]) -> Scenario {
    let custody = [AllocatorKind::Custody];
    failslow_study(nodes, jobs, fractions, seeds, &custody, lingering_failslow)
}

/// Soft-vs-hard demotion: soft demotion gives suspect nodes a worse
/// rational key but keeps them offerable, graded by how sick they look;
/// hard demotion puts every suspect equally last in the filler, with
/// locality and replica picks health-blind. The per-cell effect is small
/// — a work-conserving cluster self-paces its slow executors — so every
/// variant is averaged over 24 seeds; what remains is the steering gain:
/// soft places local tasks on the healthy replica and prefers the mildly
/// limping CPU over the badly limping disk, which a binary verdict
/// cannot express.
pub fn demotion(opts: &FigureOptions) -> String {
    let nodes = 20;
    let seeds: Vec<u64> = (0..24).map(|i| opts.seed + i).collect();
    let fractions = [0.0, 0.1, 0.2, 0.3];
    let outcome = demotion_scenario(nodes, opts.jobs_per_app.max(8), &fractions, &seeds).run();
    let mean = |r: &Row, arm, f: fn(&RunMetrics) -> Summary| r.pooled(arm, 0, f).mean();
    let jct = move |r: &Row, arm| mean(r, arm, RunMetrics::job_completion_secs);
    let locality = move |r: &Row, arm| mean(r, arm, RunMetrics::input_locality);
    Table::new(format!(
        "Demotion sweep — soft (cost-based) vs hard (binary) demotion of suspect nodes,\n\
         WordCount, {nodes} nodes, 24 seeds per cell, quarantine out of reach (gain =\n\
         mean-JCT reduction from soft demotion, positive = pricing beat banishing)"
    ))
    .span(2)
    .key("sick", 0)
    .col("soft jct", move |r| secs(jct(r, 0)))
    .col("hard jct", move |r| secs(jct(r, 1)))
    .col("soft gain", move |r| {
        format!("{:+.1} %", reduction_pct(jct(r, 0), jct(r, 1)))
    })
    .col("locality Δ", move |r| {
        format!("{:+.2} pp", (locality(r, 0) - locality(r, 1)) * 100.0)
    })
    .col("onsets", |r| {
        r.total(0, 0, |m| m.failslow_onsets).to_string()
    })
    .col("retries s/h", |r| {
        let retries = |arm| r.total(arm, 0, |m| m.task_retries);
        format!("{} / {}", retries(0), retries(1))
    })
    .draw(&outcome)
}

/// A `figures` target beyond Figs. 7–10: its tables, drawn.
pub type Study = fn(&FigureOptions) -> String;

/// The `figures` targets beyond Figs. 7–10, in the order they print.
pub const STUDIES: [(&str, Study); 9] = [
    ("fig7-fixed", fig7_fixed_quota),
    ("ablations", ablations),
    ("chaos", chaos),
    ("partition", partition),
    ("durability", durability),
    ("detector", detector),
    ("failslow", failslow),
    ("demotion", demotion),
    ("theory", |opts| theory_quality_table(500, opts.seed)),
];

/// Theory check: the greedy strategy of Algorithm 2 vs the exact optima
/// on random intra-application instances.
///
/// Two guarantees are verified empirically:
/// * **task level** — the greedy matching is maximal within its budget,
///   so it matches at least half of `min(budget, Hopcroft–Karp optimum)`
///   tasks (the classic maximal-matching ½ bound, which underlies the
///   paper's 2-approximation for the weighted objective of Eq. 9);
/// * **job level** — aggregate quality vs the exhaustive optimum. No
///   per-instance factor is guaranteed for whole-job counts (a partial
///   match of a small job can block a completable big one), which the
///   report shows honestly.
pub fn theory_quality_table(trials: usize, seed: u64) -> String {
    use custody_core::theory::hopcroft_karp;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut worst_task_ratio: f64 = 1.0;
    let mut greedy_jobs_total = 0usize;
    let mut exact_jobs_total = 0usize;
    for _ in 0..trials {
        let jobs = random_jobs(&mut rng, 4, 3);
        let budget = 2 + rng.below(EXECUTORS - 1);
        let greedy = greedy_local_jobs(&jobs, EXECUTORS, budget);
        let exact_jobs = exact_max_local_jobs(&jobs, EXECUTORS, budget);
        greedy_jobs_total += greedy.local_jobs;
        exact_jobs_total += exact_jobs;
        let adj: Vec<Vec<usize>> = jobs.iter().flat_map(|j| j.iter().cloned()).collect();
        let (hk, _) = hopcroft_karp(&adj, EXECUTORS);
        let task_bound = hk.min(budget);
        if task_bound > 0 {
            worst_task_ratio = worst_task_ratio.min(greedy.local_tasks as f64 / task_bound as f64);
        }
    }
    format!(
        "Theory — greedy (Algorithm 2) vs exact optima over {trials} random instances\n\
         local jobs (aggregate): greedy {greedy_jobs_total} vs exhaustive {exact_jobs_total} \
         ({:.1} % of optimum)\n\
         local tasks: worst greedy/min(budget, Hopcroft-Karp) ratio {:.2} (maximal-matching bound 0.50)\n",
        100.0 * greedy_jobs_total as f64 / exact_jobs_total.max(1) as f64,
        worst_task_ratio
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_render() {
        let opts = FigureOptions {
            jobs_per_app: 1,
            seed: 7,
            sizes: vec![10],
        };
        let sweep = paper_scenario(&opts.sizes, opts.jobs_per_app, opts.seed).run();
        let f7 = fig7_table().draw(&sweep);
        assert!(f7.contains("Fig. 7"));
        assert!(f7.contains("pagerank"));
        assert_eq!(f7.lines().count(), 2 + 1 + 3, "{f7}");
        assert!(fig8_table().draw(&sweep).contains("reduction"));
        let f9 = fig9_table(&opts).draw(&sweep);
        assert!(f9.contains("10-node"));
        assert_eq!(f9.lines().count(), 1 + 2 + 3, "{f9}");
        let f10 = fig10_table().draw(&sweep);
        assert!(f10.contains("ms"));
        assert_eq!(f10.lines().count(), 2 + 2 + 1, "{f10}");
    }

    #[test]
    fn theory_quality_is_within_bound() {
        let t = theory_quality_table(50, 3);
        assert!(t.contains("bound 0.50"));
        // Parse the worst task-level ratio and check the maximal-matching
        // 1/2 bound.
        let ratio: f64 = t
            .split("ratio ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.trim().parse().ok())
            .expect("table contains ratio");
        assert!(ratio >= 0.5 - 1e-9, "greedy fell below 1/2: {ratio}");
    }
}
