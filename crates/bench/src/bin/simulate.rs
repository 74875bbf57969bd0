//! Run one simulation from the command line.
//!
//! ```text
//! cargo run --release -p custody-bench --bin simulate -- \
//!     --workload sort --nodes 50 --allocator custody --jobs 10 --seed 42
//! ```
//!
//! `--help` lists every flag. With `--baseline <allocator>` the same
//! configuration is run twice and the comparison printed; `--trace`
//! writes the per-task TSV log.

use custody_bench::cli::Args;
use custody_core::AllocatorKind;
use custody_dfs::NodeId;
use custody_scheduler::speculation::SpeculationConfig;
use custody_scheduler::SchedulerKind;
use custody_sim::report::summary_row;
use custody_sim::{NodeFailure, PlacementKind, QuotaMode, SimConfig, Simulation, WorkloadKind};
use custody_simcore::{SimDuration, SimTime};

const USAGE: &str = "usage: simulate [--workload pagerank|wordcount|sort|sqlscan|kmeans]
    [--nodes <n>] [--allocator <allocator>] [--baseline <allocator>] [--jobs <n>]
    [--seed <n>] [--racks <n>] [--placement random|round-robin|popularity|rack-aware]
    [--quota <n>] [--scheduler delay[:<ms>]|fifo|locality-first] [--fail <secs>:<node>]
    [--chaos <mtbf-secs>[:<downtime-secs>]] [--audit] [--speculation]
    [--detector <drop-prob>[:<suspicion-secs>]] [--checkpoint <secs>] [--master-crash <prob>]
    [--failslow <sick-fraction>[:<fault-prob>]] [--no-quarantine] [--retry-budget <n>]
    [--demotion soft|hard|off] [--partition <split-fraction>[:<mean-heal-secs>]]
    [--corruption <latent-fraction>[:<scrub-interval-secs>]] [--trace <out.tsv>] [--analyze]
allocators: custody spark-static static-random dynamic-offer custody-fair-intra custody-naive-inter";

fn parse_workload(args: &mut Args, flag: &str) -> WorkloadKind {
    match args.value(flag).as_str() {
        "pagerank" => WorkloadKind::PageRank,
        "wordcount" => WorkloadKind::WordCount,
        "sort" => WorkloadKind::Sort,
        "sqlscan" => WorkloadKind::SqlScan,
        "kmeans" => WorkloadKind::KMeans,
        other => args.fail(&format!("unknown workload {other:?}")),
    }
}

fn parse_allocator(args: &mut Args, flag: &str) -> AllocatorKind {
    match args.value(flag).as_str() {
        "custody" => AllocatorKind::Custody,
        "spark-static" => AllocatorKind::StaticSpread,
        "static-random" => AllocatorKind::StaticRandom,
        "dynamic-offer" => AllocatorKind::DynamicOffer,
        "custody-fair-intra" => AllocatorKind::CustodyFairIntra,
        "custody-naive-inter" => AllocatorKind::CustodyNaiveInter,
        other => args.fail(&format!("unknown allocator {other:?}")),
    }
}

fn parse_placement(args: &mut Args, flag: &str) -> PlacementKind {
    match args.value(flag).as_str() {
        "random" => PlacementKind::Random,
        "round-robin" => PlacementKind::RoundRobin,
        "popularity" => PlacementKind::Popularity,
        "rack-aware" => PlacementKind::RackAware,
        other => args.fail(&format!("unknown placement {other:?}")),
    }
}

fn parse_scheduler(args: &mut Args, flag: &str) -> SchedulerKind {
    let v = args.value(flag);
    if let Some(ms) = v.strip_prefix("delay:") {
        return SchedulerKind::Delay(SimDuration::from_millis(args.parse_as(flag, ms)));
    }
    match v.as_str() {
        "delay" => SchedulerKind::spark_default(),
        "fifo" => SchedulerKind::Fifo,
        "locality-first" => SchedulerKind::LocalityFirst,
        other => args.fail(&format!("unknown scheduler {other:?}")),
    }
}

/// Parses `<a>[:<b>]`, with `b` defaulting to `None`.
fn parse_pair(args: &mut Args, flag: &str) -> (f64, Option<f64>) {
    let v = args.value(flag);
    match v.split_once(':') {
        Some((a, b)) => (args.parse_as(flag, a), Some(args.parse_as(flag, b))),
        None => (args.parse_as(flag, &v), None),
    }
}

fn main() {
    // Flags that only set a field write it straight into `cfg`; the
    // cluster, campaign, allocator and seed are filled in after parsing.
    let mut cfg = SimConfig::paper(WorkloadKind::Sort, 25, AllocatorKind::Custody, 42);
    let mut workload = WorkloadKind::Sort;
    let mut nodes = 25usize;
    let mut allocator = AllocatorKind::Custody;
    let mut baseline: Option<AllocatorKind> = None;
    let mut jobs = 10usize;
    let mut seed = 42u64;
    let mut racks = 1usize;
    let mut control_plane: Option<custody_sim::ControlPlaneConfig> = None;
    let mut checkpoint_secs: Option<f64> = None;
    let mut master_crash: Option<f64> = None;
    let mut failslow: Option<custody_sim::FailSlowConfig> = None;
    let mut partition: Option<custody_sim::PartitionConfig> = None;
    let mut no_quarantine = false;
    let mut demotion: Option<String> = None;
    let mut retry_budget: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut analyze = false;

    let mut args = Args::from_env(USAGE);
    while let Some(a) = args.next_arg() {
        let flag = a.as_str();
        match flag {
            "--workload" => workload = parse_workload(&mut args, flag),
            "--nodes" => nodes = args.parse(flag),
            "--allocator" => allocator = parse_allocator(&mut args, flag),
            "--baseline" => baseline = Some(parse_allocator(&mut args, flag)),
            "--jobs" => jobs = args.parse(flag),
            "--seed" => seed = args.parse(flag),
            "--racks" => racks = args.parse(flag),
            "--placement" => cfg.placement = parse_placement(&mut args, flag),
            "--quota" => cfg.quota = QuotaMode::FixedPerApp(args.parse(flag)),
            "--scheduler" => cfg.scheduler = parse_scheduler(&mut args, flag),
            "--fail" => {
                let v = args.value(flag);
                let Some((t, n)) = v.split_once(':') else {
                    args.fail("--fail needs <secs>:<node>")
                };
                cfg.failures.push(NodeFailure {
                    at: SimTime::from_secs(args.parse_as(flag, t)),
                    node: NodeId::new(args.parse_as(flag, n)),
                });
            }
            "--chaos" => {
                let (mtbf, downtime) = parse_pair(&mut args, flag);
                let mut c = custody_sim::ChaosConfig::default().with_mean_time_between_faults(mtbf);
                c.mean_downtime_secs = downtime.unwrap_or(30.0);
                cfg.chaos = Some(c);
            }
            "--detector" => {
                let (drop, timeout) = parse_pair(&mut args, flag);
                let cp = custody_sim::ControlPlaneConfig::default().with_drop_probability(drop);
                control_plane = Some(match timeout {
                    Some(secs) => cp.with_suspicion_timeout(secs),
                    None => cp,
                });
            }
            "--checkpoint" => checkpoint_secs = Some(args.parse(flag)),
            "--master-crash" => master_crash = Some(args.parse(flag)),
            "--audit" => cfg.audit = true,
            "--speculation" => cfg.speculation = Some(SpeculationConfig::default()),
            "--failslow" => {
                let (sick, fault) = parse_pair(&mut args, flag);
                let fs = custody_sim::FailSlowConfig::default().with_sick_fraction(sick);
                failslow = Some(match fault {
                    Some(p) => fs.with_transient_fault_prob(p),
                    None => fs,
                });
            }
            "--partition" => {
                let (split, heal) = parse_pair(&mut args, flag);
                let pc = custody_sim::PartitionConfig::default().with_split_fraction(split);
                partition = Some(match heal {
                    Some(secs) => pc.with_mean_heal(secs),
                    None => pc,
                });
            }
            "--corruption" => {
                let (latent, scrub) = parse_pair(&mut args, flag);
                let cc = custody_sim::CorruptionConfig::default().with_latent_fraction(latent);
                cfg.corruption = Some(match scrub {
                    Some(secs) => cc.with_scrub_interval(secs),
                    None => cc,
                });
            }
            "--no-quarantine" => no_quarantine = true,
            "--demotion" => demotion = Some(args.value(flag)),
            "--retry-budget" => retry_budget = Some(args.parse(flag)),
            "--trace" => trace_path = Some(args.value(flag)),
            "--analyze" => analyze = true,
            other => args.fail(&format!("unknown flag {other:?}")),
        }
    }
    if nodes == 0 {
        args.fail("--nodes must be at least 1");
    }

    cfg.cluster = custody_sim::ClusterSpec::paper(nodes).with_racks(racks);
    cfg.campaign = custody_sim::Campaign::paper(workload).with_jobs_per_app(jobs);
    cfg.allocator = allocator;
    cfg.seed = seed;
    if checkpoint_secs.is_some() || master_crash.is_some() {
        let mut cp = control_plane.unwrap_or_default();
        if let Some(secs) = checkpoint_secs {
            cp = cp.with_checkpoints(secs);
        }
        if let Some(p) = master_crash {
            cp = cp.with_master_crash_fraction(p);
        }
        control_plane = Some(cp);
    }
    if let Some(cp) = control_plane {
        cfg = cfg.with_control_plane(cp);
    }
    if no_quarantine || demotion.is_some() || retry_budget.is_some() {
        let Some(mut fs) = failslow else {
            args.fail("--no-quarantine / --demotion / --retry-budget modify --failslow")
        };
        if no_quarantine {
            fs = fs.with_detection(false);
        }
        match demotion.as_deref() {
            Some("soft") => fs = fs.with_demotion(true).with_soft_demotion(true),
            Some("hard") => fs = fs.with_demotion(true).with_soft_demotion(false),
            Some("off") => fs = fs.with_demotion(false),
            Some(other) => args.fail(&format!("unknown demotion mode {other:?}")),
            None => {}
        }
        if let Some(budget) = retry_budget {
            fs = fs.with_retry_budget(budget);
        }
        failslow = Some(fs);
    }
    if let Some(fs) = failslow {
        cfg = cfg.with_failslow(fs);
    }
    if let Some(pc) = partition {
        cfg = cfg.with_partition(pc);
    }
    if let Err(msg) = cfg.validate() {
        args.fail(&msg);
    }

    println!("{}\n", cfg.label());
    let (outcome, trace) = Simulation::run_traced(&cfg);
    println!(
        "{}",
        summary_row(allocator.name(), &outcome.cluster_metrics)
    );
    let m = &outcome.cluster_metrics;
    println!(
        "jobs {}  makespan {}  events {}  alloc-rounds {}  requeued {}  clones {}",
        m.jobs_completed,
        m.makespan,
        m.events_processed,
        m.allocation_rounds,
        m.tasks_requeued,
        m.tasks_speculated,
    );
    if m.nodes_failed + m.executor_faults + m.degraded_windows > 0 {
        println!(
            "faults: {} node, {} executor-only, {} degradation windows  recovered {}  \
             clone races {}W/{}L  fault-to-stable {:.1} s mean ({} disruptions)  peak queue {}",
            m.nodes_failed,
            m.executor_faults,
            m.degraded_windows,
            m.nodes_recovered,
            m.clones_won,
            m.clones_lost,
            m.requeue_drain_secs.mean(),
            m.requeue_drain_secs.count(),
            m.peak_queue_len,
        );
    }
    if m.blocks_lost > 0 {
        println!(
            "data loss: {} blocks unrecoverable (sole replica on a failed machine)",
            m.blocks_lost
        );
    }
    if control_plane.is_some() {
        println!(
            "detector: {} false suspicions  detection latency {:.2} s mean / {:.2} s max ({})  \
             leases revoked {}  stale finishes fenced {} ({} unfenced)",
            m.false_suspicions,
            m.detection_latency_secs.mean(),
            m.detection_latency_secs.max().unwrap_or(0.0),
            m.detection_latency_secs.count(),
            m.leases_revoked,
            m.stale_finishes_fenced,
            m.unfenced_stale_finishes,
        );
        if m.master_recoveries > 0 {
            println!(
                "master: {} crash/recovery cycles, each replayed from checkpoint + WAL and \
                 convergence-checked",
                m.master_recoveries
            );
        }
    }
    if failslow.is_some() {
        println!(
            "gray failures: {} onsets  {} task faults ({} retried, {} jobs failed)  \
             {} quarantined ({} false)  quarantine latency {:.1} s mean ({})  {} probes",
            m.failslow_onsets,
            m.task_faults_injected,
            m.task_retries,
            m.jobs_failed,
            m.nodes_quarantined,
            m.false_quarantines,
            m.quarantine_latency_secs.mean(),
            m.quarantine_latency_secs.count(),
            m.probes_launched,
        );
    }
    if partition.is_some() {
        println!(
            "partitions: {} episodes  {} minority finishes deferred ({} fenced stale)  \
             {} minority attempts discarded at reconnect  reconverge {:.1} s mean ({})",
            m.partition_episodes,
            m.partition_finishes_deferred,
            m.partition_finishes_fenced,
            m.partition_work_discarded,
            m.partition_reconverge_secs.mean(),
            m.partition_reconverge_secs.count(),
        );
    }
    if cfg.corruption.is_some() {
        println!(
            "corruption: {} replicas rotted  detected {} by read / {} by scrub  \
             latency {:.1} s mean ({})  {} repaired  {} blocks unavailable ({} recovered)  \
             lost {} / at risk {}  {} jobs failed unavailable",
            m.replicas_corrupted,
            m.corrupt_reads_detected,
            m.scrub_detections,
            m.corruption_detection_secs.mean(),
            m.corruption_detection_secs.count(),
            m.replicas_repaired,
            m.blocks_unavailable,
            m.blocks_recovered,
            m.blocks_permanently_lost,
            m.blocks_at_risk,
            m.jobs_failed_unavailable,
        );
    }
    println!(
        "allocator: {:.3} ms wall total ({:.2} µs/round)  rounds skipped {}",
        m.allocator_wall_secs * 1e3,
        m.allocator_wall_secs * 1e6 / m.allocation_rounds.max(1) as f64,
        m.rounds_skipped,
    );
    println!(
        "dispatch: {} views built  {} executors scanned",
        m.views_built, m.executors_scanned,
    );
    println!(
        "host: event-pop {:.3} ms wall  demand maintenance {:.3} ms wall  peak RSS {:.1} MiB",
        m.event_pop_wall_secs * 1e3,
        m.demand_wall_secs * 1e3,
        m.peak_rss_bytes as f64 / (1024.0 * 1024.0),
    );

    if let Some(base) = baseline {
        let other = Simulation::run(&cfg.clone().with_allocator(base));
        println!("{}", summary_row(base.name(), &other.cluster_metrics));
    }

    if analyze {
        use custody_sim::analysis::{concurrency_timeline, node_utilization, sparkline};
        let bucket = SimDuration::from_secs(1);
        let timeline = concurrency_timeline(&trace, bucket);
        println!("\nconcurrent tasks (1s buckets):");
        println!("  {}", sparkline(&timeline));
        let util = node_utilization(&trace, nodes, cfg.cluster.executors_per_node);
        let mean = util.iter().sum::<f64>() / util.len().max(1) as f64;
        let max = util.iter().copied().fold(0.0_f64, f64::max);
        println!(
            "node utilization: mean {:.1} %  max {:.1} %  (over {} nodes)",
            mean * 100.0,
            max * 100.0,
            util.len()
        );
    }

    if let Some(path) = trace_path {
        std::fs::write(&path, trace.to_tsv()).expect("write trace");
        println!("trace: {} task records -> {path}", trace.len());
    }
}
