//! The benchmark's named workloads and the inputs generated for them.
//!
//! Every workload uses the Custody allocator and delay scheduling, and is
//! built from one seed. Why each exists is in the README; in short,
//! `scale-wide` stresses per-event view building on a wide cluster,
//! `stream-mixed` stresses grant-heavy allocation rounds and gives the
//! paper's outcome metrics, and `fault-storm` turns every fault layer on.

use custody_bench::scale_config;
use custody_cluster::ClusterState;
use custody_dfs::{DatasetId, NameNode};
use custody_sim::{
    AllocatorKind, Campaign, ChaosConfig, CorruptionConfig, FailSlowConfig, PartitionConfig,
    SimConfig, WorkloadKind,
};
use custody_simcore::SimRng;
use custody_workload::{DatasetMode, JobSpec, SubmissionSchedule};

use crate::trace::Tracer;

/// Seed the README's reference numbers were taken with.
pub const DEFAULT_SEED: u64 = 42;
/// Seed kept out of tuning: a later gain claim must also hold on it.
pub const HELD_OUT_SEED: u64 = 7_919;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10k nodes x 64 WordCount apps x 2 jobs.
    ScaleWide,
    /// 1k nodes running the mixed campaign, 300 jobs per app, 1 s arrivals.
    StreamMixed,
    /// 40 small clusters running the mixed campaign with every fault
    /// layer on.
    FaultStorm,
}

/// Independent instances `fault-storm` pools per pass. One storm is one
/// draw of a heavy-tailed fault process; pooling many small storms keeps
/// the pooled JCT percentiles steady from one seed to the next.
pub const STORM_INSTANCES: usize = 40;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ScaleWide,
        Workload::StreamMixed,
        Workload::FaultStorm,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleWide => "scale-wide",
            Workload::StreamMixed => "stream-mixed",
            Workload::FaultStorm => "fault-storm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The configurations one pass of the workload runs, all derived from
    /// `seed`: one for most workloads, [`STORM_INSTANCES`] for
    /// `fault-storm`.
    pub fn configs(self, seed: u64) -> Vec<SimConfig> {
        match self {
            Workload::ScaleWide => vec![scale_config(10_000, 64, 2, seed)],
            Workload::StreamMixed => vec![arrivals_every(mixed(1_000, 300, seed), 1.0)],
            Workload::FaultStorm => {
                let mut rng = SimRng::for_stream(seed, "simbench/storm-instances");
                (0..STORM_INSTANCES)
                    .map(|_| storm(mixed(30, 6, rng.next_u64())))
                    .collect()
            }
        }
    }

    /// A reduced copy of one configuration of [`configs`](Self::configs)
    /// with the same shape, small enough to run under the per-event
    /// invariant auditor.
    pub fn reduced_config(self, seed: u64) -> SimConfig {
        match self {
            Workload::ScaleWide => scale_config(400, 16, 2, seed),
            Workload::StreamMixed => arrivals_every(mixed(60, 12, seed), 1.0),
            Workload::FaultStorm => storm(mixed(24, 5, seed)),
        }
    }
}

/// The mixed campaign (PageRank, WordCount, Sort, PageRank) on `nodes`
/// paper-spec nodes.
fn mixed(nodes: usize, jobs_per_app: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(WorkloadKind::WordCount, nodes, AllocatorKind::Custody, seed);
    cfg.campaign = Campaign::mixed().with_jobs_per_app(jobs_per_app);
    cfg
}

/// Overrides the mean inter-arrival time of every application's jobs.
fn arrivals_every(mut cfg: SimConfig, secs: f64) -> SimConfig {
    cfg.campaign = cfg.campaign.with_mean_interarrival(secs);
    cfg
}

/// Turns every fault layer on. The partition layer installs the default
/// modeled control plane.
fn storm(cfg: SimConfig) -> SimConfig {
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
}

/// A workload's inputs, generated through the public APIs of
/// `custody-workload`, `custody-dfs` and `custody-cluster` with the same
/// RNG streams the simulator's driver uses, so the jobs and the replica
/// placement are the ones `Simulation::run` sees.
#[derive(Debug)]
pub struct Inputs {
    /// The configuration.
    pub config: SimConfig,
    /// The executor inventory.
    pub cluster: ClusterState,
    /// The NameNode with every job's dataset placed.
    pub namenode: NameNode,
    /// Each job's input dataset, indexed `[app][seq]`.
    pub datasets: Vec<Vec<DatasetId>>,
    /// Submission times.
    pub schedule: SubmissionSchedule,
}

impl Inputs {
    /// Generates the inputs of `config`, recording a `workload.generate`
    /// span around job generation and a `dfs.place` span around dataset
    /// placement and the submission schedule.
    pub fn generate(config: SimConfig, tracer: &mut Tracer) -> Inputs {
        let campaign = &config.campaign;
        assert!(
            matches!(campaign.dataset_mode, DatasetMode::FreshPerJob),
            "benchmark workloads use one fresh dataset per job"
        );
        let specs: Vec<Vec<JobSpec>> = tracer.span("workload.generate", |_| {
            campaign
                .apps
                .iter()
                .enumerate()
                .map(|(i, app)| {
                    let mut rng = SimRng::for_stream(config.seed, &format!("jobs/app-{i}"));
                    (0..campaign.jobs_per_app)
                        .map(|seq| app.workload.generate_job(seq, &mut rng))
                        .collect()
                })
                .collect()
        });
        let cluster = config.cluster.build_cluster();
        let (namenode, datasets, schedule) = tracer.span("dfs.place", |_| {
            let mut namenode = config.cluster.build_namenode();
            let mut placement = config.placement.build_for(&config.cluster);
            let mut rng = SimRng::for_stream(config.seed, "placement");
            let datasets: Vec<Vec<DatasetId>> = specs
                .iter()
                .zip(&campaign.apps)
                .map(|(app_specs, app)| {
                    app_specs
                        .iter()
                        .map(|spec| {
                            namenode.create_dataset(
                                format!("{}/{}", app.name, spec.name),
                                spec.input_bytes,
                                config.cluster_block_size(),
                                placement.as_mut(),
                                &mut rng,
                            )
                        })
                        .collect()
                })
                .collect();
            let schedule = SubmissionSchedule::generate(campaign, config.seed);
            (namenode, datasets, schedule)
        });
        Inputs {
            config,
            cluster,
            namenode,
            datasets,
            schedule,
        }
    }

    /// Jobs submitted over the whole run.
    pub fn total_jobs(&self) -> usize {
        self.datasets.iter().map(Vec::len).sum()
    }

    /// Input tasks over every job: one per block of its dataset.
    pub fn input_tasks(&self) -> usize {
        self.datasets
            .iter()
            .flatten()
            .map(|&d| self.namenode.dataset(d).blocks.len())
            .sum()
    }
}
