//! `sim_scale` — end-to-end simulator scalability at 1k–100k nodes.
//!
//! ```text
//! cargo run --release -p custody-bench --bin sim_scale [-- --quick|--full|--check]
//! ```
//!
//! Sweeps paper-shaped WordCount campaigns over a cluster-size ×
//! application-count grid and reports, per cell: wall time of the whole
//! run, the per-phase breakdown the driver now measures (allocator,
//! event-queue pop, demand maintenance), allocation-round counts, and
//! the process's peak RSS. A single-round microbench times the
//! production Custody round against the scan-everything
//! `reference_allocate` specification on grant-heavy views of eight
//! shapes (100–10,000 nodes × 4–64 applications), after checking that
//! both return identical grants, with and without a sick-cluster
//! health-cost table; the costed round's time bounds the overhead of the
//! soft-demotion multiplier path. The production round must be at least
//! 5× the reference at 10k nodes.
//!
//! Modes:
//!
//! * `--quick` (default) — {1k, 10k} × {4, 16, 64} grid, plus the
//!   microbench on every shape; writes `BENCH_scale.json` at the
//!   repository root.
//! * `--full` — adds the 100k × 64 cell (several minutes).
//! * `--check` — CI smoke: one 2k × 16 cell plus the 10k microbench,
//!   compared against `crates/bench/scale_baseline.json`; exits
//!   non-zero if any budgeted number regresses more than 5%, if the
//!   custody-vs-reference speedup falls below 5×, or if a deterministic
//!   work counter (views built, executors scanned) differs from its
//!   baseline value at all. Writes no JSON.

use std::fmt::Write as _;
use std::time::Instant;

use custody_bench::cli::Args;
use custody_bench::{scale_config, synthetic_round_view};
use custody_core::custody::{reference_allocate, reference_allocate_with_costs};
use custody_core::{CustodyAllocator, ExecutorAllocator, HealthCost};
use custody_dfs::NodeId;
use custody_sim::{RunMetrics, Simulation};
use custody_simcore::SimRng;

const USAGE: &str = "usage: sim_scale [--quick|--full|--check]";

/// The microbench's view shapes, (nodes, apps): small clusters through
/// the end-to-end grid's 1k × 64 and 10k sizes.
const ROUND_SHAPES: [(usize, usize); 8] = [
    (100, 4),
    (100, 16),
    (500, 4),
    (500, 16),
    (1000, 4),
    (1000, 16),
    (1000, 64),
    (10_000, 16),
];

/// One grid cell's measurements.
struct Cell {
    nodes: usize,
    apps: usize,
    jobs_per_app: usize,
    elapsed_secs: f64,
    metrics: RunMetrics,
}

fn run_cell(nodes: usize, apps: usize, jobs_per_app: usize) -> Cell {
    let cfg = scale_config(nodes, apps, jobs_per_app, 42);
    let started = Instant::now();
    let outcome = Simulation::run(&cfg);
    let elapsed_secs = started.elapsed().as_secs_f64();
    let m = outcome.cluster_metrics;
    println!(
        "{nodes:>6} nodes x {apps:>2} apps: {:>7.2} s wall  {:>8} events  \
         {:>6} rounds ({:>9.1} us/round)  alloc {:>7.1} ms  pop {:>6.1} ms  \
         demand {:>6.1} ms  rss {:>7.1} MiB  {:>5} views  {:>9} scanned",
        elapsed_secs,
        m.events_processed,
        m.allocation_rounds,
        m.allocator_wall_secs * 1e6 / m.allocation_rounds.max(1) as f64,
        m.allocator_wall_secs * 1e3,
        m.event_pop_wall_secs * 1e3,
        m.demand_wall_secs * 1e3,
        m.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        m.views_built,
        m.executors_scanned,
    );
    assert_eq!(
        m.jobs_completed,
        apps * jobs_per_app - m.jobs_failed,
        "scale run lost jobs"
    );
    Cell {
        nodes,
        apps,
        jobs_per_app,
        elapsed_secs,
        metrics: m,
    }
}

/// Times `f` over `iters` calls and returns the fastest wall time in
/// nanoseconds (minimum beats median for single-digit iteration counts:
/// it rejects one-off scheduling noise without needing many samples).
fn best_ns(iters: usize, mut f: impl FnMut()) -> u128 {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .min()
        .expect("at least one iteration")
}

/// Custody vs the reference specification on one grant-heavy view, plus
/// the same production round with a sick-cluster health-cost table.
struct MicroBench {
    nodes: usize,
    apps: usize,
    custody_ns: u128,
    reference_ns: u128,
    costed_ns: u128,
}

impl MicroBench {
    fn speedup(&self) -> f64 {
        self.reference_ns as f64 / self.custody_ns as f64
    }

    /// Wall-time ratio of the health-costed round over the costless one
    /// (1.0 = the multiplier path is free).
    fn cost_slowdown(&self) -> f64 {
        self.costed_ns as f64 / self.custody_ns as f64
    }
}

/// A sick-cluster cost table: 10% of nodes carry a non-neutral health
/// cost spread across the credit buckets — the regime the soft-demotion
/// path pays for (weighted keys, tiered filler, credit bookkeeping).
fn sick_cost_table(nodes: usize) -> Vec<(NodeId, HealthCost)> {
    let scale = 8;
    (0..nodes)
        .map(|n| {
            let cost = if n % 10 == 3 {
                HealthCost::from_ratio(1.5 + (n % 7) as f64 * 0.5, scale, 4.0)
            } else {
                HealthCost::neutral(scale)
            };
            (NodeId::new(n), cost)
        })
        .collect()
}

fn alloc_microbench(nodes: usize, apps: usize) -> MicroBench {
    let view = synthetic_round_view(nodes, apps, 0xA110C);
    // Sanity outside the timed region: both paths must do identical work.
    let mut custody = CustodyAllocator::new();
    let mut rng = SimRng::seed_from_u64(0);
    let fast = custody.allocate(&view, &mut rng);
    assert_eq!(reference_allocate(&view), fast, "{nodes}x{apps}");
    assert!(!fast.is_empty(), "bench view must produce grants");
    let costs = sick_cost_table(nodes);
    let mut costed = CustodyAllocator::new();
    costed.set_node_health_costs(&costs);
    let costed_grants = costed.allocate(&view, &mut rng);
    assert_eq!(
        reference_allocate_with_costs(&view, &costs),
        costed_grants,
        "costed {nodes}x{apps}"
    );

    let custody_ns = best_ns(7, || {
        let grants = custody.allocate(&view, &mut rng);
        std::hint::black_box(grants);
    });
    // The costed timing includes re-feeding the cost vector: that is the
    // real per-round path when the health layer is active.
    let costed_ns = best_ns(7, || {
        costed.set_node_health_costs(&costs);
        let grants = costed.allocate(&view, &mut rng);
        std::hint::black_box(grants);
    });
    let reference_ns = best_ns(3, || {
        let grants = reference_allocate(&view);
        std::hint::black_box(grants);
    });
    let b = MicroBench {
        nodes,
        apps,
        custody_ns,
        reference_ns,
        costed_ns,
    };
    println!(
        "alloc round {nodes} nodes x {apps} apps: custody {:.2} ms vs reference {:.2} ms \
         ({:.1}x speedup); health-costed {:.2} ms ({:.2}x costless)",
        custody_ns as f64 / 1e6,
        reference_ns as f64 / 1e6,
        b.speedup(),
        costed_ns as f64 / 1e6,
        b.cost_slowdown(),
    );
    b
}

fn write_json(cells: &[Cell], micro: &[MicroBench], mode: &str) {
    let mut out = String::from("{\n  \"bench\": \"sim_scale\",\n");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p custody-bench --bin sim_scale -- --{mode}\","
    );
    out.push_str("  \"grid\": [\n");
    for (idx, c) in cells.iter().enumerate() {
        let m = &c.metrics;
        let accounted = m.allocator_wall_secs + m.event_pop_wall_secs;
        let _ = writeln!(
            out,
            "    {{ \"nodes\": {}, \"apps\": {}, \"jobs_per_app\": {}, \
             \"elapsed_secs\": {:.3}, \"events\": {}, \"allocation_rounds\": {}, \
             \"rounds_skipped\": {}, \"views_built\": {}, \"executors_scanned\": {}, \
             \"phases\": {{ \
             \"allocator_wall_secs\": {:.4}, \"allocator_us_per_round\": {:.1}, \
             \"event_pop_wall_secs\": {:.4}, \"demand_wall_secs\": {:.4}, \
             \"other_wall_secs\": {:.4} }}, \"peak_rss_bytes\": {} }}{}",
            c.nodes,
            c.apps,
            c.jobs_per_app,
            c.elapsed_secs,
            m.events_processed,
            m.allocation_rounds,
            m.rounds_skipped,
            m.views_built,
            m.executors_scanned,
            m.allocator_wall_secs,
            m.allocator_wall_secs * 1e6 / m.allocation_rounds.max(1) as f64,
            m.event_pop_wall_secs,
            m.demand_wall_secs,
            (c.elapsed_secs - accounted).max(0.0),
            m.peak_rss_bytes,
            if idx + 1 < cells.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"alloc_round\": [\n");
    for (idx, b) in micro.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"nodes\": {}, \"apps\": {}, \"custody_ns\": {}, \"reference_ns\": {}, \
             \"speedup_custody_vs_reference\": {:.2}, \"costed_ns\": {}, \
             \"cost_round_slowdown\": {:.3} }}{}",
            b.nodes,
            b.apps,
            b.custody_ns,
            b.reference_ns,
            b.speedup(),
            b.costed_ns,
            b.cost_slowdown(),
            if idx + 1 < micro.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &out).expect("write BENCH_scale.json");
    println!("wrote {path}");
}

/// Pulls `"key": <number>` out of a flat JSON text (the baseline file is
/// written by this repo, so a full parser would be overkill).
fn json_number(text: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\"");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("baseline is missing {key}"));
    let rest = &text[at + needle.len()..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')
        .expect("baseline key without value");
    let rest = rest.trim_start();
    let end = rest
        .char_indices()
        .find(|(_, ch)| !matches!(ch, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .map_or(rest.len(), |(i, _)| i);
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("baseline {key}: {e}"))
}

/// CI smoke: one mid-size cell under budgets from the checked-in
/// baseline. Budgets carry headroom over a dev-machine measurement; the
/// 5% tolerance guards the budget itself, so a passing run can be up to
/// `budget * 1.05` before the job fails.
fn check(micro: &MicroBench) {
    let baseline = include_str!("../../scale_baseline.json");
    let nodes = json_number(baseline, "nodes") as usize;
    let apps = json_number(baseline, "apps") as usize;
    let jobs = json_number(baseline, "jobs_per_app") as usize;
    let cell = run_cell(nodes, apps, jobs);
    let m = &cell.metrics;
    let mut failed = false;
    let mut gate = |label: &str, measured: f64, budget: f64| {
        let limit = budget * 1.05;
        let verdict = if measured <= limit { "ok" } else { "REGRESSED" };
        println!("  {label}: {measured:.3} vs budget {budget:.3} (limit {limit:.3}) {verdict}");
        failed |= measured > limit;
    };
    println!("scale-smoke vs scale_baseline.json ({nodes} nodes x {apps} apps):");
    gate(
        "elapsed_secs",
        cell.elapsed_secs,
        json_number(baseline, "budget_elapsed_secs"),
    );
    gate(
        "allocator_us_per_round",
        m.allocator_wall_secs * 1e6 / m.allocation_rounds.max(1) as f64,
        json_number(baseline, "budget_allocator_us_per_round"),
    );
    gate(
        "peak_rss_mib",
        m.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        json_number(baseline, "budget_peak_rss_mib"),
    );
    gate(
        "min_speedup_custody_vs_reference (inverted: lower bound)",
        json_number(baseline, "min_speedup_custody_vs_reference") / micro.speedup(),
        1.0,
    );
    gate(
        "cost_round_slowdown",
        micro.cost_slowdown(),
        json_number(baseline, "max_cost_round_slowdown"),
    );
    // Work counters are deterministic: any difference is a change in what
    // the dispatch loop does, so they must match exactly.
    for (label, measured) in [
        ("views_built", m.views_built),
        ("executors_scanned", m.executors_scanned),
    ] {
        let expected = json_number(baseline, label) as usize;
        let verdict = if measured == expected {
            "ok"
        } else {
            "CHANGED"
        };
        println!("  {label}: {measured} vs baseline {expected} (exact) {verdict}");
        failed |= measured != expected;
    }
    if failed {
        eprintln!(
            "scale-smoke FAILED: a budget regressed by more than 5% or a work counter changed"
        );
        std::process::exit(1);
    }
    println!("scale-smoke passed");
}

fn main() {
    let mut args = Args::from_env(USAGE);
    let mode = args.next_arg().unwrap_or_else(|| "--quick".into());
    match mode.as_str() {
        "--check" => {
            let micro = alloc_microbench(10_000, 16);
            check(&micro);
        }
        "--quick" | "--full" => {
            let full = mode == "--full";
            let mut cells = Vec::new();
            for &nodes in &[1_000usize, 10_000] {
                for &apps in &[4usize, 16, 64] {
                    cells.push(run_cell(nodes, apps, 2));
                }
            }
            if full {
                cells.push(run_cell(100_000, 64, 2));
            }
            let micro: Vec<MicroBench> = ROUND_SHAPES
                .iter()
                .map(|&(nodes, apps)| alloc_microbench(nodes, apps))
                .collect();
            for b in micro.iter().filter(|b| b.nodes == 10_000) {
                assert!(
                    b.speedup() >= 5.0,
                    "custody round must be at least 5x the reference at 10k nodes, got {:.1}x",
                    b.speedup()
                );
            }
            write_json(&cells, &micro, if full { "full" } else { "quick" });
        }
        other => args.fail(&format!("unknown mode {other:?}")),
    }
}
