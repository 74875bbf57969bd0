//! Regenerates the paper's evaluation figures from the simulator.
//!
//! ```text
//! cargo run --release -p custody-bench --bin figures -- all
//! cargo run --release -p custody-bench --bin figures -- fig7 fig8
//! cargo run --release -p custody-bench --bin figures -- --quick all
//! cargo run --release -p custody-bench --bin figures -- --jobs 10 --seed 7 fig10
//! ```
//!
//! Targets: `fig7` (which includes `fig7-fixed`), `fig8`, `fig9`,
//! `fig10`, then every entry of [`custody_bench::STUDIES`], and `all`.

use custody_bench::cli::Args;
use custody_bench::{
    fig10_table, fig7_table, fig8_table, fig9_table, paper_scenario, FigureOptions, STUDIES,
};

const USAGE: &str = "usage: figures [--quick] [--jobs <n>] [--seed <n>] [<target>...]
targets: fig7 fig7-fixed fig8 fig9 fig10 ablations chaos partition durability
         detector failslow demotion theory all (default: all)";

/// The figures drawn from the shared Figs. 7–10 sweep.
const PAPER: [&str; 4] = ["fig7", "fig8", "fig9", "fig10"];

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut opts = FigureOptions::default();
    let mut targets: Vec<String> = Vec::new();
    while let Some(a) = args.next_arg() {
        match a.as_str() {
            "--quick" => opts = FigureOptions::quick(),
            "--jobs" => opts.jobs_per_app = args.parse("--jobs"),
            "--seed" => opts.seed = args.parse("--seed"),
            t if t == "all" || PAPER.contains(&t) || STUDIES.iter().any(|(s, _)| *s == t) => {
                targets.push(a)
            }
            other => args.fail(&format!("unknown target or flag {other:?}")),
        }
    }
    let named = |t: &str| targets.iter().any(|x| x == t);
    let all = targets.is_empty() || named("all");
    let wants = |t: &str| all || named(t) || (t == "fig7-fixed" && named("fig7"));

    println!(
        "custody figures — jobs/app={} seed={} sizes={:?}\n",
        opts.jobs_per_app, opts.seed, opts.sizes
    );

    // Figs 7–10 share one sweep.
    if PAPER.iter().any(|t| wants(t)) {
        let sweep = paper_scenario(&opts.sizes, opts.jobs_per_app, opts.seed).run();
        let tables = [fig7_table(), fig8_table(), fig9_table(&opts), fig10_table()];
        for (t, table) in PAPER.iter().zip(&tables) {
            if wants(t) {
                println!("{}", table.draw(&sweep));
            }
        }
    }
    for (t, study) in STUDIES {
        if wants(t) {
            println!("{}", study(&opts));
        }
    }
}
