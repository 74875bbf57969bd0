//! Command-line entry point; see the README.

use std::fmt::Write as _;
use std::process::ExitCode;

use custody_simbench::measure::{self, Options};
use custody_simbench::workloads::Workload;

const USAGE: &str = "usage: simbench --workload <scale-wide|stream-mixed|fault-storm> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = measure::run(&opts);

    if opts.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.tsv", opts.workload.name(), opts.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, outcome.tracer.to_tsv()));
        match written {
            Ok(()) => println!("spans: {} written to {path}", outcome.tracer.spans().len()),
            Err(e) => eprintln!("simbench: could not write {path}: {e}"),
        }
    }
    println!(
        "allocator replay: {:.3} s, outside the measured window",
        outcome.replay_secs
    );
    println!(
        "samples: {} untraced passes, {} runs attempted",
        outcome.passes, outcome.attempted
    );
    println!(
        "host speed: over {} probe calls, the 10th percentile took {:.3}x and the \
         median {:.3}x the reference time; end-to-end host times are divided by \
         the first, per-layer ones by the second",
        outcome.probe_calls, outcome.slowdown.0, outcome.slowdown.1
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<30} {value:>16.6} {unit}");
    }
    for failure in &outcome.failures {
        eprintln!("simbench: check failed: {failure}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
    );
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let opts = parse_args(&args(&[
            "--workload",
            "fault-storm",
            "--seed",
            "9",
            "--seconds",
            "30",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(opts.workload, Workload::FaultStorm);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.seconds, 30.0);
        assert!(opts.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        let full = [
            "--workload",
            "scale-wide",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
        ];
        assert!(parse_args(&args(&full)).is_ok());
        for (at, bad) in [
            (1, "no-such-workload"),
            (3, "-1"),
            (5, "0"),
            (5, "601"),
            (7, "2"),
        ] {
            let mut broken = full;
            broken[at] = bad;
            assert!(parse_args(&args(&broken)).is_err(), "{bad} accepted");
        }
        assert!(
            parse_args(&args(&full[..6])).is_err(),
            "missing --trace accepted"
        );
        assert!(
            parse_args(&args(&full[..7])).is_err(),
            "flag without value accepted"
        );
        assert!(parse_args(&args(&["--verbose", "1"])).is_err());
    }
}
