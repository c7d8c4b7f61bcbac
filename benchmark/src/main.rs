//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! mpmd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mpmd-benchmark all [--trace] [--quick] [--seed N] [--seconds S]
//! mpmd-benchmark selfcheck [--quick] [--seed N] [--seconds S]
//! mpmd-benchmark compare <set-a.json> <set-b.json>
//! ```

mod harness;
mod host;
mod metrics;
mod run;
mod rungs;
mod sets;
mod spans;
mod stats;
mod workloads;

use harness::Config;
use std::process::ExitCode;
use std::time::Duration;
use workloads::Workload;

const USAGE: &str = "usage:
  mpmd-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--watchdog-secs S]
  mpmd-benchmark all [--trace [0|1]] [--quick] [--seed N] [--seconds S]
  mpmd-benchmark selfcheck [--quick] [--seed N] [--seconds S]
  mpmd-benchmark compare <set-a.json> <set-b.json>
workloads: sim_micro sim_apps local_rtt local_stream local_em3d";

/// `run_seconds` of `BENCHMARK.json`: how long one run measures by default.
pub const DEFAULT_SECONDS: u64 = 20;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 42;

/// Where records, result sets and traces go: `benchmark/out/`.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Parsed command-line options shared by every mode.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Option<String>,
    pub cfg: Config,
    pub rest: Vec<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        cfg: Config {
            seed: DEFAULT_SEED,
            trace: false,
            quick: false,
            seconds: DEFAULT_SECONDS as f64,
            watchdog: Duration::from_secs(60),
        },
        rest: Vec::new(),
    };
    let mut it = args.iter().peekable();
    fn value<'a>(
        it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => o.workload = Some(value(&mut it, a)?.clone()),
            "--seed" => {
                o.cfg.seed = value(&mut it, a)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, a)?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                o.cfg.seconds = s;
            }
            "--watchdog-secs" => {
                let s: u64 = value(&mut it, a)?
                    .parse()
                    .map_err(|_| "--watchdog-secs needs a whole number".to_string())?;
                o.cfg.watchdog = Duration::from_secs(s.max(1));
            }
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                o.cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => o.cfg.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => o.rest.push(other.to_string()),
        }
    }
    Ok(o)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("mpmd-benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("all" | "selfcheck" | "compare")) => (m, &args[1..]),
        _ => ("run", &args[..]),
    };
    let opts = match parse(rest) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    match mode {
        "all" if opts.rest.is_empty() => sets::cmd_all(&opts),
        "selfcheck" if opts.rest.is_empty() => sets::cmd_selfcheck(&opts),
        "compare" if opts.rest.len() == 2 => sets::cmd_compare(&opts.rest[0], &opts.rest[1]),
        "run" if opts.rest.is_empty() => {
            let Some(name) = opts.workload.as_deref() else {
                return usage_error("no --workload given");
            };
            match Workload::from_name(name) {
                Some(w) => run::cmd_run(w, &opts.cfg),
                None => usage_error(&format!("unknown workload {name:?}")),
            }
        }
        _ => usage_error("unexpected arguments"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse(&args(
            "--workload local_rtt --seed 7 --seconds 12 --trace 0",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("local_rtt"));
        assert_eq!((o.cfg.seed, o.cfg.seconds, o.cfg.trace), (7, 12.0, false));
        let o = parse(&args("--workload sim_apps --seed 1 --seconds 3 --trace 1")).unwrap();
        assert!(o.cfg.trace);
    }

    #[test]
    fn bare_trace_flag_and_defaults() {
        let o = parse(&args("--trace --quick")).unwrap();
        assert!(o.cfg.trace && o.cfg.quick);
        assert_eq!(
            (o.cfg.seed, o.cfg.seconds),
            (DEFAULT_SEED, DEFAULT_SECONDS as f64)
        );
        assert_eq!(o.cfg.watchdog, Duration::from_secs(60));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seconds")).is_err());
        assert!(parse(&args("--seed x")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
