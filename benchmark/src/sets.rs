//! Result sets: all five workloads, each in its own process, and the
//! comparison of two sets.

use crate::host;
use crate::metrics::{worsening, MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use crate::{out_dir, Opts};
use serde_json::{to_value, Map, Value};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Run every workload as a child of this executable and gather the last
/// line each prints. A child that fails stops the set.
fn run_set(opts: &Opts, trace: bool, label: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut workloads = Map::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &opts.cfg.seed.to_string()])
            .args(["--seconds", &opts.cfg.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--watchdog-secs", &opts.cfg.watchdog.as_secs().to_string()])
            .stdout(Stdio::piped());
        if opts.cfg.quick {
            cmd.arg("--quick");
        }
        eprintln!("[{label}] {} ...", w.name());
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        let last = text.lines().last().unwrap_or_default();
        let v: Value = serde_json::from_str(last)
            .map_err(|e| format!("{}: last line is not the result object: {e}", w.name()))?;
        workloads.insert(w.name().into(), v);
    }
    let mut set = Map::new();
    set.insert("fingerprint".into(), Value::Object(host::fingerprint()));
    set.insert("comparable".into(), to_value(&!opts.cfg.quick));
    set.insert("trace".into(), to_value(&trace));
    set.insert("seed".into(), to_value(&opts.cfg.seed));
    set.insert("seconds".into(), to_value(&opts.cfg.seconds));
    set.insert("workloads".into(), Value::Object(workloads));
    set.insert("claim".into(), Value::Null);
    let set = Value::Object(set);
    let path = out_dir().join(format!("set-{label}.json"));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| {
            let text = serde_json::to_string_pretty(&set).expect("set serializes");
            std::fs::write(&path, text + "\n")
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[{label}] wrote {}", path.display());
    Ok(set)
}

fn metric_value(set: &Value, workload: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn failed_ops(set: &Value) -> u64 {
    Workload::ALL
        .iter()
        .filter_map(|w| set.get("workloads")?.get(w.name())?.get("failed")?.as_u64())
        .sum()
}

/// One metric × workload that two sets disagree on by more than allowed.
#[derive(Debug, PartialEq)]
pub struct Violation {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
}

/// Compare two sets of the same kind (both untraced or both traced). With
/// `symmetric`, a metric may differ by its bound in neither direction (two
/// sets of the same code); otherwise only `b` being worse than `a` counts.
/// Exact per-layer metrics must be identical. Refuses sets from different
/// hosts and sets marked non-comparable.
pub fn compare(a: &Value, b: &Value, symmetric: bool) -> Result<Vec<Violation>, String> {
    let fp = |s: &Value| s.get("fingerprint").cloned().unwrap_or(Value::Null);
    if let Some(why) = host::mismatch(&fp(a), &fp(b)) {
        return Err(format!(
            "the sets come from different hosts or configurations ({why})"
        ));
    }
    for (s, which) in [(a, "first"), (b, "second")] {
        if s.get("comparable").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "the {which} set is a --quick smoke run, not a measurement"
            ));
        }
    }
    let traced = |s: &Value| s.get("trace").and_then(Value::as_bool);
    if traced(a) != traced(b) {
        return Err("one set is traced and the other is not".into());
    }
    let defs: &[MetricDef] = if traced(a) == Some(true) {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut out = Vec::new();
    println!(
        "{:<13} {:<28} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in Workload::ALL {
        for d in defs {
            let (Some(x), Some(y)) = (
                metric_value(a, w.name(), d.name),
                metric_value(b, w.name(), d.name),
            ) else {
                return Err(format!("{} lacks {} in one of the sets", w.name(), d.name));
            };
            let worse = worsening(d, x, y);
            let (limit, bad) = match (d.bound, d.exact) {
                (Some(bound), _) => (
                    format!("{bound:.2}"),
                    worse > bound || (symmetric && -worse > bound),
                ),
                (None, true) => ("exact".to_string(), x != y),
                (None, false) => continue,
            };
            println!(
                "{:<13} {:<28} {:>16.4} {:>16.4} {:>+8.1}% {:>7}{}",
                w.name(),
                d.name,
                x,
                y,
                worse * 100.0,
                limit,
                if bad { "  <-- outside" } else { "" }
            );
            if bad {
                out.push(Violation {
                    workload: w.name(),
                    metric: d.name,
                    a: x,
                    b: y,
                });
            }
        }
    }
    Ok(out)
}

fn summary_line(what: &str, sets: usize, failed: u64, violations: usize) -> String {
    format!(
        "{{\"mode\": \"{what}\", \"sets\": {sets}, \"workloads\": {}, \"failed_ops\": {failed}, \"outside_bounds\": {violations}, \"claim\": null}}",
        Workload::ALL.len()
    )
}

pub fn cmd_all(opts: &Opts) -> ExitCode {
    let label = if opts.cfg.trace { "traced" } else { "all" };
    match run_set(opts, opts.cfg.trace, label) {
        Ok(set) => {
            let failed = failed_ops(&set);
            println!("{}", summary_line("all", 1, failed, 0));
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mpmd-benchmark all: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Two full sets of the same build: every end-to-end metric must agree
/// within its bound on every workload, no operation may fail, and the traced
/// sets must agree exactly on every exact count.
pub fn cmd_selfcheck(opts: &Opts) -> ExitCode {
    let go = || -> Result<(usize, u64), String> {
        let a = run_set(opts, false, "selfcheck-a")?;
        let b = run_set(opts, false, "selfcheck-b")?;
        let ta = run_set(opts, true, "selfcheck-traced-a")?;
        let tb = run_set(opts, true, "selfcheck-traced-b")?;
        let failed = [&a, &b, &ta, &tb].into_iter().map(failed_ops).sum();
        if opts.cfg.quick {
            eprintln!("--quick sets are not comparable; only failures were checked");
            return Ok((0, failed));
        }
        let mut v = compare(&a, &b, true)?;
        v.extend(compare(&ta, &tb, true)?);
        for x in &v {
            eprintln!("outside its bound: {x:?}");
        }
        Ok((v.len(), failed))
    };
    match go() {
        Ok((violations, failed)) => {
            println!("{}", summary_line("selfcheck", 4, failed, violations));
            if violations == 0 && failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mpmd-benchmark selfcheck: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare a.json b.json`: is the second set worse than the first by more
/// than a bound anywhere?
pub fn cmd_compare(a: &str, b: &str) -> ExitCode {
    match load(a).and_then(|x| load(b).and_then(|y| compare(&x, &y, false))) {
        Ok(v) => {
            println!("{}", summary_line("compare", 2, 0, v.len()));
            if v.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mpmd-benchmark compare: refused: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic untraced set where every metric of every workload is `v`.
    fn set(v: f64, nproc_delta: u64, comparable: bool) -> Value {
        let mut fp = host::fingerprint();
        if nproc_delta != 0 {
            fp.insert(
                "nproc".into(),
                to_value(&(host::nproc() as u64 + nproc_delta)),
            );
        }
        let mut workloads = Map::new();
        for w in Workload::ALL {
            let mut metrics = Map::new();
            for d in &END_TO_END {
                let mut e = Map::new();
                e.insert("value".into(), to_value(&v));
                e.insert("unit".into(), to_value(d.unit));
                metrics.insert(d.name.into(), Value::Object(e));
            }
            let mut r = Map::new();
            r.insert("metrics".into(), Value::Object(metrics));
            r.insert("failed".into(), to_value(&0u64));
            workloads.insert(w.name().into(), Value::Object(r));
        }
        let mut s = Map::new();
        s.insert("fingerprint".into(), Value::Object(fp));
        s.insert("comparable".into(), to_value(&comparable));
        s.insert("trace".into(), to_value(&false));
        s.insert("workloads".into(), Value::Object(workloads));
        Value::Object(s)
    }

    #[test]
    fn equal_sets_agree_and_a_large_shift_is_flagged_per_metric_and_workload() {
        assert_eq!(
            compare(&set(100.0, 0, true), &set(104.0, 0, true), true),
            Ok(vec![])
        );
        // +30% is beyond every bound, the 0.25 of setup_s included.
        let v = compare(&set(100.0, 0, true), &set(130.0, 0, true), true).unwrap();
        assert_eq!(v.len(), Workload::ALL.len() * END_TO_END.len());
    }

    #[test]
    fn one_sided_comparison_ignores_improvements() {
        // Second set lower everywhere: worse only for the higher-is-better one.
        let v = compare(&set(100.0, 0, true), &set(70.0, 0, true), false).unwrap();
        assert!(v.iter().all(|x| x.metric == "ops_per_s"), "{v:?}");
        assert_eq!(v.len(), Workload::ALL.len());
    }

    #[test]
    fn refuses_other_hosts_and_quick_sets() {
        let e = compare(&set(1.0, 0, true), &set(1.0, 1, true), true).unwrap_err();
        assert!(e.contains("nproc"), "{e}");
        let e = compare(&set(1.0, 0, true), &set(1.0, 0, false), true).unwrap_err();
        assert!(e.contains("--quick"), "{e}");
    }

    #[test]
    fn summary_ends_with_a_null_claim() {
        assert!(summary_line("all", 1, 0, 0).ends_with("\"claim\": null}"));
    }
}
