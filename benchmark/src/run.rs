//! One workload, one process: set-up, the measured repetitions under the
//! watchdog, the traced pass, and the result in the driver's format.

use crate::harness::{guarded, Config, Failure, RepOut};
use crate::host;
use crate::metrics::{END_TO_END, ISSUE_NAMES, PER_LAYER};
use crate::out_dir;
use crate::spans::{self, now_ns, Recorder};
use crate::stats::{median, summarize, Summary};
use crate::workloads::{self, Inputs, Workload};
use serde_json::{to_value, Map, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Repetitions are cut before anything else when time is short, but never
/// below this (issue, "Acceptance criteria").
const MIN_REPS: usize = 5;
/// Share of `--seconds` a traced run gives the named workload's own
/// repetitions; the ladder and the other workloads' probe repetitions take
/// the rest.
const TRACED_OWN_SHARE: f64 = 0.4;
/// How far past its time budget a run may go to finish its fixed repetition
/// count.
const OVERRUN: f64 = 1.5;

/// Everything one run collected; written out even when the run is cut short.
#[derive(Default)]
struct Collected {
    setup_s: Vec<f64>,
    /// Repetitions with span recording off, in order.
    plain: Vec<RepOut>,
    /// Repetitions with span recording on (traced runs only).
    traced: Vec<RepOut>,
    /// Set-up checks of the named workload.
    checks: RepOut,
    /// Ladder pass and one probe repetition of every other workload.
    layers: Vec<RepOut>,
    /// Operations of a repetition that hung or panicked.
    lost_ops: u64,
    error: Option<String>,
}

impl Collected {
    fn parts(&self) -> impl Iterator<Item = &RepOut> {
        self.plain
            .iter()
            .chain(&self.traced)
            .chain(&self.layers)
            .chain(std::iter::once(&self.checks))
    }

    fn attempted(&self) -> u64 {
        self.parts().map(|r| r.attempted).sum::<u64>() + self.lost_ops
    }

    fn failed(&self) -> u64 {
        self.parts().map(|r| r.failed).sum::<u64>() + self.lost_ops
    }
}

fn run_rep(
    w: Workload,
    inputs: &Arc<Inputs>,
    traced: bool,
    idx: usize,
    cfg: &Config,
) -> Result<RepOut, Failure> {
    let inp = Arc::clone(inputs);
    guarded(cfg.watchdog, move || {
        let mut rec = Recorder::new(traced, &format!("{}#{idx}", w.name()), None);
        let out = w.rep(&inp, &mut rec);
        rec.finish();
        out
    })
}

fn set_up(w: Workload, cfg: &Config, times: usize, c: &mut Collected) -> Option<Arc<Inputs>> {
    let mut inputs = None;
    for i in 0..times {
        let cfg2 = cfg.clone();
        let t0 = now_ns();
        match guarded(cfg.watchdog, move || w.setup(&cfg2)) {
            Ok(inp) => {
                c.setup_s.push((now_ns() - t0) as f64 / 1e9);
                inputs = Some(inp);
            }
            Err(f) => {
                c.lost_ops += 1;
                c.error = Some(format!("{} set-up {}: {f}", w.name(), i + 1));
                return None;
            }
        }
    }
    inputs.map(Arc::new)
}

/// A simulator repetition whose digest differs from the first one's did not
/// compute the same thing: all its operations count as failed.
fn check_digest(first: &mut Option<u64>, out: &mut RepOut) {
    if let Some(d) = out.digest {
        if *first.get_or_insert(d) != d {
            out.failed = out.attempted;
        }
    }
}

fn measure(w: Workload, cfg: &Config) -> Collected {
    let mut c = Collected::default();
    let Some(inputs) = set_up(w, cfg, if cfg.quick { 1 } else { SETUPS }, &mut c) else {
        return c;
    };
    c.checks = inputs.checks.clone();

    let budget = cfg.seconds * if cfg.trace { TRACED_OWN_SHARE } else { 1.0 };
    let min_reps = match (cfg.quick, cfg.trace) {
        (true, false) => 1,
        (true, true) => 2,
        (false, true) => 4,
        (false, false) => MIN_REPS,
    };
    // The repetition count is fixed by `--seconds`, not by the clock: the
    // simulator keeps memory from every `Sim` it has run and slows down once
    // enough has piled up (Figure 5 + 6 passes take 2.3 s for the first six
    // and 3 s from the seventh on, in every run), so a count that moved with
    // the host's speed would move the median with it. The clock only cuts a
    // run short on a host far slower than the one the sizes were set on.
    let reps = if cfg.quick {
        min_reps
    } else {
        min_reps.max((budget / w.nominal_rep_s()).round() as usize)
    };
    let start = Instant::now();
    let mut first_digest = None;
    let mut i = 0;
    while i < min_reps || (i < reps && start.elapsed().as_secs_f64() < budget * OVERRUN) {
        // Traced and untraced repetitions alternate, so drift hits both.
        let traced = cfg.trace && i % 2 == 1;
        host::reset_peak_rss();
        match run_rep(w, &inputs, traced, i, cfg) {
            Ok(mut out) => {
                if let Some(rss) = host::peak_rss_mib() {
                    out.put("bench.rep_peak_rss_mb", rss);
                }
                check_digest(&mut first_digest, &mut out);
                if traced { &mut c.traced } else { &mut c.plain }.push(out);
            }
            Err(f) => {
                c.lost_ops += c.plain.first().map_or(1, |r| r.attempted);
                c.error = Some(format!("{} rep {}: {f}", w.name(), i + 1));
                return c;
            }
        }
        i += 1;
    }
    if cfg.trace {
        if let Err(e) = traced_pass(w, cfg, &mut c) {
            c.lost_ops += 1;
            c.error = Some(e);
        }
    }
    c
}

/// The per-layer pass of a traced run: the full ladder once, then one traced
/// repetition of every other workload, so that each run measures every
/// per-layer metric itself. An error names what hung or panicked.
fn traced_pass(w: Workload, cfg: &Config, c: &mut Collected) -> Result<(), String> {
    let cfg2 = cfg.clone();
    let ladder = guarded(cfg.watchdog, move || {
        let mut rec = Recorder::new(true, "ladder", None);
        let out = workloads::ladder(&cfg2, &mut rec);
        rec.finish();
        out
    });
    c.layers.push(ladder.map_err(|f| format!("ladder: {f}"))?);
    for other in Workload::ALL.into_iter().filter(|o| *o != w) {
        let mut side = Collected::default();
        let Some(inputs) = set_up(other, cfg, 1, &mut side) else {
            return Err(side.error.unwrap_or_default());
        };
        c.layers.push(inputs.checks.clone());
        let rep = run_rep(other, &inputs, true, 0, cfg);
        c.layers
            .push(rep.map_err(|f| format!("{} probe rep: {f}", other.name()))?);
    }
    Ok(())
}

/// Median across repetitions of every per-rep statistic.
fn summaries(reps: &[RepOut]) -> BTreeMap<&'static str, Summary> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in reps {
        for (name, v) in &r.values {
            by_name.entry(name).or_default().push(*v);
        }
    }
    by_name
        .into_iter()
        .filter_map(|(k, v)| summarize(&v).map(|s| (k, s)))
        .collect()
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    c: &Collected,
    plain: &BTreeMap<&'static str, Summary>,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    if let Some(s) = median(&c.setup_s) {
        m.insert("setup_s", s);
    }
    for d in &END_TO_END {
        if let Some(s) = plain.get(d.name) {
            m.insert(d.name, s.median);
        }
    }
    m
}

/// The per-layer metrics of a traced run. The ladder's values come first so
/// that rung deltas and the rungs they were taken from stay consistent; the
/// named workload's medians and the probe repetitions fill in the rest.
fn per_layer(
    c: &Collected,
    plain: &BTreeMap<&'static str, Summary>,
    traced: &BTreeMap<&'static str, Summary>,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let sources = c
        .layers
        .iter()
        .flat_map(|r| r.values.iter().copied())
        .chain(traced.iter().map(|(k, s)| (*k, s.median)))
        .chain(c.checks.values.iter().copied());
    for (name, v) in sources {
        m.entry(name).or_insert(v);
    }
    if let (Some(t), Some(p)) = (traced.get("wall_s"), plain.get("wall_s")) {
        m.insert("bench.trace_overhead_frac", t.median / p.median - 1.0);
        m.insert("bench.rep_wall_s", p.median);
    }
    m.retain(|name, _| crate::metrics::per_layer(name).is_some());
    m
}

fn metrics_json(values: &BTreeMap<&'static str, f64>, defs: &[crate::metrics::MetricDef]) -> Value {
    let mut m = Map::new();
    for d in defs {
        if let Some(v) = values.get(d.name) {
            let mut e = Map::new();
            e.insert("value".into(), to_value(v));
            e.insert("unit".into(), to_value(d.unit));
            m.insert(d.name.into(), Value::Object(e));
        }
    }
    Value::Object(m)
}

fn summary_json(s: &BTreeMap<&'static str, Summary>) -> Value {
    let mut m = Map::new();
    for (k, v) in s {
        let mut e = Map::new();
        e.insert("median".into(), to_value(&v.median));
        e.insert("min".into(), to_value(&v.min));
        e.insert("max".into(), to_value(&v.max));
        e.insert("reps".into(), to_value(&v.n));
        m.insert((*k).into(), Value::Object(e));
    }
    Value::Object(m)
}

fn print_table(title: &str, s: &BTreeMap<&'static str, Summary>) {
    println!("{title}");
    println!(
        "  {:<34} {:>16} {:>16} {:>16} {:>5}",
        "statistic", "median", "min", "max", "reps"
    );
    for (k, v) in s {
        println!(
            "  {:<34} {:>16.3} {:>16.3} {:>16.3} {:>5}",
            k, v.median, v.min, v.max, v.n
        );
    }
}

/// Write the Chrome trace and return the span totals by name.
fn write_trace(w: Workload, threads: &[spans::ThreadTrace]) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.trace.json", w.name()));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let omitted = spans::write_chrome(&mut f, threads)?;
    f.flush()?;
    if omitted > 0 {
        eprintln!(
            "{}: {omitted} spans beyond the per-file cap were left out",
            path.display()
        );
    }
    Ok(path)
}

fn print_span_table(threads: &[spans::ThreadTrace]) {
    let totals = spans::totals_by_name(threads);
    let dropped: u64 = threads.iter().map(|t| t.dropped).sum();
    println!("spans (self = span minus its children; layer = name before the dot)");
    println!(
        "  {:<28} {:>9} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in &totals {
        println!(
            "  {:<28} {:>9} {:>14.3} {:>14.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
        *by_layer.entry(spans::layer_of(name)).or_default() += t.self_ns;
    }
    for (layer, ns) in by_layer {
        println!("  layer {layer:<22} self {:>14.3} ms", ns as f64 / 1e6);
    }
    println!("  spans dropped by full thread buffers: {dropped}");
}

/// Run workload `w` and print the result; the last line of standard output
/// is the driver's JSON object.
pub fn cmd_run(w: Workload, cfg: &Config) -> ExitCode {
    // Fix the span epoch before anything is timed.
    now_ns();
    let fingerprint = host::fingerprint();
    let c = measure(w, cfg);

    let plain = summaries(&c.plain);
    let traced = summaries(&c.traced);
    let (values, defs): (_, &[_]) = if cfg.trace {
        (per_layer(&c, &plain, &traced), &PER_LAYER)
    } else {
        (end_to_end(&c, &plain), &END_TO_END)
    };
    let missing: Vec<&str> = defs
        .iter()
        .map(|d| d.name)
        .filter(|n| !values.contains_key(n))
        .collect();
    let (attempted, failed) = (c.attempted().max(1), c.failed());
    let correct = failed == 0 && c.error.is_none() && missing.is_empty();

    println!("{}: {}", w.name(), w.why());
    println!(
        "== {} (seed {}, {} s, trace {}, {}) ==",
        w.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        if cfg.quick {
            "QUICK: not comparable"
        } else {
            "full size"
        }
    );
    print_table("repetitions, span recording off", &plain);
    if cfg.trace {
        print_table("repetitions, span recording on", &traced);
        let threads = spans::take_all();
        print_span_table(&threads);
        match write_trace(w, &threads) {
            Ok(p) => println!("chrome trace: {}", p.display()),
            Err(e) => eprintln!("could not write the chrome trace: {e}"),
        }
    }
    for (alias, detail, unit, workload) in ISSUE_NAMES {
        if workload == w.name() {
            if let Some(s) = plain.get(detail) {
                println!("  {alias} = {} {unit}   (= {detail})", s.median);
            }
        }
    }
    println!(
        "  failed_frac = {} ratio   ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    if let Some(d) = c.plain.first().and_then(|r| r.digest) {
        println!("  result digest {d:016x} (every repetition must reproduce it)");
    }

    let mut result = Map::new();
    result.insert("correct".into(), to_value(&correct));
    result.insert("attempted".into(), to_value(&attempted));
    result.insert("failed".into(), to_value(&failed));
    result.insert("metrics".into(), metrics_json(&values, defs));

    // The full record beside the trace: fingerprint, sizes, every statistic.
    let mut record = result.clone();
    record.insert("workload".into(), to_value(w.name()));
    record.insert("fingerprint".into(), Value::Object(fingerprint));
    record.insert("seed".into(), to_value(&cfg.seed));
    record.insert("seconds".into(), to_value(&cfg.seconds));
    record.insert("trace".into(), to_value(&cfg.trace));
    record.insert("comparable".into(), to_value(&!cfg.quick));
    record.insert("setup_s_samples".into(), to_value(&c.setup_s));
    record.insert("reps_plain".into(), summary_json(&plain));
    let mut per_rep = Map::new();
    for name in ["wall_s", "ops_per_s", "op_ns"] {
        let series: Vec<f64> = c.plain.iter().filter_map(|r| r.get(name)).collect();
        per_rep.insert(name.into(), to_value(&series));
    }
    record.insert("per_rep".into(), Value::Object(per_rep));
    record.insert("reps_traced".into(), summary_json(&traced));
    if let Some(e) = &c.error {
        record.insert("error".into(), to_value(e));
    }
    record.insert("claim".into(), Value::Null);
    let suffix = if cfg.trace { ".layers" } else { "" };
    let path = out_dir().join(format!("{}{suffix}.json", w.name()));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
        let text = serde_json::to_string_pretty(&Value::Object(record)).expect("record serializes");
        std::fs::write(&path, text + "\n")
    });
    match written {
        Ok(()) => println!("record: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    if let Some(e) = &c.error {
        // A hung rep's threads cannot be stopped: say what was lost, leave
        // the partial record on disk, and end the process.
        eprintln!(
            "mpmd-benchmark: {e}; partial results kept in {}",
            path.display()
        );
        std::process::exit(3);
    }
    if !missing.is_empty() {
        eprintln!("mpmd-benchmark: no value measured for {missing:?}");
        return ExitCode::from(4);
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("result serializes")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall: f64, digest: Option<u64>) -> RepOut {
        let mut r = RepOut {
            attempted: 10,
            digest,
            ..RepOut::default()
        };
        r.put("wall_s", wall);
        r.put("ccxx.rmi_p50_ns", wall * 1e3);
        r
    }

    #[test]
    fn summaries_take_the_median_across_reps() {
        let s = summaries(&[rep(3.0, None), rep(1.0, None), rep(2.0, None)]);
        assert_eq!(s["wall_s"].median, 2.0);
        assert_eq!(
            (s["wall_s"].min, s["wall_s"].max, s["wall_s"].n),
            (1.0, 3.0, 3)
        );
        assert_eq!(s["ccxx.rmi_p50_ns"].median, 2000.0);
    }

    #[test]
    fn a_rep_with_a_different_digest_fails_all_its_ops() {
        let mut first = None;
        let mut a = rep(1.0, Some(7));
        let mut b = rep(1.0, Some(7));
        let mut c = rep(1.0, Some(8));
        check_digest(&mut first, &mut a);
        check_digest(&mut first, &mut b);
        check_digest(&mut first, &mut c);
        assert_eq!((a.failed, b.failed, c.failed), (0, 0, 10));
    }

    #[test]
    fn per_layer_prefers_the_ladder_and_reports_trace_overhead() {
        let mut ladder = RepOut::default();
        ladder.put("ccxx.rmi_p50_ns", 7000.0);
        ladder.put("not.a.metric", 1.0);
        let c = Collected {
            plain: vec![rep(2.0, None)],
            traced: vec![rep(2.2, None)],
            layers: vec![ladder],
            ..Collected::default()
        };
        let m = per_layer(&c, &summaries(&c.plain), &summaries(&c.traced));
        assert_eq!(m["ccxx.rmi_p50_ns"], 7000.0);
        assert!((m["bench.trace_overhead_frac"] - 0.1).abs() < 1e-9);
        assert!(!m.contains_key("not.a.metric") && !m.contains_key("wall_s"));
    }

    #[test]
    fn lost_ops_count_as_attempted_and_failed() {
        let c = Collected {
            plain: vec![rep(1.0, None)],
            lost_ops: 10,
            ..Collected::default()
        };
        assert_eq!((c.attempted(), c.failed()), (20, 10));
    }
}
