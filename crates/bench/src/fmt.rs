//! Plain-text table formatting for the experiment binaries, plus the shared
//! `--json <path>` machine-readable output flag.

use serde::Serialize;
use std::path::{Path, PathBuf};

/// Version of the `--json` report schema shared by every experiment binary.
/// Every top-level report object carries it as `"schema_version"`
/// (inserted by [`write_json`]); bump it when a field changes meaning or
/// shape so downstream consumers can detect incompatible output.
pub const SCHEMA_VERSION: u64 = 2;

/// Split a `--json <path>` flag off a raw argument list (everything after
/// the program name), returning the remaining positional arguments and the
/// requested output path. Every experiment binary accepts this flag and
/// writes its results as JSON next to the human-readable table.
pub fn take_json_flag(args: impl Iterator<Item = String>) -> (Vec<String>, Option<PathBuf>) {
    let mut rest = Vec::new();
    let mut json = None;
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--json" {
            let Some(p) = args.next() else {
                eprintln!("error: --json requires a path argument");
                eprintln!("usage: --json <path> (or --json=<path>)");
                std::process::exit(2);
            };
            json = Some(PathBuf::from(p));
        } else if let Some(p) = a.strip_prefix("--json=") {
            json = Some(PathBuf::from(p));
        } else {
            rest.push(a);
        }
    }
    (rest, json)
}

/// Split a bare switch (e.g. `--quick`) off a raw argument list, returning
/// the remaining arguments and whether the switch was present.
pub fn take_switch(args: impl IntoIterator<Item = String>, name: &str) -> (Vec<String>, bool) {
    let mut present = false;
    let rest = args
        .into_iter()
        .filter(|a| {
            if a == name {
                present = true;
                false
            } else {
                true
            }
        })
        .collect();
    (rest, present)
}

/// Print `error: <msg>` plus the binary's usage line and exit non-zero.
pub fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// Reject any argument no parser consumed. Every experiment binary calls
/// this after stripping its known flags, so an unknown or misspelled flag
/// fails loudly instead of silently running the default configuration.
/// `-h`/`--help` print the usage line and exit zero.
pub fn reject_unknown_args(rest: &[String], usage: &str) {
    if rest.iter().any(|a| a == "-h" || a == "--help") {
        println!("usage: {usage}");
        std::process::exit(0);
    }
    if let Some(a) = rest.first() {
        usage_error(&format!("unrecognized argument '{a}'"), usage);
    }
}

/// Parse an optional leading positional count (e.g. an iteration count),
/// exiting with the usage line on malformed input instead of silently
/// substituting the default.
pub fn take_count(args: Vec<String>, default: usize, usage: &str) -> (Vec<String>, usize) {
    match args.split_first() {
        // Leave help requests for `reject_unknown_args` to answer.
        Some((first, rest)) if first != "-h" && first != "--help" => match first.parse() {
            Ok(n) => (rest.to_vec(), n),
            Err(_) => usage_error(&format!("invalid count '{first}'"), usage),
        },
        _ => (args, default),
    }
}

/// A report row of a `--json` output: the type lists its fields once and
/// gets the object assembly (and the alphabetical key order guaranteed by
/// the `BTreeMap`-backed [`serde_json::Map`]) from the default method.
/// `experiments::golden_tests` pins the rendered bytes against a golden.
pub trait JsonReport {
    /// The object's (key, value) fields. Order is irrelevant — rendering
    /// sorts keys — so implementors list identity fields first for
    /// readability.
    fn json_fields(&self) -> Vec<(&'static str, serde_json::Value)>;

    /// The JSON object written by the binaries' `--json` flag.
    fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        for (k, v) in self.json_fields() {
            m.insert(k.to_string(), v);
        }
        serde_json::Value::Object(m)
    }
}

/// A JSON object keyed by cost-bucket label ([`mpmd_sim::Bucket::label`]),
/// one entry per bucket — the shape every per-bucket breakdown uses.
pub fn bucket_object(f: impl Fn(mpmd_sim::Bucket) -> serde_json::Value) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    for b in mpmd_sim::Bucket::ALL {
        m.insert(b.label().to_string(), f(b));
    }
    serde_json::Value::Object(m)
}

/// Write a JSON value to `path` (creating parent directories), with a
/// trailing newline. Used by the experiment binaries for `--json` output.
/// Top-level objects are stamped with [`SCHEMA_VERSION`] as
/// `"schema_version"` so every report self-identifies its format.
pub fn write_json(path: &Path, value: &serde_json::Value) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        }
    }
    let stamped;
    let value = match value {
        serde_json::Value::Object(m) => {
            let mut m = m.clone();
            m.insert("schema_version".to_string(), SCHEMA_VERSION.to_value());
            stamped = serde_json::Value::Object(m);
            &stamped
        }
        other => other,
    };
    let mut text = serde_json::to_string_pretty(value).expect("JSON serialization failed");
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// Render a fixed-width table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Format a µs value with one decimal, or `-` for absent entries.
pub fn us(v: Option<f64>) -> String {
    match v {
        Some(v) if v >= 100.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.1}"),
        None => "-".to_string(),
    }
}

/// Format a count with one decimal.
pub fn cnt(v: f64) -> String {
    if (v - v.round()).abs() < 0.05 {
        format!("{:.0}", v.round())
    } else {
        format!("{v:.1}")
    }
}

/// Format seconds with three decimals.
pub fn secs(v: f64) -> String {
    format!("{v:.3}")
}

/// Segment glyphs for the five breakdown components, in the paper's order
/// (cpu, net, thread mgmt, thread sync, runtime).
pub const BAR_GLYPHS: [char; 5] = ['█', '░', '▓', '▒', '◆'];

/// Legend line for [`stacked_bar`].
pub fn bar_legend() -> String {
    let labels = ["cpu", "net", "thread mgmt", "thread sync", "runtime"];
    BAR_GLYPHS
        .iter()
        .zip(labels)
        .map(|(g, l)| format!("{g} {l}"))
        .collect::<Vec<_>>()
        .join("   ")
}

/// Render one stacked bar: `components` are the five cost components, and
/// `len` is the total bar length in characters (callers scale it by the
/// normalized height, reproducing the paper's normalized stacked-bar
/// figures). Segments are rounded to whole characters but always sum to
/// `len` when `len > 0`.
pub fn stacked_bar(components: [u64; 5], len: usize) -> String {
    let total: u64 = components.iter().sum();
    if total == 0 || len == 0 {
        return String::new();
    }
    let mut widths = [0usize; 5];
    let mut assigned = 0usize;
    for i in 0..5 {
        widths[i] = (components[i] as u128 * len as u128 / total as u128) as usize;
        assigned += widths[i];
    }
    // Distribute rounding leftovers to the largest remainders.
    let mut order: Vec<usize> = (0..5).collect();
    order.sort_by_key(|&i| {
        std::cmp::Reverse(components[i] as u128 * len as u128 % total.max(1) as u128)
    });
    let mut leftover = len.saturating_sub(assigned);
    for &i in &order {
        if leftover == 0 {
            break;
        }
        if components[i] > 0 {
            widths[i] += 1;
            leftover -= 1;
        }
    }
    let mut out = String::with_capacity(len * 3);
    for i in 0..5 {
        for _ in 0..widths[i] {
            out.push(BAR_GLYPHS[i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn take_switch_strips_all_occurrences() {
        let argv = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (rest, on) = take_switch(argv(&["--quick", "5", "--quick"]), "--quick");
        assert!(on);
        assert_eq!(rest, vec!["5"]);
        let (rest, on) = take_switch(argv(&["5"]), "--quick");
        assert!(!on);
        assert_eq!(rest, vec!["5"]);
    }

    #[test]
    fn reject_unknown_args_accepts_empty() {
        reject_unknown_args(&[], "prog [--quick]");
    }

    #[test]
    fn take_count_parses_and_defaults() {
        let (rest, n) = take_count(vec!["7".into(), "x".into()], 100, "prog [iters]");
        assert_eq!((rest, n), (vec!["x".to_string()], 7));
        let (rest, n) = take_count(vec![], 100, "prog [iters]");
        assert!(rest.is_empty());
        assert_eq!(n, 100);
    }

    #[test]
    fn us_formatting() {
        assert_eq!(us(Some(55.0)), "55.0");
        assert_eq!(us(Some(154.3)), "154");
        assert_eq!(us(None), "-");
    }

    #[test]
    fn cnt_formatting() {
        assert_eq!(cnt(2.0), "2");
        assert_eq!(cnt(2.349), "2.3");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn stacked_bar_fills_exactly_len() {
        let bar = stacked_bar([10, 20, 5, 5, 10], 40);
        assert_eq!(bar.chars().count(), 40);
        let bar = stacked_bar([1, 1, 1, 1, 1], 7);
        assert_eq!(bar.chars().count(), 7);
    }

    #[test]
    fn stacked_bar_is_empty_for_zero() {
        assert_eq!(stacked_bar([0; 5], 40), "");
        assert_eq!(stacked_bar([1, 2, 3, 4, 5], 0), "");
    }

    #[test]
    fn stacked_bar_proportions_roughly_hold() {
        let bar = stacked_bar([50, 50, 0, 0, 0], 10);
        let cpu = bar.chars().filter(|&c| c == BAR_GLYPHS[0]).count();
        let net = bar.chars().filter(|&c| c == BAR_GLYPHS[1]).count();
        assert_eq!(cpu, 5);
        assert_eq!(net, 5);
    }

    #[test]
    fn legend_mentions_all_components() {
        let l = bar_legend();
        for name in ["cpu", "net", "thread mgmt", "thread sync", "runtime"] {
            assert!(l.contains(name));
        }
    }
}
