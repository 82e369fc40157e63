//! The whole-benchmark command, its `result.json`, the recorded
//! environment, and `compare`.

use std::path::Path;
use std::process::Command;
use std::time::SystemTime;

use mcs::prof::JsonValue;

use crate::e2e::{Options, Paths};
use crate::json::Json;
use crate::stats::{self, Summary};
use crate::workload::Workload;
use crate::{run_pass, PassResult};

fn newest_mtime(dir: &Path, newest: &mut Option<SystemTime>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            newest_mtime(&path, newest);
        } else if let Ok(t) = entry.metadata().and_then(|m| m.modified()) {
            *newest = Some(newest.map_or(t, |n| n.max(t)));
        }
    }
}

/// Refuse to measure a binary older than the sources it claims to be.
pub fn check_binary_is_fresh(paths: &Paths) -> Result<(), String> {
    let built = std::fs::metadata(&paths.mcs_bin)
        .and_then(|m| m.modified())
        .map_err(|e| {
            format!(
                "{}: {e} (build it with `cargo build --release --bin mcs`, or use benchmark/run.sh)",
                paths.mcs_bin.display()
            )
        })?;
    let root = paths.bench_dir.join("..");
    let mut newest = None;
    newest_mtime(&root.join("src"), &mut newest);
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for c in crates.flatten() {
            newest_mtime(&c.path().join("src"), &mut newest);
        }
    }
    match newest {
        Some(source) if source > built => Err(format!(
            "{} is older than the sources under src/ or crates/*/src/: rebuild before measuring",
            paths.mcs_bin.display()
        )),
        _ => Ok(()),
    }
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn unix_seconds(t: SystemTime) -> f64 {
    t.duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// The host and build a result belongs to.
fn environment(paths: &Paths) -> Json {
    let unknown = || "unknown".to_string();
    let root = paths.bench_dir.join("..");
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let cache = |level: &str| {
        (0..8)
            .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
            .find(|dir| {
                std::fs::read_to_string(format!("{dir}/level")).is_ok_and(|l| l.trim() == level)
                    && std::fs::read_to_string(format!("{dir}/type"))
                        .is_ok_and(|t| t.trim() != "Instruction")
            })
            .and_then(|dir| std::fs::read_to_string(format!("{dir}/size")).ok())
            .map_or_else(unknown, |s| s.trim().to_string())
    };
    let mtime = std::fs::metadata(&paths.mcs_bin)
        .and_then(|m| m.modified())
        .map_or(0.0, unix_seconds);
    Json::obj([
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"], &root).unwrap_or_else(unknown)),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("l2", Json::Str(cache("2"))),
        ("l3", Json::Str(cache("3"))),
        ("mcs_bin", Json::Str(paths.mcs_bin.display().to_string())),
        ("mcs_bin_mtime_unix_s", Json::Num(mtime)),
    ])
}

fn pass_json(result: &PassResult) -> (Json, Json) {
    let checks = Json::Arr(
        result
            .checks
            .iter()
            .map(|(name, ok)| Json::obj([("name", Json::str(name)), ("ok", Json::Bool(*ok))]))
            .collect(),
    );
    (checks, Json::Obj(result.info.clone()))
}

/// One end-to-end metric over the untraced runs of a workload. With two
/// or more runs the quartiles are those of the runs' values; with one
/// run they are those of the repetitions inside it.
fn end_to_end_json(name: &str, runs: &[PassResult]) -> Json {
    let of_run = |r: &PassResult| {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .expect("every untraced pass reports every end-to-end metric")
            .clone()
    };
    let values: Vec<f64> = runs.iter().map(|r| of_run(r).value).collect();
    let first = of_run(&runs[0]);
    let (summary, spread_from) = match (values.len(), first.samples) {
        (1, Some(within)) => (within, "repetitions"),
        _ => (Summary::of(&values), "runs"),
    };
    Json::obj([
        ("unit", Json::str(first.unit)),
        ("value", Json::Num(stats::median(&values))),
        ("median", Json::Num(summary.median)),
        ("q1", Json::Num(summary.q1)),
        ("q3", Json::Num(summary.q3)),
        ("n", Json::Num(summary.n as f64)),
        ("spread_from", Json::str(spread_from)),
        (
            "runs",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

fn workload_json(w: &Workload, untraced: &[PassResult], traced: &PassResult) -> Json {
    let attempted: usize = untraced.iter().map(|r| r.attempted).sum();
    let failed: usize = untraced.iter().map(|r| r.failed).sum();
    let end_to_end = Json::Obj(
        untraced[0]
            .metrics
            .iter()
            .map(|m| (m.name.clone(), end_to_end_json(&m.name, untraced)))
            .collect(),
    );
    let per_layer = Json::Obj(
        traced
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("unit", Json::str(m.unit)), ("value", Json::Num(m.value))]),
                )
            })
            .collect(),
    );
    let (untraced_checks, info) = pass_json(&untraced[0]);
    let (traced_checks, traced_info) = pass_json(traced);
    Json::obj([
        ("why", Json::str(w.why)),
        (
            "correct",
            Json::Bool(untraced.iter().all(|r| r.correct) && traced.correct),
        ),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "failed_share",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("prefault_mb", Json::Num(w.prefault_mb as f64)),
        ("end_to_end", end_to_end),
        ("per_layer", per_layer),
        ("untraced_checks", untraced_checks),
        ("traced_checks", traced_checks),
        ("info", info),
        ("traced_info", traced_info),
    ])
}

/// Every workload: `runs` untraced passes on consecutive seeds, then one
/// traced pass. Prints every metric and writes `out/result.json`.
pub fn run_all(
    workloads: &[Workload],
    opts: &Options,
    runs: usize,
    paths: &Paths,
) -> Result<bool, String> {
    let mut all_correct = true;
    let mut results = Vec::new();
    for w in workloads {
        let mut untraced = Vec::with_capacity(runs);
        for r in 0..runs {
            let run_opts = Options {
                seed: opts.seed.wrapping_add(r as u64),
                // Only the first run's inputs are the ones the pins belong to.
                bless: opts.bless && r == 0,
                ..*opts
            };
            let result = run_pass(w, false, &run_opts, paths)?;
            result.print("untraced");
            untraced.push(result);
        }
        let traced = run_pass(w, true, opts, paths)?;
        traced.print("traced");
        all_correct &= traced.correct && untraced.iter().all(|r| r.correct && r.failed == 0);
        results.push((w.name.to_string(), workload_json(w, &untraced, &traced)));
    }
    let result = Json::obj([
        ("smoke", Json::Bool(opts.smoke)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("runs", Json::Num(runs as f64)),
        ("env", environment(paths)),
        ("workloads", Json::Obj(results)),
    ]);
    let out = paths.out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let file = out.join("result.json");
    std::fs::write(&file, result.pretty()).map_err(|e| format!("write {}: {e}", file.display()))?;
    println!(
        "\nwrote {} ({})",
        file.display(),
        if all_correct {
            "every output check passed"
        } else {
            "SOME OUTPUT CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median and its quartiles.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// `b` against `a`. A quartile spread wider than the bound on either side
/// cannot resolve a change of the bound's size, whatever the medians say.
pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let ratio = b.value / a.value;
    let worse_by = if lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let v = if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    (ratio, v)
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn side(result: &JsonValue, workload: &str, metric: &str) -> Option<Side> {
    let m = result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

/// Compare two `result.json` files against the bounds of `BENCHMARK.json`.
/// `Ok(false)` when any pairing regressed.
pub fn compare(a_path: &Path, b_path: &Path, bench_dir: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (path, result) in [(a_path, &a), (b_path, &b)] {
        if result.get("smoke").and_then(JsonValue::as_bool) != Some(false) {
            return Err(format!(
                "{} is a smoke result (or not a result file): it checks plumbing and is never compared",
                path.display()
            ));
        }
    }
    let contract = load(&bench_dir.join("..").join("BENCHMARK.json"))?;
    let list = |key: &str| {
        contract
            .get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
    };
    let text = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry without `{key}`"))
    };
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut regressed = 0;
    for w in list("workloads")? {
        let workload = text(w, "name")?;
        for m in list("end_to_end")? {
            let metric = text(m, "name")?;
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{metric}: no bound"))?;
            let lower = text(m, "better")? == "lower";
            let (Some(sa), Some(sb)) = (side(&a, &workload, &metric), side(&b, &workload, &metric))
            else {
                return Err(format!("{workload}/{metric} is missing from a result file"));
            };
            let (ratio, v) = verdict(sa, sb, lower, bound);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{workload:<12} {metric:<20} {:>14.6} {:>14.6} {ratio:>8.4} {bound:>6.2}  {}",
                sa.value,
                sb.value,
                v.label()
            );
        }
    }
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Side {
        Side {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let v = |a, b, lower| verdict(tight(a), tight(b), lower, 0.10).1;
        assert_eq!(v(1.0, 1.05, true), Verdict::Within);
        assert_eq!(v(1.0, 1.2, true), Verdict::Regressed);
        assert_eq!(v(1.0, 0.8, true), Verdict::Improved);
        // Higher is better: the same ratios read the other way round.
        assert_eq!(v(100.0, 120.0, false), Verdict::Improved);
        assert_eq!(v(100.0, 80.0, false), Verdict::Regressed);
        assert_eq!(v(100.0, 95.0, false), Verdict::Within);
    }

    #[test]
    fn a_wide_spread_is_unresolved_whatever_the_medians_say() {
        let wide = Side {
            value: 1.0,
            q1: 0.9,
            q3: 1.1,
        };
        assert_eq!(verdict(wide, tight(1.5), true, 0.10).1, Verdict::Unresolved);
        assert_eq!(verdict(tight(1.0), wide, true, 0.10).1, Verdict::Unresolved);
        assert_eq!(verdict(wide, tight(1.0), true, 0.25).1, Verdict::Within);
    }

    #[test]
    fn the_ratio_is_b_over_a() {
        let (ratio, _) = verdict(tight(2.0), tight(3.0), true, 0.10);
        assert!((ratio - 1.5).abs() < 1e-12);
    }
}
