//! `mcs-bench`: run registered harnesses at full report verbosity.
//!
//! ```text
//! mcs-bench run <name>...   run the named harnesses
//! mcs-bench run --all       run every harness, in registry order
//! mcs-bench --list          list the registry
//! ```
//!
//! Each run prints its report, writes `<table>.csv` per table and
//! `BENCH_<name>.json` under [`mcs_bench::results_dir`], and scores its
//! invariants. Environment: `MCS_SCALE` (workload scale, default 1),
//! `MCS_RESULTS_DIR`.
//!
//! Exit codes: `0` every invariant held, `1` an invariant failed,
//! `2` bad usage or an unwritable results directory.

use std::process::ExitCode;

use mcs_bench::harness::{Harness, HARNESSES};

fn usage() -> ExitCode {
    eprintln!("usage: mcs-bench run <name>... | run --all | --list");
    ExitCode::from(2)
}

fn list() {
    for h in HARNESSES {
        println!("{:<16} {}", h.name, h.title);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Harness> = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--list"] | ["run", "--list"] => {
            list();
            return ExitCode::SUCCESS;
        }
        ["run", "--all"] => HARNESSES.iter().collect(),
        ["run", ref names @ ..] if !names.is_empty() => {
            let mut selected = Vec::new();
            for name in names {
                match HARNESSES.iter().find(|h| h.name == *name) {
                    Some(h) => selected.push(h),
                    None => {
                        eprintln!("error: no harness named {name:?}; the registry holds:");
                        list();
                        return ExitCode::from(2);
                    }
                }
            }
            selected
        }
        _ => return usage(),
    };
    let scale = match mcs_bench::scale_from_env(1.0) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = mcs_bench::results_dir();

    let mut failed = 0;
    for h in selected {
        let out = h.execute(scale, true);
        println!();
        for c in &out.invariants {
            println!("  {c}");
        }
        failed += out.failures().count();
        if let Err(e) = out.write(&dir) {
            eprintln!("error: cannot write results under {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} table(s) and BENCH_{}.json under {}",
            out.tables.len(),
            h.name,
            dir.display()
        );
    }
    if failed > 0 {
        println!("mcs-bench: {failed} invariant(s) FAILED");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
