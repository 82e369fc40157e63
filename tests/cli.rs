//! The `mcs` binary rejects what it cannot run before any transport
//! starts: the removed plan-level device selector (gone without a shim,
//! so its flag is a usage error like any other unknown flag; its TOML
//! keys are covered by the plan parser's own tests), and a feature the
//! distributed policy does not support.

use std::process::{Command, Output};

fn mcs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcs"))
        .args(args)
        .output()
        .expect("spawn mcs")
}

#[test]
fn the_removed_device_flag_is_a_usage_error() {
    let out = mcs(&["run", "--device", "a100"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "transport must not start");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("usage: mcs run"), "{err}");
}

#[test]
fn distributed_refuses_mesh_spectrum_and_fixed_source_up_front() {
    let run = [
        "run",
        "--model",
        "test",
        "--particles",
        "300",
        "--inactive",
        "1",
        "--active",
        "1",
        "--policy",
        "distributed:2",
    ];
    let mesh = [&run[..], &["--mesh", "4,4,2"]].concat();
    let spectrum_file = std::env::temp_dir().join(format!("mcs-cli-{}.csv", std::process::id()));
    let spectrum = [&run[..], &["--spectrum", spectrum_file.to_str().unwrap()]].concat();
    let fixed = [
        "fixed",
        "--model",
        "test",
        "--particles",
        "100",
        "--policy",
        "distributed:2",
    ];
    for (args, feature) in [
        (&mesh[..], "a mesh tally"),
        (&spectrum[..], "a spectrum"),
        (&fixed[..], "fixed-source mode"),
    ] {
        let out = mcs(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: transport must not start");
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.starts_with("error: "), "{err}");
        assert!(err.contains("distributed (2 ranks)"), "{err}");
        assert!(err.contains(feature), "{err}");
    }
    assert!(!spectrum_file.exists());
}
