//! The `mcs` binary rejects what PR 14 removed: the plan-level device
//! selector is gone without a shim, so its flag is a usage error like any
//! other unknown flag (its TOML keys are covered by the plan parser's
//! own tests).

use std::process::Command;

#[test]
fn the_removed_device_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_mcs"))
        .args(["run", "--device", "a100"])
        .output()
        .expect("spawn mcs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "transport must not start");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("usage: mcs run"), "{err}");
}
