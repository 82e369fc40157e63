//! `mcs-check` refuses a malformed `MCS_SCALE` instead of silently
//! checking at the default scale.

use std::process::Command;

#[test]
fn bad_scale_is_an_error_naming_the_variable() {
    let out = Command::new(env!("CARGO_BIN_EXE_mcs-check"))
        .env("MCS_SCALE", "abc")
        .output()
        .expect("spawn mcs-check");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("MCS_SCALE"), "{err}");
}
