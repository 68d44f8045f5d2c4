//! The `figures` binary takes no arguments: any argument is a usage error
//! (exit 2) that runs no sweep and writes nothing.

use std::process::Command;

#[test]
fn figures_rejects_any_argument() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("--help")
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: figures"));
}
