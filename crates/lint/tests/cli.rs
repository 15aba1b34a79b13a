//! End-to-end tests of the `masc-lint` binary: each case writes a tiny
//! workspace (a `[workspace]` `Cargo.toml`, a `lint-manifest.txt` and one
//! `src` file) and checks the exit code and output of
//! `masc-lint --root <dir>`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes a one-file workspace under the target's scratch directory and
/// returns its root. `name` keeps concurrently running cases apart.
fn workspace(name: &str, manifest: &str, lib_rs: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-cli-{name}"));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("src")).expect("create workspace");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("Cargo.toml");
    std::fs::write(root.join("lint-manifest.txt"), manifest).expect("manifest");
    std::fs::write(root.join("src/lib.rs"), lib_rs).expect("src/lib.rs");
    root
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_masc-lint"))
        .args(args)
        .output()
        .expect("run masc-lint")
}

fn lint_root(root: &std::path::Path) -> Output {
    lint(&["--root", root.to_str().expect("utf-8 path")])
}

const CLEAN: &str =
    "//! Clean.\n\n/// Doubles.\npub fn double(x: u8) -> u8 {\n    x.wrapping_mul(2)\n}\n";

#[test]
fn clean_tree_exits_zero() {
    let root = workspace("clean", "wire-decode src\n", CLEAN);
    let out = lint_root(&root);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn unwrap_in_a_wire_decode_file_exits_one_with_its_location() {
    let src = "//! Decoder.\n\nfn first(b: &[u8]) -> u8 {\n    *b.first().unwrap()\n}\n";
    let root = workspace("unwrap", "wire-decode src/lib.rs\n", src);
    let out = lint_root(&root);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("src/lib.rs:4: panic-call:")),
        "expected a panic-call finding at src/lib.rs:4, got:\n{stdout}"
    );
}

#[test]
fn unknown_manifest_class_exits_two() {
    let root = workspace("bad-class", "concurrency src\n", CLEAN);
    let out = lint_root(&root);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown class `concurrency`"),
        "{out:?}"
    );
}

#[test]
fn unknown_flag_exits_two() {
    let root = workspace("bad-flag", "wire-decode src\n", CLEAN);
    let out = lint(&[
        "--root",
        root.to_str().expect("utf-8 path"),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag `--format`"),
        "{out:?}"
    );
}
