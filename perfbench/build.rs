//! Records the compiler version and the measured tree's commit for the
//! benchmark's run records.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = stdout_of(Command::new(rustc).arg("--version")).unwrap_or_default();
    // Only the repository this benchmark sits in counts; an exported tree
    // without `.git` has no commit, whatever directory encloses it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = if root.join(".git").exists() {
        stdout_of(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    };
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
    if root.join(".git").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs");
    }
}
