//! Builds and runs the claims benchmark — `main.rs` in this directory, the
//! `benchmark` bin of `rsr-bench` — through the repository's root
//! workspace, so it is compiled with the workspace's lock file and release
//! profile, like the code users build.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- ARGS
//! ```
//!
//! `ARGS` go to the benchmark unchanged. The exit code is the benchmark's,
//! or Cargo's when the benchmark cannot be built.

use std::path::Path;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    // This package sits five directories below the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["run", "--release", "--quiet", "--offline", "--manifest-path"])
        .arg(root)
        .args(["-p", "rsr-bench", "--bin", "benchmark", "--"])
        .args(std::env::args_os().skip(1))
        .status();
    match status {
        // Killed by a signal: no code of its own, so a plain failure.
        Ok(status) => ExitCode::from(status.code().and_then(|c| u8::try_from(c).ok()).unwrap_or(1)),
        Err(e) => {
            eprintln!("benchmark launcher: cannot run cargo: {e}");
            ExitCode::FAILURE
        }
    }
}
