//! The repo benchmark: five workloads, end-to-end metrics from an untraced
//! run, per-layer metrics from a traced run. See `README.md`.
//!
//! The system is driven only through the crates' public functions; the
//! benchmark's own arithmetic lives in [`stats`], [`spans`] and [`gen`] so
//! it can be unit-tested without running anything.

use std::path::PathBuf;

pub mod gen;
pub mod layers;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod workloads;

/// The `benchmark/` directory: where `cargo run` says the manifest is, else
/// where it was when this was compiled.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Where results, traces and scratch checkpoints go (git-ignored).
pub fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}
