//! Shared helpers for the paper-artefact binaries (see `src/bin/`).
//!
//! The real content of this crate is its binaries — `table1`, `table2`,
//! `table3`, `ablations` and `gcbench` — and the micro-benchmarks under
//! `benches/`. Each prints its table; none writes a results file. Speed
//! claims and per-layer rows come from the repo benchmark (`benchmark/`);
//! the correctness gates (chaos soak, crash recovery, loader fuzz, tenant
//! isolation, trace and accounting checks) are tests under `tests/`.

pub mod harness;
