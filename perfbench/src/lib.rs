//! `mssg-perfbench` — one reproducible benchmark for MSSG.
//!
//! Four closed-loop workloads drive the program's public API with its
//! default settings (grDB backend, default ingestion and serving
//! configuration) and check every output; `BENCHMARK.json` gates the
//! first two ([`Workload::BENCHMARKED`]):
//!
//! - `ingest-bulk` — a PubMed-S-like stream bulk-loaded into a fresh
//!   4-node grDB cluster, then read back;
//! - `query-scalefree` — BFS, 2-hop and degree queries with Zipf sources
//!   over the same graph, through `mssg-serve`;
//! - `query-chain` — distinct long BFS queries over a path, through
//!   `mssg-serve`;
//! - `mixed-ingest-query` — update batches applied through
//!   `Server::ingest` while a client queries.
//!
//! `--trace 0` reports the end-to-end metrics of [`report::END_TO_END`];
//! `--trace 1` reports the per-layer metrics of [`report::PER_LAYER`],
//! measured from outside each layer by timing calls into its public
//! functions and reading the counters those calls return. `README.md`
//! in this directory is the metric reference.

pub mod digest;
pub mod inputs;
pub mod report;
pub mod rss;
pub mod run;
pub mod stats;
pub mod trace;

pub use run::{run, RunConfig, RunOutput, Sizes, Workload};
