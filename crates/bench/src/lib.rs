//! # dgs-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! the paper's evaluation (§6) — Fig. 6(a)–(p), Table 1, the
//! impossibility-theorem workloads of Fig. 2, the tree bounds of
//! Corollary 4, and the design-choice ablations called out in
//! DESIGN.md.
//!
//! Entry points:
//!
//! * `cargo run -p dgs-bench --release --bin experiments -- all`
//!   prints paper-style series for every experiment and writes CSVs;
//! * `cargo bench` runs the Criterion micro-benchmarks (wall-clock
//!   timing of the same engines).
//!
//! Workload scales default to 1/100 of the paper's dataset sizes so
//! the whole suite completes in minutes; pass `--scale` to grow them
//! (see EXPERIMENTS.md for the fidelity discussion).

pub mod compress_exp;
pub mod figures;
pub mod plot;
pub mod report;
pub mod serving;
pub mod trajectory;
pub mod update;
pub mod workloads;

pub use compress_exp::CompressionRow;
pub use figures::{Sweep, SweepSeries};
pub use plot::render_plot;
pub use report::{print_sweep, write_csv};
pub use serving::{run_serving, ServingConfig, ServingReport};
pub use trajectory::{run_executors, TrajectoryConfig};
pub use update::{check_update, measure_update, run_update, StreamReport, UpdateConfig};
pub use workloads::Workloads;
