//! # mpmd-bench — experiment harness
//!
//! Library support for the table/figure binaries (`table1`, `table4`,
//! `fig5`, `fig6`, `nexus_cmp`, `claims`, `ablation`, ...). The
//! micro-benchmark implementations live in [`micro`]; shared text-table
//! formatting in [`fmt`]; the parallel experiment runner (the `-j` flag) in
//! [`runner`].

pub mod experiments;
pub mod explore;
pub mod fmt;
pub mod micro;
pub mod runner;
