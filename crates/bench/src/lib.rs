//! # mpmd-bench — experiment harness
//!
//! Library support for the table/figure binaries (`table1`, `table4`,
//! `fig5`, `fig6`, `nexus_cmp`, `claims`, `ablation`, ...). [`micro`] holds
//! Table 4 and the Optimistic Active Messages comparison: each row is data,
//! and one harness body runs it on the machine it is given, the simulator
//! for the binaries or `LocalFabric` for the count gate, which checks that a
//! row's protocol counts agree on both. Shared text-table formatting lives
//! in [`fmt`]; the parallel experiment runner (the `-j` flag) in [`runner`].

pub mod experiments;
pub mod explore;
pub mod fmt;
pub mod micro;
pub mod runner;
