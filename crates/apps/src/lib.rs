//! # mpmd-apps — the paper's applications
//!
//! EM3D, Water and Blocked LU, each in both runtimes, with sequential
//! references and breakdown measurement (Figures 5 and 6). A cell of those
//! figures is one value, [`App`] on a [`Runtime`], and [`App::run_on`] runs
//! it on either fabric.

pub mod cell;
pub mod common;
pub mod em3d;
pub mod lu;
pub mod water;

pub use cell::{App, Output, Runtime};
pub use common::{charge_flops, AppBreakdown, AppRun, Lang, RegionTimer, FLOP_NS};
