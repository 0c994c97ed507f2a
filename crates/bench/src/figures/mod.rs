//! One module per regenerated artifact of the paper's evaluation.
//!
//! Each module exposes `run_figure(&Opts)`, printing the paper-style rows,
//! and has one line in [`ALL`]. That registry is the only list of figures:
//! `fig NAME` looks names up in it, `all_figures` runs it in order, and
//! `scripts/verify.sh` gates its whole output for determinism and against
//! the golden capture. DESIGN.md §3 maps artifacts to modules.

use crate::Opts;

pub mod ext_baselines;
pub mod ext_breakdown;
pub mod ext_fleet;
pub mod ext_hostile;
pub mod ext_policy;
pub mod ext_virtio;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig6;
pub mod fig6_gc;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;

/// A registered figure: its name and the function that prints it.
pub type Figure = (&'static str, fn(&Opts));

/// Every figure by name, in `all_figures` order. Adding a figure is its
/// module plus one line here.
pub const ALL: &[Figure] = &[
    ("table1", table1::run_figure),
    ("fig2", fig2::run_figure),
    ("fig6", fig6::run_figure),
    ("fig7", fig7::run_figure),
    ("fig8", fig8::run_figure),
    ("fig9", fig9::run_figure),
    ("fig10", fig10::run_figure),
    ("fig11", fig11::run_figure),
    ("fig12", fig12::run_figure),
    ("fig13", fig13::run_figure),
    ("fig14", fig14::run_figure),
    ("ext_baselines", ext_baselines::run_figure),
    ("ext_virtio", ext_virtio::run_figure),
    ("ext_breakdown", ext_breakdown::run_figure),
    ("fig6_gc", fig6_gc::run_figure),
    ("ext_hostile", ext_hostile::run_figure),
    ("ext_policy", ext_policy::run_figure),
    ("ext_fleet", ext_fleet::run_figure),
];
