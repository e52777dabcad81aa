//! Affine tasks for fair adversaries — Section 4 of *An Asynchronous
//! Computability Theorem for Fair Adversaries*.
//!
//! This crate turns an agreement function `α` (from `act-adversary`) into
//! the affine task `R_A ⊆ Chr² s` that captures the task computability of
//! the corresponding fair adversarial model:
//!
//! * [`views_of`] — the `View1` / `View2` structure of `Chr² s`;
//! * [`contention_complex`] / [`is_contention_simplex`] — the 2-contention
//!   complex `Cont²` (Definition 5, Figure 4);
//! * [`CriticalAnalysis`] — critical simplices (Definition 7, Figure 5),
//!   their members `CSM_α`, views `CSV_α`, and the concurrency map
//!   `Conc_α` (Definition 8, Figure 6);
//! * [`fair_affine_task`] — the affine task `R_A` (Definition 9, Figure 7);
//! * [`k_obstruction_free_task`] / [`t_resilient_task`] — the previously
//!   known affine tasks used as cross-checks (Definition 6, Figure 1b);
//! * [`AffineTask`] — the task abstraction: `Δ`-restrictions, recipes and
//!   iteration (`L^m`, the compact affine model `L^*`).
//!
//! # Quickstart
//!
//! ```
//! use act_adversary::AgreementFunction;
//! use act_affine::{fair_affine_task, k_obstruction_free_task};
//!
//! let alpha = AgreementFunction::k_concurrency(3, 1);
//! let r_a = fair_affine_task(&alpha);            // Definition 9
//! let r_of = k_obstruction_free_task(3, 1);      // Definition 6
//! assert!(r_a.complex().same_complex(r_of.complex()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contention;
mod critical;
mod fair;
mod known;
mod skeleton;
mod task;
mod views;

pub use contention::{
    are_contending, contention_complex, is_contention_simplex, max_contention_dim,
};
pub use critical::{CriticalAnalysis, CriticalInfo};
pub use fair::{
    alpha_is_symmetric, fair_affine_task, fair_affine_task_with, fair_census_quotiented,
    fair_census_quotiented_with, CriticalSideCondition, FairCensus,
};
pub use known::{
    k_obstruction_free_task, max_contention_of_task, t_resilient_task, wait_free_task,
};
pub use task::{AffineTask, APPLY_CALLS};
pub use views::{view2_carrier, views_of, Views};
