//! Static hardness analysis for combinational equivalence instances.
//!
//! The sweeping engine (crate `cec`) wins or dies on how candidate
//! cones are discharged. This crate computes *cheap, deterministic*
//! structural features over AIGs, miters, and CNF — level depth, fanout
//! distribution, interior cut width along the topological frontier, a
//! gate-pattern census (XOR chains, carry chains, multiplier grids),
//! variable-incidence-graph degree statistics, and a block-partition
//! modularity proxy — and folds them into a [`HardnessReport`] with a
//! scalar score in `[0, 1]` plus stable advisory diagnostics (`AN001+`
//! in `lint::REGISTRY`).
//!
//! Two consumers:
//!
//! - the `ranalyze` CLI prints text and JSON reports,
//! - `rplint` annotates bundles with analysis diagnostics.
//!
//! Everything is a constant number of linear passes in fixed order:
//! byte-identical reports across runs, hosts, and thread counts.

#![warn(missing_docs)]

mod cnf_features;
mod features;
mod report;

pub use cnf_features::{cnf_features, CnfFeatures};
pub use features::{aig_features, AigFeatures};
pub use report::{aig_score, cnf_score, HardnessReport, InstanceClass};
