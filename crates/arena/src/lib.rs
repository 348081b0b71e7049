//! Cross-tracker arena: every Row-Hammer tracker in the workspace, raced
//! on a schema-versioned Pareto leaderboard.
//!
//! The Hydra paper (ISCA 2022) argues its hybrid SRAM/DRAM design by
//! comparing against a *generation* of trackers — per-bank frequent-item
//! tables (Graphene), per-row DRAM counters (CRA), probabilistic samplers
//! (PARA), and vendor TRR. Since then the design space has kept moving:
//! CoMeT (HPCA 2024) replaces Hydra's per-row initialization traffic with
//! count-min sketches, ABACuS (USENIX Security 2024) collapses per-bank
//! counters into shared all-bank entries, MINT (MICRO 2024) shows how far
//! pure interval sampling goes inside the DRAM die, and START (HPCA 2024)
//! allocates counter storage lazily at cache-line granularity. This crate
//! puts all of them on one footing: every contender is a
//! [`hydra_types::ActivationTracker`], the one tracker trait of the
//! workspace, so the existing simulator ([`hydra_sim::ActivationSim`]),
//! sanitizer ([`hydra_sim::oracle::ShadowOracle`]) and sharded engine
//! (`hydra_engine::ShardedSim`) run each of them unchanged. Hydra and the
//! Graphene/CRA/PARA/TRR baselines enter the roster as they ship; the
//! leaderboard's spillover axis comes from the trait's
//! [`max_spillover`](hydra_types::ActivationTracker::max_spillover).
//!
//! * [`comet`], [`abacus`], [`mint`], [`start`] — the four successor
//!   trackers as first-class citizens, each with its documented safety
//!   argument.
//! * [`roster`] — named constructors building every contender for a given
//!   (geometry, channel, `T_RH`, seed, window budget), each boxed as a
//!   `Box<dyn ActivationTracker + Send>`. The roster also formats each
//!   instance's provisioning summary (the leaderboard's `params` column),
//!   since that is where every input is known.
//! * [`leaderboard`] — the `hydra sweep --arena` engine: every tracker ×
//!   threshold × workload cell runs under the shadow oracle and lands in a
//!   JSONL leaderboard (schema [`leaderboard::ARENA_SCHEMA_VERSION`]) with
//!   a four-axis Pareto frontier (SRAM bits, slowdown, mitigations,
//!   counting spillover) — the cross-tracker generalization of the paper's
//!   Figure 5.
//! * [`fixtures`] — sabotage wrappers (dropped mitigations, wrong-row
//!   mitigations, undercounting) that the oracle test matrix must flag,
//!   guarding the guards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abacus;
pub mod comet;
pub mod fixtures;
pub mod leaderboard;
pub mod mint;
pub mod roster;
pub mod start;

pub use abacus::{Abacus, AbacusConfig};
pub use comet::{Comet, CometConfig};
pub use leaderboard::{
    paper_sram_bits, run_arena, ArenaGrid, ArenaOutcome, ArenaRow, Fig5Check, ARENA_SCHEMA_VERSION,
};
pub use mint::{Mint, MintConfig};
pub use roster::{build_tracker, hydra_config_for_threshold, roster_names};
pub use start::{Start, StartConfig};

/// Kept only so the separate `perfbench/` package, which wraps
/// [`build_tracker`]'s result in `ArenaAdapter::new`, keeps building:
/// boxing a boxed tracker yields another [`hydra_types::ActivationTracker`].
/// Nothing else may use it.
#[doc(hidden)]
pub type ArenaAdapter<T> = Box<T>;
