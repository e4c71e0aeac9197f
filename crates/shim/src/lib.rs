//! Zero-dependency stand-ins for the external crates the workspace would
//! normally pull from crates.io.
//!
//! The build environment for this repository is fully offline: no
//! registry, no vendored sources. Rather than gating functionality behind
//! missing dependencies, this crate provides the small slices of
//! `serde_json`, `rand`, `rayon`, `rustc-hash` and `criterion` the
//! workspace actually uses:
//!
//! * [`json`] — a JSON value type with a strict parser and a
//!   pretty-printer (replaces `serde_json` for persistence).
//! * [`hash`] — a fixed-state multiply hasher for tables keyed by
//!   values the program makes itself (replaces `rustc-hash`).
//! * [`rng`] — a seedable xoshiro256** generator with the handful of
//!   sampling helpers the search strategies and property tests need
//!   (replaces `rand` / `proptest`'s case generation).
//! * [`par`] — data-parallel helpers on one persistent, process-wide
//!   thread pool (replaces the `rayon` `par_iter`/`par_chunks_mut` call
//!   sites).
//! * [`bench`] — a minimal wall-clock benchmark harness with median
//!   reporting (replaces `criterion` for the `harness = false` benches).
//! * [`simd`] — host CPU vector-width detection (the tiny slice of
//!   `std::arch` feature probing the tile selector needs, with a
//!   `CLGEMM_SIMD` override for reproducibility).
//!
//! Everything here is std-only and deterministic where the replaced crate
//! was deterministic.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bench;
pub mod hash;
pub mod json;
pub mod par;
pub mod rng;
pub mod simd;

pub use json::{Json, JsonError};
pub use rng::Rng;
