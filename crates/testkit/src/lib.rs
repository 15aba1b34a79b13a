//! # masc-testkit — hermetic property-testing harness
//!
//! The MASC workspace builds **offline**: no crates.io dependencies, ever
//! (see `DESIGN.md` §"Hermetic builds"). This crate supplies the testing
//! machinery that external crates used to provide:
//!
//! - [`rng`] — a seedable PCG32 PRNG, so every test value is reproducible
//!   from a printed seed;
//! - [`gen`] — composable value generators (integers, floats with
//!   adversarial payloads, vectors, sparse coordinate sets, netlist decks)
//!   with bounded, invariant-preserving shrinking;
//! - [`mod@prop`] — the [`prop!`] test macro and runner: fixed-seed cases,
//!   `MASC_PROP_REPRO=<seed>` single-case reproduction, greedy shrinking;
//! - [`mod@alloc`] — a counting global allocator for memory assertions
//!   against heap truth, installed only in single-test binaries.
//!
//! # Examples
//!
//! ```
//! use masc_testkit::{gen, gen::Gen, prop};
//!
//! prop! {
//!     #![cases = 50]
//!     fn reverse_is_involutive(v in gen::vecs(gen::u8s(), 0..100)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         assert_eq!(v, w);
//!     }
//! }
//! ```

// `alloc` implements `GlobalAlloc`, which cannot be done without `unsafe`;
// everything else stays free of it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[expect(
    unsafe_code,
    reason = "`GlobalAlloc` can only be implemented with `unsafe`"
)]
pub mod alloc;
pub mod gen;
pub mod prop;
pub mod rng;

pub use gen::Gen;
pub use rng::Rng;
