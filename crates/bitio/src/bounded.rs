//! Bounded allocation helpers for decode paths.
//!
//! MASC's R2 invariant (see `DESIGN.md` §3.10) requires every allocation
//! whose size comes from *decoded* data — a length claim read off the wire —
//! to be validated against a hard limit before memory is reserved. A
//! corrupt or adversarial stream may claim a 2⁶⁴-element payload in a
//! 10-byte file; decoding must fail with a structured error, not abort the
//! process inside the allocator.
//!
//! The helpers here make the check and the allocation a single step, so the
//! guard cannot drift away from the `Vec` it protects:
//!
//! ```
//! use masc_bitio::bounded;
//!
//! const MAX_SYMBOLS: usize = 1 << 20;
//! let claimed = 12usize; // decoded from the stream
//! let buf: Vec<u8> = bounded::bounded_vec("rle symbol table", claimed, MAX_SYMBOLS)?;
//! assert_eq!(buf.len(), 12);
//! # Ok::<(), bounded::AllocBoundError>(())
//! ```
//!
//! A decoder that allocates through this module needs no
//! `#[expect(clippy::disallowed_methods)]` of its own: the claim is checked
//! where the allocation happens (rule R2, DESIGN.md §3.10).

use core::fmt;

/// Error returned when a decoded size claim exceeds its hard limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocBoundError {
    /// What was being allocated (e.g. `"rle run buffer"`).
    pub what: &'static str,
    /// The size the stream claimed.
    pub requested: usize,
    /// The hard limit the claim violated.
    pub limit: usize,
}

impl fmt::Display for AllocBoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decoded size claim for {} is {} but the limit is {}",
            self.what, self.requested, self.limit
        )
    }
}

impl std::error::Error for AllocBoundError {}

/// Validates a decoded size claim against a hard limit.
///
/// Returns the claim unchanged when `requested <= limit`.
///
/// # Errors
///
/// Returns [`AllocBoundError`] when the claim exceeds the limit.
#[inline]
pub fn check_claim(
    what: &'static str,
    requested: usize,
    limit: usize,
) -> Result<usize, AllocBoundError> {
    if requested <= limit {
        Ok(requested)
    } else {
        Err(AllocBoundError {
            what,
            requested,
            limit,
        })
    }
}

/// Allocates a `len`-element vector of default values after validating the
/// claim. The bounded-allocation replacement for `vec![T::default(); len]`.
///
/// # Errors
///
/// Returns [`AllocBoundError`] when `len > limit`.
#[expect(
    clippy::disallowed_methods,
    reason = "the length passed `check_claim(what, len, limit)` first"
)]
pub fn bounded_vec<T: Clone + Default>(
    what: &'static str,
    len: usize,
    limit: usize,
) -> Result<Vec<T>, AllocBoundError> {
    Ok(vec![T::default(); check_claim(what, len, limit)?])
}

/// Allocates a `len`-element vector filled with `fill` after validating the
/// claim. The bounded-allocation replacement for `vec![fill; len]`.
///
/// # Errors
///
/// Returns [`AllocBoundError`] when `len > limit`.
#[expect(
    clippy::disallowed_methods,
    reason = "the length passed `check_claim(what, len, limit)` first"
)]
pub fn bounded_filled<T: Clone>(
    what: &'static str,
    fill: T,
    len: usize,
    limit: usize,
) -> Result<Vec<T>, AllocBoundError> {
    Ok(vec![fill; check_claim(what, len, limit)?])
}

/// Reserves capacity for `cap` elements after validating the claim. The
/// bounded-allocation replacement for `Vec::with_capacity(cap)` on a decode
/// path.
///
/// # Errors
///
/// Returns [`AllocBoundError`] when `cap > limit`.
#[expect(
    clippy::disallowed_methods,
    reason = "the capacity passed `check_claim(what, cap, limit)` first"
)]
pub fn bounded_capacity<T>(
    what: &'static str,
    cap: usize,
    limit: usize,
) -> Result<Vec<T>, AllocBoundError> {
    Ok(Vec::with_capacity(check_claim(what, cap, limit)?))
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    #[test]
    fn claim_within_limit_passes_through() {
        assert_eq!(check_claim("x", 10, 10), Ok(10));
        assert_eq!(check_claim("x", 0, 0), Ok(0));
    }

    #[test]
    fn claim_over_limit_is_structured() {
        let err = check_claim("huffman code table", usize::MAX, 1 << 16).unwrap_err();
        assert_eq!(err.limit, 1 << 16);
        let msg = err.to_string();
        assert!(msg.contains("huffman code table"));
        assert!(msg.contains(&(1usize << 16).to_string()));
    }

    #[test]
    fn bounded_vec_allocates_exact_len() {
        let v: Vec<u32> = bounded_vec("t", 7, 8).unwrap();
        assert_eq!(v, vec![0u32; 7]);
        assert!(bounded_vec::<u32>("t", 9, 8).is_err());
    }

    #[test]
    fn bounded_filled_uses_fill_value() {
        let v = bounded_filled("t", 0xAAu8, 3, 4).unwrap();
        assert_eq!(v, vec![0xAA; 3]);
    }

    #[test]
    fn bounded_capacity_reserves_without_len() {
        let v: Vec<u8> = bounded_capacity("t", 64, 64).unwrap();
        assert!(v.capacity() >= 64);
        assert!(v.is_empty());
        assert!(bounded_capacity::<u8>("t", 65, 64).is_err());
    }
}
