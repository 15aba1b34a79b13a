//! Deterministic property-test runner with fixed-seed reproduction and
//! bounded shrinking.
//!
//! [`check`] draws `cases` values from a generator and runs the property on
//! each. Case seeds are derived from a per-test base seed (a hash of the
//! test name mixed with a workspace-wide constant), so runs are fully
//! deterministic: the same binary always tests the same values. A failure
//! report prints the exact case seed; re-run just that case with
//!
//! ```text
//! MASC_PROP_REPRO=<hex seed> cargo test -p <crate> <test_name>
//! ```
//!
//! `MASC_PROP_SEED=<u64>` re-seeds the whole suite (for soak runs) and
//! `MASC_PROP_CASES=<n>` overrides the case count.
//!
//! Properties signal failure by panicking — `assert!`/`unwrap` work as-is;
//! the [`prop_assert!`](crate::prop_assert) aliases exist for ports from
//! `proptest`. After a failure the runner spends a bounded number of extra
//! executions retrying generator-proposed simplifications and reports the
//! smallest value that still fails.

use crate::gen::Gen;
use crate::rng::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Workspace-wide default base seed ("MASCTEST" in ASCII, truncated).
const DEFAULT_SEED: u64 = 0x4D41_5343_5445_5354;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed; per-case seeds derive from it and the test name.
    pub seed: u64,
    /// Max extra property executions spent shrinking a failure.
    pub max_shrink_iters: u32,
}

impl Default for Config {
    fn default() -> Self {
        let cases = std::env::var("MASC_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(128);
        let seed = std::env::var("MASC_PROP_SEED")
            .ok()
            .and_then(|v| parse_u64(&v))
            .unwrap_or(DEFAULT_SEED);
        Self {
            cases,
            seed,
            max_shrink_iters: 256,
        }
    }
}

/// Parses a seed written in decimal or `0x`-hex; `None` for anything else.
fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The case seed `MASC_PROP_REPRO` names, if it is set to a decimal or
/// `0x`-hex `u64`; a garbage value reads as unset.
pub fn repro_seed() -> Option<u64> {
    std::env::var("MASC_PROP_REPRO")
        .ok()
        .and_then(|v| parse_u64(&v))
}

/// The seed of case `case` of the property (or fuzz oracle) `name` under
/// base seed `base` — the seed a failure report prints and
/// [`repro_seed`] replays.
pub fn case_seed(base: u64, name: &str, case: u64) -> u64 {
    (base ^ fnv1a(name.as_bytes())) ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// FNV-1a, used to give every test its own seed stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

enum CaseResult {
    Pass,
    Fail(String),
}

fn run_case<V, P>(prop: &P, value: &V) -> CaseResult
where
    P: Fn(&V),
{
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(()) => CaseResult::Pass,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            CaseResult::Fail(msg)
        }
    }
}

/// Runs `prop` on `config.cases` values drawn from `gen`.
///
/// # Panics
///
/// Panics with a reproduction report if any case fails (after bounded
/// shrinking).
pub fn check<G, P>(name: &str, config: &Config, gen: G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value),
{
    if let Some(repro) = repro_seed() {
        run_one(name, config, &gen, &prop, repro, 0);
        return;
    }
    for case in 0..config.cases {
        let seed = case_seed(config.seed, name, u64::from(case));
        run_one(name, config, &gen, &prop, seed, case);
    }
}

fn run_one<G, P>(name: &str, config: &Config, gen: &G, prop: &P, case_seed: u64, case: u32)
where
    G: Gen,
    P: Fn(&G::Value),
{
    let mut rng = Rng::new(case_seed);
    let value = gen.generate(&mut rng);
    let failure = match run_case(prop, &value) {
        CaseResult::Pass => return,
        CaseResult::Fail(msg) => msg,
    };
    // Bounded greedy shrinking: keep any candidate that still fails.
    let mut current = value;
    let mut current_msg = failure;
    let mut budget = config.max_shrink_iters;
    let mut shrunk = false;
    'outer: while budget > 0 {
        for cand in gen.shrink(&current) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let CaseResult::Fail(msg) = run_case(prop, &cand) {
                current = cand;
                current_msg = msg;
                shrunk = true;
                continue 'outer;
            }
        }
        break;
    }
    panic!(
        "[testkit] property '{name}' failed at case {case}/{cases}\n\
         \x20 argument{shrunk_note}: {current:?}\n\
         \x20 failure: {current_msg}\n\
         \x20 reproduce this case: MASC_PROP_REPRO={case_seed:#x} cargo test {name}",
        cases = config.cases,
        shrunk_note = if shrunk { " (shrunk)" } else { "" },
    );
}

/// Applies one `#![key = value]` block attribute from [`prop!`](crate::prop!)
/// and returns the updated config.
///
/// Recognized keys: `cases`, `seed`, `max_shrink_iters`.
///
/// # Panics
///
/// Panics on an unknown key.
pub fn apply_config(mut config: Config, key: &str, value: u64) -> Config {
    match key {
        "cases" => config.cases = value as u32,
        "seed" => config.seed = value,
        "max_shrink_iters" => config.max_shrink_iters = value as u32,
        other => panic!("[testkit] unknown prop! config key '{other}'"),
    }
    config
}

/// Defines deterministic property tests.
///
/// Each `fn` becomes a `#[test]`. Arguments use `pattern in generator`
/// syntax; values are drawn from the generator per case and passed by
/// value. Optional inner attributes `#![cases = N]` and `#![seed = N]`
/// configure every test in the block.
///
/// ```
/// use masc_testkit::{gen, prop};
///
/// prop! {
///     #![cases = 64]
///     fn addition_commutes(a in gen::u64s(), b in gen::u64s()) {
///         assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
///     }
/// }
/// ```
#[macro_export]
macro_rules! prop {
    // Accumulator: munch leading `#![key = value]` block attributes into a
    // bracketed token list, then hand off to `@tests` (macro_rules cannot
    // cross-product two independent repetitions).
    (@acc [ $($cfg:tt)* ] #![$cfg_key:ident = $cfg_val:expr] $($rest:tt)*) => {
        $crate::prop!(@acc [ $($cfg)* ($cfg_key, $cfg_val) ] $($rest)*);
    };
    (@acc [ $($cfg:tt)* ] $($rest:tt)*) => {
        $crate::prop!(@tests [ $($cfg)* ] $($rest)*);
    };
    // `$cfg:tt` captures the whole bracketed config list as one token
    // tree, so it can be repeated per generated test below.
    (@tests $cfg:tt
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat_param in $gen:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let config = $crate::prop!(@config $crate::prop::Config::default(), $cfg);
                let gen = ($($gen,)+);
                $crate::prop::check(
                    concat!(module_path!(), "::", stringify!($name)),
                    &config,
                    gen,
                    |args| {
                        let ($($pat,)+) = ::core::clone::Clone::clone(args);
                        $body
                    },
                );
            }
        )*
    };
    (@config $config:expr, [ ]) => {
        $config
    };
    (@config $config:expr, [ ($key:ident, $value:expr) $($rest:tt)* ]) => {
        $crate::prop!(
            @config $crate::prop::apply_config($config, stringify!($key), $value as u64),
            [ $($rest)* ]
        )
    };
    // Entry point.
    ($($tokens:tt)*) => {
        $crate::prop!(@acc [ ] $($tokens)*);
    };
}

/// `proptest`-compatible assertion alias.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { ::core::assert!($($tt)*) };
}

/// `proptest`-compatible assertion alias.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { ::core::assert_eq!($($tt)*) };
}

/// `proptest`-compatible assertion alias.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { ::core::assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn passing_property_runs_all_cases() {
        let config = Config {
            cases: 50,
            seed: 1,
            max_shrink_iters: 10,
        };
        let count = std::cell::Cell::new(0u32);
        check("passes", &config, gen::u64s(), |_| {
            count.set(count.get() + 1);
        });
        assert_eq!(count.get(), 50);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let config = Config {
            cases: 50,
            seed: 2,
            max_shrink_iters: 200,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("fails", &config, gen::vecs(gen::u64s(), 0..40), |v| {
                assert!(v.len() < 3, "too long");
            });
        }));
        let msg = match result {
            Ok(()) => panic!("property should have failed"),
            Err(p) => *p.downcast::<String>().expect("string payload"),
        };
        assert!(msg.contains("MASC_PROP_REPRO="), "{msg}");
        assert!(msg.contains("(shrunk)"), "{msg}");
        // Greedy shrinking must reach a minimal 3-element counterexample.
        assert!(msg.contains("failed at case"), "{msg}");
    }

    #[test]
    fn determinism_same_seed_same_values() {
        let config = Config {
            cases: 20,
            seed: 3,
            max_shrink_iters: 0,
        };
        let a = std::cell::RefCell::new(Vec::new());
        check("det", &config, gen::u64s(), |v| a.borrow_mut().push(*v));
        let b = std::cell::RefCell::new(Vec::new());
        check("det", &config, gen::u64s(), |v| b.borrow_mut().push(*v));
        assert_eq!(a.into_inner(), b.into_inner());
    }

    prop! {
        #![cases = 32]
        fn macro_smoke(a in gen::range_u64(0, 10), mut v in gen::vecs(gen::bools(), 0..5)) {
            v.push(a < 10);
            assert!(v.last() == Some(&true));
        }
    }
}
