//! The checker's contract: a name fixes the word stream, a replay reads
//! zeros past its end, and a failure shrinks to its minimal case and
//! re-raises that case's own panic.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use propcheck::{check, replay, Gen};
use std::panic;
use std::sync::Mutex;

/// Every word `check(name, 4, ..)` hands out, two per case.
fn stream(name: &str) -> Vec<u64> {
    let words = Mutex::new(Vec::new());
    check(name, 4, |g| {
        words.lock().unwrap().extend([g.u64(), g.u64()])
    });
    words.into_inner().unwrap()
}

#[test]
fn a_name_fixes_the_word_stream() {
    let t = stream("t");
    assert_eq!(t.len(), 8);
    assert_eq!(t, stream("t"));
    assert_ne!(t, stream("u"));
    // SplitMix64 seeded with FNV-1a("t"): the stream the properties have
    // always drawn from.
    assert_eq!(t[..2], [0x1f13_bda3_2bbb_7ff9, 0x1e8f_35d9_75f3_ba36]);
}

#[test]
fn a_replay_reads_zeros_past_its_end() {
    replay(&[u64::MAX, 1], |g| {
        assert_eq!(g.range(0..10u8), 9);
        assert!(g.bool());
        assert_eq!(g.range(3..17u64), 3);
        assert_eq!(g.range(5..=9usize), 5);
        assert_eq!(g.range(-2.5..2.5), -2.5);
        assert_eq!(g.range(1.0..=4.0), 1.0);
        assert!(g.vec(0..10, Gen::u64).is_empty());
        assert!(!g.bool());
        assert_eq!(g.u64(), 0);
    });
}

#[test]
fn a_planted_failure_shrinks_to_its_minimal_case() {
    let failed = panic::catch_unwind(|| {
        check("some_element_is_at_least_100", 64, |g| {
            let xs = g.vec(0..50, |g| g.range(0..200u32));
            assert!(xs.iter().all(|&x| x < 100), "{xs:?}");
        })
    });
    let payload = failed.expect_err("the planted property fails");
    assert_eq!(payload.downcast_ref::<String>().unwrap(), "[100]");
}

#[test]
#[should_panic(expected = "drew 100 of 0..1000")]
fn the_minimal_case_re_raises_its_own_panic() {
    check("draws_stay_below_100", 64, |g| {
        let x = g.range(0..1000u32);
        assert!(x < 100, "drew {x} of 0..1000");
    });
}
