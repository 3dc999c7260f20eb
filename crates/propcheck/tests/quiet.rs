//! Shrinking silences the panics of its own replays and no other thread's.
//! Alone in its test binary, because it owns the process's panic hook.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use propcheck::check;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::thread;

/// Panics the hook printed, by the thread they came from.
static PRINTED_HERE: AtomicUsize = AtomicUsize::new(0);
static PRINTED_ELSEWHERE: AtomicUsize = AtomicUsize::new(0);
/// Runs of the failing property, the shrinking replays included.
static RUNS: AtomicUsize = AtomicUsize::new(0);

/// Runs `f` on a thread named `elsewhere` and joins it.
fn elsewhere(f: impl FnOnce() + Send + 'static) {
    let named = thread::Builder::new().name("elsewhere".into());
    named.spawn(f).unwrap().join().unwrap();
}

#[test]
fn only_the_shrinking_thread_is_silenced() {
    panic::set_hook(Box::new(|_| {
        if thread::current().name() == Some("elsewhere") {
            PRINTED_ELSEWHERE.fetch_add(1, SeqCst);
        } else {
            PRINTED_HERE.fetch_add(1, SeqCst);
        }
    }));
    let failed = panic::catch_unwind(|| {
        check("fails_and_shrinks", 64, |g| {
            RUNS.fetch_add(1, SeqCst);
            elsewhere(|| assert!(panic::catch_unwind(|| panic!("caught")).is_err()));
            assert!(g.range(0..1000u32) < 500);
        })
    });
    assert!(failed.is_err());
    // The first failure and the minimal case's replay print; the replays
    // in between do not. Every run's panic on the other thread printed,
    // those during the shrink too.
    assert!(RUNS.load(SeqCst) > 3, "nothing was shrunk");
    assert_eq!(PRINTED_HERE.load(SeqCst), 2);
    assert_eq!(PRINTED_ELSEWHERE.load(SeqCst), RUNS.load(SeqCst));

    // After the shrink, a passing property on another thread prints the
    // panics it catches.
    PRINTED_ELSEWHERE.store(0, SeqCst);
    elsewhere(|| {
        check("passes", 8, |g| {
            let word = g.u64();
            assert!(panic::catch_unwind(|| panic!("caught {word}")).is_err());
        })
    });
    assert_eq!(PRINTED_ELSEWHERE.load(SeqCst), 8);
}
