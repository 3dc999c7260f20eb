//! Property checks that draw every input from one recorded choice
//! sequence, and shrink a failure by editing that sequence.
//!
//! A property is a closure over a [`Gen`]. Each draw reads one `u64`, and
//! every mapping from a word to a value moves toward the start of its range
//! as the word falls. [`check`] runs a property on `cases` fresh cases from
//! a SplitMix64 stream seeded with the FNV-1a hash of the property's name,
//! so every run, local or CI, sees the same inputs.
//!
//! When a case panics, the checker reduces the words it consumed, as
//! Hypothesis does (MacIver & Donaldson, *Test-Case Reduction via Test-Case
//! Generation*, ECOOP 2020): it deletes and zeroes chunks of 8, 4, 2 and 1
//! words and binary-searches each word down, keeping a candidate that still
//! panics and consumed a shortlex-smaller sequence. No generator needs a
//! shrinker of its own. The minimal sequence is printed as a `#[test]`, and
//! the minimal case's own panic is re-raised. To pin the failure, paste the
//! test and put the property in it; a replay reads zeros past its end (the
//! start of every range, empty vectors, `false`):
//!
//! ```
//! use propcheck::{check, replay, Gen};
//!
//! fn sorting_sorts(g: &mut Gen) {
//!     let mut xs = g.vec(0..20, |g| g.range(0..100u32));
//!     xs.sort_unstable();
//!     assert!(xs.windows(2).all(|w| w[0] <= w[1]));
//! }
//!
//! check("sorting_sorts", 64, sorting_sorts);
//! replay(&[2, 0, 7], sorting_sorts);
//! ```

use std::cell::Cell;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Replays the reducer may spend on one failing case.
const REPLAY_BUDGET: usize = 2_000;

/// The inputs of one case, and the record of every word it drew.
pub struct Gen {
    /// The SplitMix64 state of a fresh case; `None` replays `given`.
    stream: Option<u64>,
    given: Vec<u64>,
    drawn: Vec<u64>,
}

impl Gen {
    fn new(stream: Option<u64>, given: Vec<u64>) -> Gen {
        Gen {
            stream,
            given,
            drawn: Vec::new(),
        }
    }

    /// The next word of the choice sequence.
    pub fn u64(&mut self) -> u64 {
        let word = match &mut self.stream {
            Some(state) => {
                *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = *state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }
            None => self.given.get(self.drawn.len()).copied().unwrap_or(0),
        };
        self.drawn.push(word);
        word
    }

    /// A coin: the low bit of one word.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A value in `range` (`lo..hi` or `lo..=hi`, integer or `f64`), from
    /// one word.
    pub fn range<R: Draw>(&mut self, range: R) -> R::Value {
        range.draw(self)
    }

    /// A vector whose length is drawn from `len`, then each element by
    /// `element`.
    pub fn vec<T>(&mut self, len: impl Len, mut element: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| element(self)).collect()
    }
}

/// A range [`Gen::range`] draws from.
pub trait Draw {
    /// What the range holds.
    type Value;
    /// One value, from one word of `g`.
    fn draw(self, g: &mut Gen) -> Self::Value;
}

/// A length range [`Gen::vec`] draws from; its two impls let an untyped
/// `0..50` be read as `usize`.
pub trait Len: Draw<Value = usize> {}
impl Len for Range<usize> {}
impl Len for RangeInclusive<usize> {}

/// `lo + ⌊word · span / 2⁶⁴⌋`: uniform on `lo..hi`, or on `lo..=hi`.
fn int_in(g: &mut Gen, lo: i128, hi: i128, inclusive: bool) -> i128 {
    let span = (hi - lo + i128::from(inclusive)) as u128;
    lo + ((u128::from(g.u64()) * span) >> 64) as i128
}

/// `lo + unit · (hi − lo)`, with `unit` the word's high 53 bits in `[0, 1)`.
fn f64_in(g: &mut Gen, lo: f64, hi: f64, _inclusive: bool) -> f64 {
    lo + (g.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * (hi - lo)
}

macro_rules! draw {
    ($($t:ty: $in:ident),*) => {$(
        impl Draw for Range<$t> {
            type Value = $t;
            fn draw(self, g: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range");
                $in(g, self.start as _, self.end as _, false) as $t
            }
        }
        impl Draw for RangeInclusive<$t> {
            type Value = $t;
            fn draw(self, g: &mut Gen) -> $t {
                assert!(self.start() <= self.end(), "empty range");
                $in(g, *self.start() as _, *self.end() as _, true) as $t
            }
        }
    )*};
}

draw!(u8: int_in, u16: int_in, u32: int_in, u64: int_in, usize: int_in, i32: int_in, f64: f64_in);

/// Runs `prop` on `cases` fresh cases from the stream `name` seeds. If one
/// panics, shrinks it, prints the minimal case as a pasteable `#[test]`,
/// and re-raises the minimal case's own panic.
pub fn check(name: &str, cases: u32, prop: impl Fn(&mut Gen)) {
    // FNV-1a: stable across platforms and runs, unlike `DefaultHasher`.
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut g = Gen::new(Some(seed), Vec::new());
    for case in 1..=cases {
        g.drawn.clear();
        if panic::catch_unwind(AssertUnwindSafe(|| prop(&mut g))).is_ok() {
            continue;
        }
        let raw = g.drawn.len();
        let (minimal, replays) = quietly(|| shrink(std::mem::take(&mut g.drawn), &prop));
        eprintln!(
            "propcheck: `{name}` failed on case {case} of {cases}; its {raw} choices shrank to {} \
             in {replays} replays (budget {REPLAY_BUDGET}). The minimal case:\n\n#[test]\n\
             fn {name}_minimal() {{\n    propcheck::replay(&{minimal:?}, /* the property */);\n}}\n",
            minimal.len()
        );
        match panic::catch_unwind(AssertUnwindSafe(|| replay(&minimal, &prop))) {
            Err(payload) => panic::resume_unwind(payload),
            Ok(()) => panic!("propcheck: `{name}`'s minimal case passed when replayed"),
        }
    }
}

/// Runs `prop` once on `words`, reading zeros past their end: how a
/// printed minimal case is pinned as a test.
pub fn replay(words: &[u64], prop: impl FnOnce(&mut Gen)) {
    prop(&mut Gen::new(None, words.to_vec()));
}

/// The smallest failing sequence found from `failing`, and the replays it
/// took.
fn shrink(failing: Vec<u64>, prop: &impl Fn(&mut Gen)) -> (Vec<u64>, usize) {
    let (mut best, replays) = (failing, Cell::new(0));
    // Replays `c`; keeps what it consumed if it still panics and is
    // shortlex-smaller than `best`.
    let improves = |best: &mut Vec<u64>, c: Vec<u64>| {
        if c == *best || replays.get() == REPLAY_BUDGET {
            return false;
        }
        replays.set(replays.get() + 1);
        let mut g = Gen::new(None, c);
        let failed = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut g))).is_err();
        let better = failed && (g.drawn.len(), &g.drawn) < (best.len(), &*best);
        if better {
            *best = g.drawn;
        }
        better
    };
    loop {
        let before = best.clone();
        for k in [8, 4, 2, 1] {
            let mut i = 0;
            while i < best.len() {
                let mut c = best.clone();
                c.drain(i..(i + k).min(best.len()));
                if !improves(&mut best, c) {
                    i += 1;
                }
            }
        }
        for k in [8, 4, 2, 1] {
            for i in (0..best.len()).step_by(k) {
                let mut c = best.clone();
                let end = (i + k).min(c.len());
                if let Some(chunk) = c.get_mut(i..end) {
                    chunk.fill(0);
                    improves(&mut best, c);
                }
            }
        }
        for i in 0..best.len() {
            let mut lo = 0;
            while i < best.len() && lo < best[i] {
                let mut c = best.clone();
                c[i] = lo + (c[i] - lo) / 2;
                let mid = c[i];
                if !improves(&mut best, c) {
                    lo = mid + 1;
                }
            }
        }
        if best == before || replays.get() == REPLAY_BUDGET {
            return (best, replays.get());
        }
    }
}

thread_local! {
    /// Set while this thread replays candidates, whose panics are expected.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's panic output silenced. The hook that
/// silences it is installed once, over whatever hook was set before, and
/// passes every other thread's panics on to that hook.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.try_with(Cell::get).unwrap_or(false) {
                loud(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let out = f();
    QUIET.with(|q| q.set(false));
    out
}
