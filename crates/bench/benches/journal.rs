//! Microbenchmark: the journal-replay hot path. `open_queries` folds the
//! whole append-only record stream into the set of still-open admissions
//! every time a crashed cell restarts, so its cost lands squarely inside
//! the recovery window — while the cell's users are already waiting.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_runtime::{JournalRecord, QueryId, QueryJournal, QueuedQuery};
use pg_sim::SimTime;

/// A journal with `n` admissions in a realistic mix: most queries closed
/// (completed / shed / migrated away), a tail still open at the crash.
fn journal_with(n: u64) -> QueryJournal {
    let mut j = QueryJournal::new();
    for i in 0..n {
        j.append(JournalRecord::Admitted(QueuedQuery {
            id: QueryId(i),
            text: "SELECT AVG(temp) FROM sensors".into(),
            submitted_at: SimTime::from_secs(i),
            deadline_abs: (i % 3 == 0).then(|| SimTime::from_secs(i + 600)),
            estimate_j: 1.5,
            priority: (i % 3) as u8,
        }));
        // Close 7 of every 8: completions dominate, with shed and
        // migration records interleaved the way a live cell writes them.
        if i % 8 != 5 {
            j.append(match i % 3 {
                0 => JournalRecord::Completed { id: QueryId(i) },
                1 => JournalRecord::Shed { id: QueryId(i) },
                _ => JournalRecord::MigratedOut { id: QueryId(i) },
            });
        }
    }
    j
}

fn bench_open_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal");
    for &n in &[1_000u64, 10_000] {
        let j = journal_with(n);
        g.bench_with_input(BenchmarkId::new("open_queries", n), &n, |b, _| {
            b.iter(|| j.open_queries());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_open_queries);
criterion_main!(benches);
