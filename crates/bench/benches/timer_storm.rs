//! Scheduler-shape benchmarks: timer-heavy and cancel-heavy storms.
//!
//! `sim/timer_storm` keeps 500 periodic timers live with periods spread
//! across 20 binary decades (1 µs to ~0.5 s), so every dispatch is a pop
//! and a push through a scheduler heap five levels deep — far denser than
//! the 14–42 live events of the `BENCHMARK.json` workloads the queue is
//! sized for. `sim/cancel_storm` arms and cancels one far-future timeout
//! per dispatched event — the protocol's probe/retry pattern — exercising
//! indexed removal and slab slot reuse. Baselines:
//! `results/BENCH_timer_storm.json` (the timer storm; the cancel storm
//! rides along uncommitted).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tt_bench::{CANCEL_STORM, TIMER_STORM};

fn bench_timer_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.throughput(Throughput::Elements(TIMER_STORM.events_per_run));
    group.bench_function("timer_storm", |b| {
        b.iter(|| black_box((TIMER_STORM.run)()));
    });
    group.throughput(Throughput::Elements(CANCEL_STORM.events_per_run));
    group.bench_function("cancel_storm", |b| {
        b.iter(|| black_box((CANCEL_STORM.run)()));
    });
    group.finish();
}

criterion_group!(
    name = storms;
    config = Criterion::default().sample_size(20);
    targets = bench_timer_storm
);
criterion_main!(storms);
