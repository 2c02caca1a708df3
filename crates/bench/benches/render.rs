//! Timeline renderer throughput: the Chrome trace, speedscope and
//! folded-stack writers over one whole-run `scenarios::mixed(4)`
//! capture (network, vfork/exec and disk across several threads of
//! control).  Rates are trace items per second.  `BENCH_render.json`
//! pins them in CI via `bench_gate`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hwprof::profiler::BoardConfig;
use hwprof::{scenarios, Analyzer, Experiment, Profile};

fn bench_render(c: &mut Criterion) {
    let cap = Experiment::new()
        .board(BoardConfig {
            capacity: 1 << 20,
            ..BoardConfig::default()
        })
        .scenario(scenarios::mixed(4))
        .try_run()
        .expect("mixed run");
    assert!(!cap.overflowed, "the whole run must fit the RAM");
    let r = Analyzer::for_tagfile(&cap.tagfile)
        .record_sessions([cap.records.as_slice()])
        .expect("ungated analysis");
    // The timeline is replayed once and cached; replay it here so the
    // timed loops measure the writers alone.
    let items = r.timeline().len() as u64;
    let p = Profile::new(&r).name("render bench");

    let mut g = c.benchmark_group("render");
    g.throughput(Throughput::Elements(items));
    g.bench_function("chrome", |b| b.iter(|| p.chrome_trace().len()));
    g.bench_function("speedscope", |b| b.iter(|| p.speedscope().len()));
    g.bench_function("folded", |b| b.iter(|| p.folded().len()));
    g.finish();
}

criterion_group!(benches, bench_render);
criterion_main!(benches);
