//! Event-log container serialization/deserialization throughput
//! (the HDF5-substitute of Sec. V "Implementation").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use st_bench::synth::{generate, SynthSpec};
use st_model::Micros;
use st_query::pushdown::{read_pruned, ColumnSet};
use st_query::Predicate;
use st_store::{BytesSegment, SegmentReader};

/// Opens an in-memory image through the v2 reader (zero-copy source).
fn open(bytes: &bytes::Bytes) -> SegmentReader {
    SegmentReader::from_source(std::sync::Arc::new(BytesSegment::new(bytes.clone()))).unwrap()
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(15);
    for events in [10_000usize, 100_000] {
        let spec = SynthSpec {
            cases: 32,
            events_per_case: events / 32,
            paths: 64,
            seed: 9,
        };
        let log = generate(&spec);
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(BenchmarkId::new("serialize", events), &log, |b, log| {
            b.iter(|| st_store::to_bytes(log).unwrap().len())
        });
        // The frozen v1 encoder, kept benchmarked so the single-buffer
        // rework of the writer hot loop stays measured against it.
        group.bench_with_input(BenchmarkId::new("serialize_v1", events), &log, |b, log| {
            b.iter(|| st_store::to_bytes_v1(log).unwrap().len())
        });
        let bytes = st_store::to_bytes(&log).unwrap();
        group.bench_with_input(
            BenchmarkId::new("deserialize", events),
            &bytes,
            |b, bytes| b.iter(|| open(bytes).read().unwrap().total_events()),
        );
        let in_dir3 = Predicate::PathGlob("*/dir3*".to_string());
        group.bench_with_input(
            BenchmarkId::new("filtered_read", events),
            &bytes,
            |b, bytes| {
                b.iter(|| {
                    read_pruned(&open(bytes), &in_dir3, ColumnSet::ALL)
                        .unwrap()
                        .stats
                        .events_matched
                })
            },
        );
        // Zone-map pushdown on a narrow time slice of an opened reader
        // (the directory parse happens once at open, like a real
        // inspection session).
        let reader = open(&bytes);
        let window = Predicate::TimeWindow {
            from: Micros(0),
            to: Micros(500),
            inclusive_end: false,
            absolute: true,
        };
        group.bench_with_input(
            BenchmarkId::new("pushdown_time_slice", events),
            &reader,
            |b, reader| {
                b.iter(|| {
                    read_pruned(reader, &window, ColumnSet::ALL)
                        .unwrap()
                        .stats
                        .events_matched
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
