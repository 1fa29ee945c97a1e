//! Component-level benchmarks: where does MCDC's time go? One benchmark per
//! pipeline stage (MGCPL exploration, Γ encoding, CAME aggregation) plus the
//! object–cluster similarity micro-kernel that dominates the inner loops.

use categorical_data::synth::scaling;
use criterion::{criterion_group, criterion_main, Criterion};
use mcdc_core::{encode_mgcpl, Came, ClusterProfile, Mgcpl};

fn bench_components(c: &mut Criterion) {
    let data = scaling::syn_n(3_000, 7);
    let mgcpl = Mgcpl::builder().seed(1).build();
    let explored = mgcpl.fit(data.table()).expect("synthetic data is non-empty");
    let encoding = encode_mgcpl(&explored).expect("Gamma is encodable");

    let mut group = c.benchmark_group("components");
    group.sample_size(10);
    group.bench_function("mgcpl_explore_n3000", |b| {
        b.iter(|| mgcpl.fit(data.table()).expect("fit succeeds"));
    });
    group.bench_function("encode_gamma_n3000", |b| {
        b.iter(|| encode_mgcpl(&explored).expect("encodable"));
    });
    group.bench_function("came_aggregate_n3000_k3", |b| {
        b.iter(|| Came::builder().build().fit(&encoding, 3).expect("fit succeeds"));
    });
    group.finish();

    // Similarity micro-kernel: one object–cluster evaluation.
    let mut profile = ClusterProfile::new(data.table().schema());
    for i in 0..500 {
        profile.add(data.table().row(i));
    }
    let query = data.table().row(1_000).to_vec();
    let mut micro = c.benchmark_group("similarity_kernel");
    micro.bench_function("plain_similarity_d10", |b| {
        b.iter(|| profile.similarity(&query));
    });
    micro.finish();
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
