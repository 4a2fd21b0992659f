//! Wall clock of the packed crossbar backend on the dominant kernels.
//!
//! The row-multiply group times the row multiplier — the dominant
//! kernel of a multiply — on a fresh packed array per iteration. The
//! end-to-end group runs the full three-stage multiplier. Cycles,
//! wear and state are checked against the `cim-check` oracle by the
//! differential suite; this bench tracks only host time.

use cim_bigint::rng::UintRng;
use cim_crossbar::Crossbar;
use cim_logic::multpim::RowMultiplier;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;

const WIDTHS: [usize; 3] = [512, 1024, 2048];

fn bench_row_multiply_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_row_multiply");
    group.sample_size(10);
    for n in WIDTHS {
        let mut rng = UintRng::seeded(5);
        let a = rng.exact_bits(n);
        let b = rng.exact_bits(n);
        let mult = RowMultiplier::new(n);
        let cols = mult.required_cols();
        group.bench_with_input(BenchmarkId::new("packed", n), &n, |bench, _| {
            bench.iter(|| {
                let mut array = Crossbar::new(1, cols).expect("array");
                mult.run_in(&mut array, 0, 0, &a, &b).expect("run")
            })
        });
    }
    group.finish();
}

fn bench_end_to_end_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_end_to_end");
    group.sample_size(10);
    for n in WIDTHS {
        let mut rng = UintRng::seeded(5);
        let a = rng.exact_bits(n);
        let b = rng.exact_bits(n);
        let full = KaratsubaCimMultiplier::new(n).expect("multiplier");
        group.bench_with_input(BenchmarkId::new("default", n), &n, |bench, _| {
            bench.iter(|| full.multiply(&a, &b).expect("run"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_row_multiply_backends, bench_end_to_end_large);
criterion_main!(benches);
