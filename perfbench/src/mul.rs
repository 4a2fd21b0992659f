//! The multiplication workloads: warm solo `multiply` over three
//! widths and warm 64-lane `multiply_batch`, both at `OptLevel::MAX`,
//! plus their traced variants that chain the three stages by hand.

use crate::report::Report;
use crate::stats::Samples;
use crate::{run_passes, run_passes_between, Measured, Pass, Passes, Sim, Sizes};
use cim_bigint::mul::schoolbook;
use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_crossbar::EnduranceReport;
use cim_mir::OptLevel;
use karatsuba_cim::multiplier::{ExecutionReport, KaratsubaCimMultiplier};
use karatsuba_cim::multiply::MultiplyStage;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::PrecomputeStage;
use std::hint::black_box;
use std::time::Instant;

/// Calls made while warming up, per multiplier, before timing starts.
/// The first compiles and caches the stage programs.
const WARM_CALLS: usize = 2;

/// Operand pairs per `multiply_batch` call: one per bit of a lane word.
const LANES: usize = 64;

/// One seeded multiplication with its schoolbook product.
struct Call {
    width_index: usize,
    a: Uint,
    b: Uint,
    expected: Uint,
}

fn call(rng: &mut UintRng, width_index: usize, width: usize) -> Call {
    let a = rng.uniform(width);
    let b = rng.uniform(width);
    let expected = schoolbook::mul(&a, &b);
    Call {
        width_index,
        a,
        b,
        expected,
    }
}

/// The three stages of one width, built as `multiply` builds them.
pub struct Stages {
    pub pre: PrecomputeStage,
    pub mult: MultiplyStage,
    pub post: PostcomputeStage,
}

impl Stages {
    pub fn new(n: usize, opt: OptLevel) -> Self {
        Stages {
            pre: PrecomputeStage::with_opt_level(n, opt).expect("width is a multiple of 4"),
            mult: MultiplyStage::with_opt_level(n, opt).expect("width is a multiple of 4"),
            post: PostcomputeStage::with_opt_level(n, opt).expect("width is a multiple of 4"),
        }
    }
}

fn multiplier(n: usize, opt: OptLevel) -> KaratsubaCimMultiplier {
    KaratsubaCimMultiplier::with_opt_level(n, opt).expect("width is a multiple of 4")
}

/// Per-width host times of the chained stage calls.
#[derive(Default)]
pub struct StageTimes {
    pub pre: Samples,
    pub mult: Samples,
    pub post: Samples,
    pub gold: Samples,
}

/// Warm solo multiplication at `OptLevel::MAX` over a seeded sequence
/// of calls that holds each configured width equally often.
pub struct Solo {
    pub widths: Vec<usize>,
    mults: Vec<KaratsubaCimMultiplier>,
    calls: Vec<Call>,
    warm: Vec<Call>,
}

impl Solo {
    /// Draws the seeded inputs; builds nothing in the library.
    fn inputs(sizes: &Sizes, seed: u64) -> (Vec<usize>, Vec<Call>, Vec<Call>) {
        let widths = sizes.solo_widths.clone();
        let mut rng = UintRng::seeded(seed ^ 0x5010);
        // Every width equally often, in a seeded order: the seed moves
        // operands and order, never the width mix.
        let mut order: Vec<usize> = (0..sizes.solo_calls).map(|k| k % widths.len()).collect();
        for k in (1..order.len()).rev() {
            order.swap(k, rng.range(0, k + 1));
        }
        let calls = order
            .into_iter()
            .map(|i| call(&mut rng, i, widths[i]))
            .collect();
        let warm = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| call(&mut rng, i, w))
            .collect();
        (widths, calls, warm)
    }

    /// Builds one multiplier per width and warms each; returns the
    /// workload and its set-up time (construction plus warm-up calls).
    pub fn setup(sizes: &Sizes, seed: u64, report: &mut Report) -> (Self, f64) {
        let (widths, calls, warm) = Self::inputs(sizes, seed);
        let t0 = Instant::now();
        let mults: Vec<_> = widths
            .iter()
            .map(|&w| multiplier(w, OptLevel::MAX))
            .collect();
        for c in &warm {
            for _ in 0..WARM_CALLS {
                let out = mults[c.width_index].multiply(black_box(&c.a), black_box(&c.b));
                report.check(matches!(&out, Ok(o) if o.product == c.expected));
            }
        }
        let setup_s = t0.elapsed().as_secs_f64();
        (
            Solo {
                widths,
                mults,
                calls,
                warm,
            },
            setup_s,
        )
    }

    /// Closed loop of `multiply` calls, one pass over the seeded calls
    /// after the other, until `seconds` have passed. Simulated cost
    /// comes from the first pass, so it repeats exactly.
    pub fn run(&self, seconds: f64, between: &mut dyn FnMut(f64), report: &mut Report) -> Measured {
        let mut first_pass: Vec<ExecutionReport> = Vec::with_capacity(self.calls.len());
        let passes = run_passes_between(seconds, between, |p| {
            let mut pass = Pass::default();
            for c in &self.calls {
                let mult = &self.mults[c.width_index];
                let t0 = Instant::now();
                let out = black_box(mult.multiply(black_box(&c.a), black_box(&c.b)));
                pass.calls.push(t0.elapsed());
                let ok = matches!(&out, Ok(o) if o.product == c.expected);
                report.check(ok);
                pass.ops += u64::from(ok);
                if let (0, Ok(o)) = (p, out) {
                    first_pass.push(o.report);
                }
            }
            pass
        });
        let latencies: Vec<f64> = first_pass.iter().map(|r| r.total_latency as f64).collect();
        let max_cell_writes = first_pass
            .iter()
            .map(|r| EnduranceReport::max_over(&r.endurance))
            .max()
            .unwrap_or(0);
        Measured {
            passes,
            sim: Sim::of_calls(&latencies, max_cell_writes),
        }
    }

    /// The traced loop: each call runs `PrecomputeStage::run`,
    /// `MultiplyStage::run`, `PostcomputeStage::run` and the gold
    /// product, timed one by one. On the first pass each chained
    /// result is checked against `multiply` on the same operands:
    /// product, stage cycles and per-stage endurance must be identical.
    pub fn run_traced(&self, seconds: f64, report: &mut Report) -> (Passes, Vec<StageTimes>) {
        let stages: Vec<Stages> = self
            .widths
            .iter()
            .map(|&w| Stages::new(w, OptLevel::MAX))
            .collect();
        let reference: Vec<_> = self
            .calls
            .iter()
            .map(|c| self.mults[c.width_index].multiply(&c.a, &c.b).ok())
            .collect();
        let mut times: Vec<StageTimes> =
            self.widths.iter().map(|_| StageTimes::default()).collect();
        let passes = run_passes(seconds, |p| {
            let mut pass = Pass::default();
            for (c, reference) in self.calls.iter().zip(&reference) {
                let (s, t) = (&stages[c.width_index], &mut times[c.width_index]);
                let t0 = Instant::now();
                let chained = (|| {
                    let pre = black_box(s.pre.run(black_box(&c.a), black_box(&c.b))?);
                    let t1 = Instant::now();
                    let mult = black_box(s.mult.run(&pre.a_leaves, &pre.b_leaves)?);
                    let t2 = Instant::now();
                    let post = black_box(s.post.run(&mult.products)?);
                    let t3 = Instant::now();
                    let gold = black_box(black_box(&c.a) * black_box(&c.b));
                    let t4 = Instant::now();
                    t.pre.push(t1 - t0);
                    t.mult.push(t2 - t1);
                    t.post.push(t3 - t2);
                    t.gold.push(t4 - t3);
                    Ok::<_, cim_crossbar::CrossbarError>((pre, mult, post, gold))
                })();
                pass.calls.push(t0.elapsed());
                let ok = chained.is_ok_and(|(pre, mult, post, gold)| {
                    let same_as_multiply = p > 0
                        || reference.as_ref().is_some_and(|r| {
                            r.product == post.product
                                && r.report.stage_cycles
                                    == [pre.stats.cycles, mult.cycles, post.stats.cycles]
                                && r.report.endurance
                                    == [pre.endurance, mult.endurance, post.endurance]
                        });
                    post.product == gold && post.product == c.expected && same_as_multiply
                });
                report.check(ok);
                pass.ops += u64::from(ok);
            }
            pass
        });
        (passes, times)
    }

    /// One seeded operand pair per width, for the per-width probes.
    pub fn probe_inputs(&self) -> Vec<(usize, &Uint, &Uint)> {
        self.warm
            .iter()
            .map(|c| (self.widths[c.width_index], &c.a, &c.b))
            .collect()
    }

    pub fn multiplier(&self, width_index: usize) -> &KaratsubaCimMultiplier {
        &self.mults[width_index]
    }
}

/// One seeded batch of operand pairs with their schoolbook products.
struct Batch {
    pairs: Vec<(Uint, Uint)>,
    expected: Vec<Uint>,
}

/// Warm bit-sliced `multiply_batch` of one width at `OptLevel::MAX`.
pub struct Batched {
    pub width: usize,
    mult: KaratsubaCimMultiplier,
    batches: Vec<Batch>,
}

/// Host times of the chained batch stages.
#[derive(Default)]
pub struct BatchStageTimes {
    pub pre: Samples,
    pub mult: Samples,
    pub post: Samples,
}

impl Batched {
    fn inputs(sizes: &Sizes, seed: u64) -> Vec<Batch> {
        let mut rng = UintRng::seeded(seed ^ 0xBA7C);
        (0..sizes.batch_inputs.max(1))
            .map(|_| {
                let pairs: Vec<(Uint, Uint)> = (0..LANES)
                    .map(|_| {
                        (
                            rng.uniform(sizes.batch_width),
                            rng.uniform(sizes.batch_width),
                        )
                    })
                    .collect();
                let expected = pairs.iter().map(|(a, b)| schoolbook::mul(a, b)).collect();
                Batch { pairs, expected }
            })
            .collect()
    }

    /// Builds the multiplier and warms it with the first seeded batch.
    pub fn setup(sizes: &Sizes, seed: u64, report: &mut Report) -> (Self, f64) {
        let batches = Self::inputs(sizes, seed);
        let t0 = Instant::now();
        let mult = multiplier(sizes.batch_width, OptLevel::MAX);
        for _ in 0..WARM_CALLS {
            let out = mult.multiply_batch(black_box(&batches[0].pairs));
            report.check(matches!(&out, Ok(o) if o.products == batches[0].expected));
        }
        let setup_s = t0.elapsed().as_secs_f64();
        let b = Batched {
            width: sizes.batch_width,
            mult,
            batches,
        };
        (b, setup_s)
    }

    /// Closed loop of `multiply_batch` calls, one pass over the seeded
    /// batches after the other. Simulated cost comes from the first
    /// pass.
    pub fn run(&self, seconds: f64, between: &mut dyn FnMut(f64), report: &mut Report) -> Measured {
        let mut latencies = Vec::new();
        let mut max_cell_writes = 0;
        let passes = run_passes_between(seconds, between, |p| {
            let mut pass = Pass::default();
            for batch in &self.batches {
                let t0 = Instant::now();
                let out = black_box(self.mult.multiply_batch(black_box(&batch.pairs)));
                pass.calls.push(t0.elapsed());
                let Ok(o) = out else {
                    report.check(false);
                    continue;
                };
                report.check(o.products.len() == batch.expected.len());
                for (got, want) in o.products.iter().zip(&batch.expected) {
                    report.check(got == want);
                    pass.ops += u64::from(got == want);
                }
                if p == 0 {
                    latencies.push(o.total_latency as f64);
                    let lanes = o.lane_endurance.iter().flatten();
                    max_cell_writes = lanes.map(|r| r.max_writes).fold(max_cell_writes, u64::max);
                }
            }
            pass
        });
        Measured {
            passes,
            sim: Sim::of_calls(&latencies, max_cell_writes),
        }
    }

    /// The traced loop: `run_batch` of each stage, chained as
    /// `multiply_batch` chains them, plus the lane-wise gold check.
    /// On the first pass the chained lanes must match `multiply_batch`
    /// exactly: products, stage cycles and per-lane endurance.
    pub fn run_traced(&self, seconds: f64, report: &mut Report) -> (Passes, BatchStageTimes) {
        let stages = Stages::new(self.width, OptLevel::MAX);
        let reference: Vec<_> = self
            .batches
            .iter()
            .map(|b| self.mult.multiply_batch(&b.pairs).ok())
            .collect();
        let mut times = BatchStageTimes::default();
        let passes = run_passes(seconds, |p| {
            let mut pass = Pass::default();
            for (batch, reference) in self.batches.iter().zip(&reference) {
                let t0 = Instant::now();
                let chained = (|| {
                    let pre = black_box(stages.pre.run_batch(black_box(&batch.pairs))?);
                    let t1 = Instant::now();
                    let mult = black_box(stages.mult.run_batch(&pre.a_leaves, &pre.b_leaves)?);
                    let t2 = Instant::now();
                    let post = black_box(stages.post.run_batch(&mult.products)?);
                    let t3 = Instant::now();
                    let gold: Vec<Uint> =
                        batch.pairs.iter().map(|(a, b)| black_box(a * b)).collect();
                    times.pre.push(t1 - t0);
                    times.mult.push(t2 - t1);
                    times.post.push(t3 - t2);
                    Ok::<_, cim_crossbar::CrossbarError>((pre, mult, post, gold))
                })();
                pass.calls.push(t0.elapsed());
                let Ok((pre, mult, post, gold)) = chained else {
                    report.check(false);
                    continue;
                };
                for ((got, g), want) in post.products.iter().zip(&gold).zip(&batch.expected) {
                    report.check(got == g && got == want);
                    pass.ops += u64::from(got == g && got == want);
                }
                if p == 0 {
                    report.check(reference.as_ref().is_some_and(|r| {
                        r.products == post.products
                            && r.stage_cycles == [pre.stats.cycles, mult.cycles, post.stats.cycles]
                            && r.lane_endurance == [pre.endurance, mult.endurance, post.endurance]
                    }));
                }
            }
            pass
        });
        (passes, times)
    }

    /// The operands of the first seeded batch, `a` side.
    pub fn first_operands(&self) -> Vec<&Uint> {
        self.batches[0].pairs.iter().map(|(a, _)| a).collect()
    }
}
