//! Differential equivalence of the cim-mir optimization pipeline.
//!
//! Every optimization level must produce the same products as the
//! paper-exact `O0` programs — on the single-instance executor
//! path (`multiply`), the bit-sliced batch path (`multiply_batch`, all
//! lanes), and the squaring fast path — while never spending more
//! cycles or cell writes. `O0` itself must be byte-for-byte the legacy
//! pipeline: identical reports, not merely identical products.

use cim_bigint::rng::UintRng;
use cim_bigint::Uint;
use cim_mir::OptLevel;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use proptest::prelude::*;

#[test]
fn o0_is_the_legacy_pipeline_byte_for_byte() {
    let mut rng = UintRng::seeded(101);
    for n in [16usize, 64] {
        let a = rng.uniform(n);
        let b = rng.uniform(n);
        let legacy = KaratsubaCimMultiplier::new(n).unwrap();
        let o0 = KaratsubaCimMultiplier::with_opt_level(n, OptLevel::O0).unwrap();
        let lhs = legacy.multiply(&a, &b).unwrap();
        let rhs = o0.multiply(&a, &b).unwrap();
        assert_eq!(lhs.product, rhs.product, "n = {n}");
        assert_eq!(lhs.report, rhs.report, "n = {n}: O0 must be the identity");
    }
}

#[test]
fn every_opt_level_matches_gold_with_monotone_cycles() {
    let mut rng = UintRng::seeded(103);
    for n in [16usize, 64, 128] {
        let a = rng.uniform(n);
        let b = rng.uniform(n);
        let expected = &a * &b;
        let mut prev_latency = u64::MAX;
        let baseline = KaratsubaCimMultiplier::new(n)
            .unwrap()
            .multiply(&a, &b)
            .unwrap();
        for opt in OptLevel::ALL {
            let mult = KaratsubaCimMultiplier::with_opt_level(n, opt).unwrap();
            assert_eq!(mult.opt_level(), opt);
            let out = mult.multiply(&a, &b).unwrap();
            assert_eq!(out.product, expected, "n = {n}, {opt}");
            assert!(
                out.report.total_latency <= prev_latency,
                "n = {n}, {opt}: latency {} regressed over previous level {}",
                out.report.total_latency,
                prev_latency
            );
            prev_latency = out.report.total_latency;
            // Optimization may only remove work: never more cell
            // writes than the paper-exact program, in any stage.
            for stage in 0..3 {
                assert!(
                    out.report.endurance[stage].total_writes
                        <= baseline.report.endurance[stage].total_writes,
                    "n = {n}, {opt}: stage {stage} write count regressed"
                );
            }
        }
        // The full pipeline must beat the paper at max opt.
        let o3 = KaratsubaCimMultiplier::with_opt_level(n, OptLevel::MAX)
            .unwrap()
            .multiply(&a, &b)
            .unwrap();
        assert!(
            o3.report.total_latency < baseline.report.total_latency,
            "n = {n}: O3 {} must beat O0 {}",
            o3.report.total_latency,
            baseline.report.total_latency
        );
    }
}

#[test]
fn batch_lanes_are_equivalent_at_max_opt() {
    let mut rng = UintRng::seeded(107);
    let n = 32;
    let lanes = 64;
    let mult = KaratsubaCimMultiplier::with_opt_level(n, OptLevel::MAX).unwrap();
    let pairs: Vec<(Uint, Uint)> = (0..lanes)
        .map(|_| (rng.uniform(n), rng.uniform(n)))
        .collect();
    let batch = mult.multiply_batch(&pairs).unwrap();
    for (lane, (a, b)) in pairs.iter().enumerate() {
        assert_eq!(batch.products[lane], a * b, "lane {lane}");
    }
    // The sliced backend charges exactly the packed backend's cycles.
    let solo = mult.multiply(&pairs[0].0, &pairs[0].1).unwrap();
    assert_eq!(batch.stage_cycles, solo.report.stage_cycles);
    assert_eq!(batch.total_latency, solo.report.total_latency);
}

#[test]
fn square_fast_path_is_equivalent_and_faster_at_max_opt() {
    let mut rng = UintRng::seeded(109);
    for n in [16usize, 64] {
        let a = rng.uniform(n);
        let o0 = KaratsubaCimMultiplier::new(n).unwrap().square(&a).unwrap();
        let o3 = KaratsubaCimMultiplier::with_opt_level(n, OptLevel::MAX)
            .unwrap()
            .square(&a)
            .unwrap();
        assert_eq!(o3.product, &a * &a, "n = {n}");
        assert!(
            o3.report.stage_cycles[0] < o0.report.stage_cycles[0],
            "n = {n}: optimized square precompute must be faster"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round trip across the whole opt ladder on random operands: the
    /// optimized hardware programs and the paper-exact ones agree with
    /// the software gold product for every input.
    #[test]
    fn prop_opt_ladder_round_trips(a_raw in 0u64..=u64::MAX, b_raw in 0u64..=u64::MAX, wide in any::<bool>()) {
        let n = if wide { 64 } else { 16 };
        let a = Uint::from_u64(a_raw).low_bits(n);
        let b = Uint::from_u64(b_raw).low_bits(n);
        let expected = &a * &b;
        for opt in OptLevel::ALL {
            let mult = KaratsubaCimMultiplier::with_opt_level(n, opt).unwrap();
            let out = mult.multiply(&a, &b).unwrap();
            prop_assert_eq!(&out.product, &expected, "n = {}, {}", n, opt);
        }
    }
}
