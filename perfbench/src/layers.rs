//! Per-layer probes that no workload loop covers: static verification
//! of the stage programs, cim-mir lowering, the O0 reference multiply,
//! the 64-lane transpose and the exact per-width simulated cost.

use crate::report::Report;
use crate::stats::Samples;
use cim_bigint::Uint;
use cim_check::VerifyConfig;
use cim_crossbar::lanes::{lane_limbs, transpose_lanes};
use cim_crossbar::{EnergyParams, MicroOp};
use cim_logic::kogge_stone::{AddOp, AdderLayout, KoggeStoneAdder};
use cim_logic::multpim::RowMultiplier;
use cim_mir::OptLevel;
use karatsuba_cim::chunks::LEAVES;
use karatsuba_cim::cost::HANDOFF_CYCLES;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::{postcompute, precompute, progcache};
use std::hint::black_box;
use std::time::Instant;

/// The operations of the eleven postcompute passes, in order.
const POST_PASSES: [AddOp; 11] = [
    AddOp::Add,
    AddOp::Sub,
    AddOp::Add,
    AddOp::Sub,
    AddOp::Add,
    AddOp::Add,
    AddOp::Add,
    AddOp::Add,
    AddOp::Add,
    AddOp::Sub,
    AddOp::Add,
];

/// The programs one `n`-bit multiply hands to the executor, with the
/// configurations `cim_check::verify` checks them under: the
/// precompute program, the nine row-multiplier load prologues and the
/// eleven postcompute passes (staging plus cached adder body).
fn stage_programs(
    n: usize,
    opt: OptLevel,
    a: &Uint,
    b: &Uint,
) -> Vec<(Vec<MicroOp>, VerifyConfig)> {
    let pre =
        precompute::PrecomputeStage::with_opt_level(n, opt).expect("width is a multiple of 4");
    let mut programs = vec![(
        pre.program(a, b),
        VerifyConfig::new(precompute::ROWS, pre.cols()),
    )];

    let row = RowMultiplier::with_opt_level(n / 4 + 2, opt);
    let (la, lb) = (a.low_bits(n / 4 + 2), b.low_bits(n / 4 + 2));
    for i in 0..LEAVES {
        programs.push((
            row.load_program(i, 0, &la, &lb),
            VerifyConfig::new(LEAVES, row.required_cols()),
        ));
    }

    let w = 3 * n / 2;
    let adder = KoggeStoneAdder::with_layout(
        w,
        AdderLayout {
            x_row: 0,
            y_row: 1,
            sum_row: 2,
            scratch: std::array::from_fn(|i| 8 + i),
            col_base: 0,
        },
    );
    let (x, y) = (a.low_bits(w), b.low_bits(w));
    for op in POST_PASSES {
        let mut prog = vec![
            MicroOp::reset_rows(&[0, 1, 2], 0..w + 1),
            MicroOp::write_row_at(0, 0, &x.to_bits(w + 1)),
            MicroOp::write_row_at(1, 0, &y.to_bits(w + 1)),
        ];
        prog.extend_from_slice(&progcache::adder_program_opt(&adder, op, opt));
        programs.push((prog, VerifyConfig::new(postcompute::ROWS, w + 1)));
    }
    programs
}

/// `check.verify.p50_us.wN`: host time to statically verify every
/// program of one multiply.
pub fn verify(n: usize, a: &Uint, b: &Uint, reps: usize, report: &mut Report) {
    let programs = stage_programs(n, OptLevel::MAX, a, b);
    let mut times = Samples::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut ok = true;
        for (prog, config) in &programs {
            ok &= black_box(cim_check::verify(black_box(prog), config)).is_ok();
        }
        times.push(t0.elapsed());
        report.check(ok);
    }
    report.put(format!("check.verify.p50_us.w{n}"), times.p50_us(), "us");
}

/// `ref.o0_multiply.p50_us.wN`: warm paper-exact O0 `multiply`.
pub fn o0_multiply(n: usize, a: &Uint, b: &Uint, reps: usize, report: &mut Report) {
    let mult = KaratsubaCimMultiplier::new(n).expect("width is a multiple of 4");
    let expected = cim_bigint::mul::schoolbook::mul(a, b);
    report.check(mult.multiply(a, b).is_ok_and(|o| o.product == expected));
    let mut times = Samples::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = black_box(mult.multiply(black_box(a), black_box(b)));
        times.push(t0.elapsed());
        report.check(out.is_ok_and(|o| o.product == expected));
    }
    report.put(format!("ref.o0_multiply.p50_us.w{n}"), times.p50_us(), "us");
}

/// `mir.lower_ms.oK.wN`: `KoggeStoneAdder::program_opt` for each stage
/// adder width of an `n`-bit multiply, bypassing the program cache.
pub fn lowering(n: usize, reps: usize, report: &mut Report) {
    let pre_width = precompute::PrecomputeStage::new(n)
        .expect("width is a multiple of 4")
        .adder_width();
    let post_width = postcompute::PostcomputeStage::new(n)
        .expect("width is a multiple of 4")
        .adder_width();
    for width in [pre_width, post_width] {
        let adder = KoggeStoneAdder::new(width);
        for opt in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let mut times = Samples::default();
            for _ in 0..reps {
                let t0 = Instant::now();
                let prog = black_box(adder.program_opt(black_box(AddOp::Add), opt));
                times.push(t0.elapsed());
                report.check(!prog.is_empty());
            }
            let name = format!("mir.lower_ms.o{}.w{width}", opt.index());
            report.put(name, times.quantile(0.5) * 1e3, "ms");
        }
    }
}

/// `crossbar.lanes.transpose_us`: `transpose_lanes` plus `lane_limbs`
/// on one operand per lane, checked to round-trip.
pub fn transpose(operands: &[&Uint], cols: usize, reps: usize, report: &mut Report) {
    let limbs: Vec<&[u64]> = operands.iter().map(|u| u.limbs()).collect();
    let mut times = Samples::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let words = black_box(transpose_lanes(black_box(&limbs), cols));
        let back = black_box(lane_limbs(&words, limbs.len()));
        times.push(t0.elapsed());
        let ok = back
            .into_iter()
            .zip(operands)
            .all(|(l, u)| Uint::from_limbs(l) == **u);
        report.check(ok);
    }
    report.put("crossbar.lanes.transpose_us", times.p50_us(), "us");
}

/// The exact per-width figures of one O3 multiply: stage cycles, the
/// paper-exact O0 baseline, executor op counts, writes and energy.
pub fn simulated(mult: &KaratsubaCimMultiplier, a: &Uint, b: &Uint, report: &mut Report) {
    let n = mult.width();
    let Ok(out) = mult.multiply(a, b) else {
        report.check(false);
        return;
    };
    report.check(true);
    let r = &out.report;
    for (stage, cycles) in ["precompute", "multiply", "postcompute"]
        .iter()
        .zip(r.stage_cycles)
    {
        report.put(format!("sim.{stage}_cycles.w{n}"), cycles as f64, "cycles");
    }
    let baseline = precompute::PrecomputeStage::new(n)
        .expect("width is a multiple of 4")
        .latency()
        + karatsuba_cim::multiply::MultiplyStage::new(n)
            .expect("width is a multiple of 4")
            .latency()
        + postcompute::PostcomputeStage::new(n)
            .expect("width is a multiple of 4")
            .latency()
        + 3 * HANDOFF_CYCLES;
    report.put(
        format!("sim.o0_baseline_cycles.w{n}"),
        baseline as f64,
        "cycles",
    );
    for (stage, stats) in [
        ("precompute", &r.precompute_stats),
        ("postcompute", &r.postcompute_stats),
    ] {
        report.put(
            format!("crossbar.{stage}.ops.w{n}"),
            stats.ops as f64,
            "count",
        );
        report.put(
            format!("crossbar.{stage}.magic_ops.w{n}"),
            stats.magic_ops as f64,
            "count",
        );
    }
    let writes: u64 = r.endurance.iter().map(|e| e.total_writes).sum();
    report.put(format!("sim.writes_per_op.w{n}"), writes as f64, "count");
    report.put(
        format!("sim.energy_pj_per_op.w{n}"),
        r.energy(n, &EnergyParams::default()).total_pj(),
        "pJ",
    );
}
