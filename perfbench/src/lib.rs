//! Warm host-time and exact simulated-cost benchmark of the Karatsuba
//! CIM multiplier and its serving engine. See `README.md` for the
//! workloads, the metrics and how to run it.

mod layers;
mod mul;
pub mod report;
mod serve;
mod stats;

use report::Report;
use stats::Samples;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm solo `multiply` at O3, widths drawn from 512/1024/2048.
    MulSoloO3,
    /// Warm 64-lane `multiply_batch` of 2048-bit pairs at O3.
    MulBatch64O3,
    /// The zkEVM-precompile trace through the sync serving engine.
    ServeZkevm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MulSoloO3,
        Workload::MulBatch64O3,
        Workload::ServeZkevm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MulSoloO3 => "mul_solo_o3",
            Workload::MulBatch64O3 => "mul_batch64_o3",
            Workload::ServeZkevm => "serve_zkevm",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::full`] is what the command runs;
/// [`Sizes::tiny`] keeps the self-test fast.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub solo_widths: Vec<usize>,
    /// Distinct seeded calls the solo loop cycles through.
    pub solo_calls: usize,
    pub batch_width: usize,
    /// Distinct seeded batches the batch loop cycles through.
    pub batch_inputs: usize,
    pub serve_requests: u64,
    /// Repetitions of each fixed-count layer probe.
    pub probe_reps: usize,
    /// Seconds each traced loop of a workload other than the named one
    /// runs (at least two passes over its inputs).
    pub side_seconds: f64,
    /// Cold set-ups an untraced run spreads over its measuring time,
    /// besides its own.
    pub cold_setups: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            solo_widths: vec![512, 1024, 2048],
            solo_calls: 48,
            batch_width: 2048,
            batch_inputs: 8,
            serve_requests: 10_000,
            probe_reps: 15,
            side_seconds: 1.5,
            cold_setups: 47,
        }
    }

    pub fn tiny() -> Self {
        Sizes {
            solo_widths: vec![64, 128],
            solo_calls: 6,
            batch_width: 128,
            batch_inputs: 2,
            serve_requests: 300,
            probe_reps: 2,
            side_seconds: 0.0,
            cold_setups: 2,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// Exact virtual-time figures of a workload; they depend only on the
/// seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Sim {
    pub latency_mean_cycles: f64,
    pub latency_p99_cycles: f64,
    pub max_cell_writes: f64,
    pub served_frac: f64,
}

/// Host time of one pass over a workload's seeded inputs. Every pass
/// of a run does the same work, so passes compare directly.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pass {
    /// Host time of each call into the library.
    pub calls: Samples,
    /// Host time spent in the library outside the latency samples.
    pub busy_extra_s: f64,
    /// Verified products, or served requests.
    pub ops: u64,
    /// For each answered request, the index of the call that handed it
    /// in and of the call that answered it; `calls.len()` stands for
    /// the step timed in `busy_extra_s`. Empty when every call answers
    /// its own request. Only the first pass of a run needs it: every
    /// pass answers alike.
    pub answers: Vec<(usize, usize)>,
}

/// The passes of a run, folded in one by one so that memory does not
/// grow with their number.
///
/// Host-time metrics are the lower envelope of the passes: each seeded
/// call's quickest time over every pass of the run. The machine this
/// benchmark was tuned on is shared, and other tenants slow every call
/// by up to 2x for seconds to minutes at a time; each call's quickest
/// time is the steady estimate of what the code costs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Passes {
    /// Each call's quickest time.
    best: Vec<f64>,
    /// The quickest `busy_extra_s`.
    best_extra_s: f64,
    /// The fewest operations of a pass.
    least_ops: u64,
    /// The first pass's answers.
    answers: Vec<(usize, usize)>,
    /// Host time of each pass, in order.
    busy_s: Vec<f64>,
    /// Operations of every pass, summed.
    ops: u64,
}

impl Passes {
    fn add(&mut self, pass: Pass) {
        let calls = pass.calls.as_slice();
        if self.busy_s.is_empty() {
            self.best = calls.to_vec();
            self.best_extra_s = pass.busy_extra_s;
            self.least_ops = pass.ops;
            self.answers = pass.answers;
        } else {
            for (best, &t) in self.best.iter_mut().zip(calls) {
                *best = best.min(t);
            }
            self.best_extra_s = self.best_extra_s.min(pass.busy_extra_s);
            self.least_ops = self.least_ops.min(pass.ops);
        }
        self.busy_s.push(pass.calls.busy_s() + pass.busy_extra_s);
        self.ops += pass.ops;
    }

    pub fn count(&self) -> usize {
        self.busy_s.len()
    }

    /// Calls per pass.
    fn calls(&self) -> usize {
        self.best.len()
    }

    /// Operations per second of the lower envelope.
    fn ops_per_s(&self) -> f64 {
        self.least_ops as f64 / (self.best.iter().sum::<f64>() + self.best_extra_s)
    }

    /// Operations per second over every pass, as measured.
    fn mean_ops_per_s(&self) -> f64 {
        self.ops as f64 / self.busy_s.iter().sum::<f64>()
    }

    /// Host latency of each answered request in the lower envelope:
    /// from the start of the call that handed it in to the end of the
    /// call that answered it.
    fn latencies(&self) -> Vec<f64> {
        if self.answers.is_empty() {
            return self.best.clone();
        }
        let mut elapsed = Vec::with_capacity(self.best.len() + 2);
        elapsed.push(0.0);
        for t in self.best.iter().chain([&self.best_extra_s]) {
            elapsed.push(elapsed.last().copied().unwrap_or(0.0) + t);
        }
        self.answers
            .iter()
            .map(|&(handed_in, answered)| elapsed[answered + 1] - elapsed[handed_in])
            .collect()
    }
}

impl Sim {
    /// Simulated cost of a multiplication workload, from the virtual
    /// latency of each call: every product is served.
    pub fn of_calls(latencies: &[f64], max_cell_writes: u64) -> Self {
        Sim {
            latency_mean_cycles: stats::mean(latencies),
            latency_p99_cycles: stats::nearest_rank(latencies, 0.99),
            max_cell_writes: max_cell_writes as f64,
            served_frac: 1.0,
        }
    }
}

/// What a timed loop measured.
#[derive(Debug, Clone, Default)]
pub(crate) struct Measured {
    pub passes: Passes,
    pub sim: Sim,
}

/// Runs `pass` (given its index) at least twice and until `seconds`
/// have passed.
pub(crate) fn run_passes(seconds: f64, pass: impl FnMut(usize) -> Pass) -> Passes {
    run_passes_between(seconds, &mut |_| (), pass)
}

/// [`run_passes`] that calls `between` after each pass with the
/// seconds the passes have taken so far. Time spent in `between` does
/// not count toward `seconds`.
pub(crate) fn run_passes_between(
    seconds: f64,
    between: &mut dyn FnMut(f64),
    mut pass: impl FnMut(usize) -> Pass,
) -> Passes {
    let budget = Duration::from_secs_f64(seconds);
    let mut measured = Duration::ZERO;
    let mut passes = Passes::default();
    while passes.count() < 2 || measured < budget {
        let t0 = Instant::now();
        passes.add(pass(passes.count()));
        measured += t0.elapsed();
        between(measured.as_secs_f64());
    }
    passes
}

/// A workload with its library objects built and warm.
enum Ready {
    Solo(mul::Solo),
    Batch(mul::Batched),
    Serve(Box<serve::Serve>),
}

impl Ready {
    fn setup(workload: Workload, opts: &Options, report: &mut Report) -> (Self, f64) {
        let (sizes, seed) = (&opts.sizes, opts.seed);
        match workload {
            Workload::MulSoloO3 => {
                let (w, s) = mul::Solo::setup(sizes, seed, report);
                (Ready::Solo(w), s)
            }
            Workload::MulBatch64O3 => {
                let (w, s) = mul::Batched::setup(sizes, seed, report);
                (Ready::Batch(w), s)
            }
            Workload::ServeZkevm => {
                let (w, s) = serve::Serve::setup(sizes, seed, report);
                (Ready::Serve(Box::new(w)), s)
            }
        }
    }

    fn run(&mut self, seconds: f64, between: &mut dyn FnMut(f64), report: &mut Report) -> Measured {
        match self {
            Ready::Solo(w) => w.run(seconds, between, report),
            Ready::Batch(w) => w.run(seconds, between, report),
            Ready::Serve(w) => w.run(seconds, between, report),
        }
    }
}

/// Sets the workload up once and returns the set-up time in seconds;
/// the command runs this in child processes, since the program cache
/// is process-wide, to time cold set-ups during a run.
pub fn setup_only(opts: &Options, report: &mut Report) -> f64 {
    Ready::setup(opts.workload, opts, report).1
}

/// Runs the workload untraced (end-to-end metrics) or traced
/// (per-layer metrics). An untraced run calls `cold_setup`
/// `Sizes::cold_setups` times, spread over its measuring time; the
/// set-up times it returns and this run's own give `setup_s`.
pub fn run(opts: &Options, cold_setup: &mut dyn FnMut() -> Result<f64, String>) -> Report {
    let mut report = Report::default();
    let (mut ready, setup_s) = Ready::setup(opts.workload, opts, &mut report);
    if opts.trace {
        traced(opts, ready, &mut report);
        return report;
    }
    let wanted = opts.sizes.cold_setups;
    let interval = opts.seconds / wanted.max(1) as f64;
    let mut cold = Vec::with_capacity(wanted);
    let m = ready.run(
        opts.seconds,
        &mut |measured_s| {
            if cold.len() < wanted && measured_s >= cold.len() as f64 * interval {
                cold.push(cold_setup());
            }
        },
        &mut report,
    );
    while cold.len() < wanted {
        cold.push(cold_setup());
    }
    let mut setups = vec![setup_s];
    for probe in cold {
        match probe {
            Ok(s) => setups.push(s),
            Err(e) => report.note(e),
        }
    }
    report.check(setups.len() == wanted + 1);
    let p = &m.passes;
    if !stats::grows(&p.busy_s) {
        report.note("host time did not grow with the number of calls");
        report.check(false);
    }
    let latencies = p.latencies();
    let (p50_ms, p99_ms) = (
        stats::nearest_rank(&latencies, 0.5) * 1e3,
        stats::nearest_rank(&latencies, 0.99) * 1e3,
    );
    report.note(format!(
        "passes: {} of {} calls, {:.1} ops/s over all of them; cold set-ups: {}, ms min {:.2} median {:.2} max {:.2}",
        p.count(),
        p.calls(),
        p.mean_ops_per_s(),
        setups.len(),
        stats::least(setups.iter().copied()) * 1e3,
        stats::median(&setups) * 1e3,
        stats::nearest_rank(&setups, 1.0) * 1e3,
    ));
    report.put("ops_per_s", p.ops_per_s(), "1/s");
    report.put("latency_p50_ms", p50_ms, "ms");
    report.put("latency_p99_ms", p99_ms, "ms");
    // The quickest cold set-up, the set-up's lower envelope. On the
    // shared machine this benchmark was tuned on, the same cold set-up
    // took from its quickest time to about twice that, in shares that
    // change from minute to minute; the median of a run's set-ups moved
    // with them.
    report.put("setup_s", stats::least(setups.iter().copied()), "s");
    report.put("served_frac", m.sim.served_frac, "frac");
    report.put("sim_latency_cycles", m.sim.latency_mean_cycles, "cycles");
    report.put("sim_p99_latency_cycles", m.sim.latency_p99_cycles, "cycles");
    report.put("sim_max_cell_writes", m.sim.max_cell_writes, "count");
    report.put(
        "peak_rss_mb",
        stats::peak_rss_mb().expect("VmHWM in /proc/self/status"),
        "MiB",
    );
    report
}

/// The traced run: the named workload runs untraced and then traced
/// for half the time each (`trace.overhead_frac`); the other two
/// workloads run traced briefly, and the fixed-count probes follow, so
/// every per-layer metric is reported whatever the workload.
fn traced(opts: &Options, mut ready: Ready, report: &mut Report) {
    let sizes = &opts.sizes;
    let half = opts.seconds / 2.0;
    let (_, misses_before) = karatsuba_cim::progcache::stats();
    let untraced = ready.run(half, &mut |_| (), report);
    let (_, misses_after) = karatsuba_cim::progcache::stats();
    let mut timed_misses = misses_after - misses_before;

    let budget = |w: Workload| {
        if w == opts.workload {
            half
        } else {
            sizes.side_seconds
        }
    };
    let mut overhead = None;
    let mut note_overhead = |w: Workload, traced: &Passes| {
        if w == opts.workload {
            overhead = Some(1.0 - traced.ops_per_s() / untraced.passes.ops_per_s());
        }
    };
    let (mut solo, mut batch, mut srv) = (None, None, None);
    match ready {
        Ready::Solo(w) => solo = Some(w),
        Ready::Batch(w) => batch = Some(w),
        Ready::Serve(w) => srv = Some(*w),
    }

    // Solo stages, gold product and per-width probes.
    let solo = solo.unwrap_or_else(|| mul::Solo::setup(sizes, opts.seed, report).0);
    let (_, before) = karatsuba_cim::progcache::stats();
    let (passes, times) = solo.run_traced(budget(Workload::MulSoloO3), report);
    timed_misses += karatsuba_cim::progcache::stats().1 - before;
    note_overhead(Workload::MulSoloO3, &passes);
    for (w, t) in solo.widths.iter().zip(&times) {
        report.put(format!("core.precompute.p50_us.w{w}"), t.pre.p50_us(), "us");
        report.put(format!("core.multiply.p50_us.w{w}"), t.mult.p50_us(), "us");
        report.put(
            format!("core.postcompute.p50_us.w{w}"),
            t.post.p50_us(),
            "us",
        );
        report.put(format!("bigint.gold.p50_us.w{w}"), t.gold.p50_us(), "us");
    }
    for (i, (w, a, b)) in solo.probe_inputs().into_iter().enumerate() {
        layers::simulated(solo.multiplier(i), a, b, report);
        layers::verify(w, a, b, sizes.probe_reps, report);
        layers::o0_multiply(w, a, b, sizes.probe_reps, report);
        layers::lowering(w, sizes.probe_reps.min(5), report);
    }

    // Batch stages and the lane transpose.
    let batch = batch.unwrap_or_else(|| mul::Batched::setup(sizes, opts.seed, report).0);
    let (_, before) = karatsuba_cim::progcache::stats();
    let (passes, times) = batch.run_traced(budget(Workload::MulBatch64O3), report);
    timed_misses += karatsuba_cim::progcache::stats().1 - before;
    note_overhead(Workload::MulBatch64O3, &passes);
    report.put(
        "core.precompute.run_batch.p50_ms",
        times.pre.quantile(0.5) * 1e3,
        "ms",
    );
    report.put(
        "core.multiply.run_batch.p50_ms",
        times.mult.quantile(0.5) * 1e3,
        "ms",
    );
    report.put(
        "core.postcompute.run_batch.p50_ms",
        times.post.quantile(0.5) * 1e3,
        "ms",
    );
    layers::transpose(
        &batch.first_operands(),
        batch.width,
        sizes.probe_reps * 10,
        report,
    );

    // Serving layers.
    let mut srv = srv.unwrap_or_else(|| serve::Serve::setup(sizes, opts.seed, report).0);
    let (passes, t) = srv.run_traced(budget(Workload::ServeZkevm), report);
    note_overhead(Workload::ServeZkevm, &passes);
    let per_replay = |s: &Samples| s.busy_s() * 1e3 / passes.count() as f64;
    report.put("serve.submit_admit.p50_us", t.submit_admit.p50_us(), "us");
    report.put(
        "serve.submit_admit.busy_ms",
        per_replay(&t.submit_admit),
        "ms",
    );
    report.put("serve.submit_flush.p50_us", t.submit_flush.p50_us(), "us");
    report.put(
        "serve.submit_flush.busy_ms",
        per_replay(&t.submit_flush),
        "ms",
    );
    report.put("serve.drain.busy_ms", per_replay(&t.drain), "ms");
    report.put("serve.resolve.busy_ms", per_replay(&t.resolve), "ms");
    for (kind, s) in cim_serve::OpKind::ALL.iter().zip(&t.exec) {
        report.put(
            format!("modmul.exec.{}.p50_us", kind.label()),
            s.p50_us(),
            "us",
        );
    }
    report.put(
        "serve.client_verify.busy_ms",
        per_replay(&t.client_verify),
        "ms",
    );
    let stats = t.stats.expect("at least one traced replay");
    report.put("serve.batches", stats.batches as f64, "count");
    report.put("serve.farm_jobs", stats.jobs as f64, "count");
    let shed = |f: fn(&cim_serve::engine::TenantSummary) -> u64| {
        stats.tenants.iter().map(f).sum::<u64>() as f64
    };
    report.put(
        "serve.shed_rate_limited",
        shed(|t| t.shed_rate_limited),
        "count",
    );
    report.put(
        "serve.shed_queue_full",
        shed(|t| t.shed_queue_full),
        "count",
    );
    let utilization =
        stats.farms.iter().map(|f| f.utilization).sum::<f64>() / stats.farms.len().max(1) as f64;
    report.put("sched.utilization", utilization, "frac");

    let (hits, misses) = karatsuba_cim::progcache::stats();
    report.put("core.progcache.hits", hits as f64, "count");
    report.put("core.progcache.misses", misses as f64, "count");
    report.put("core.progcache.timed_misses", timed_misses as f64, "count");
    report.check(timed_misses == 0);
    report.put(
        "trace.overhead_frac",
        overhead.expect("the named workload ran traced"),
        "frac",
    );
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    report.check(names == per_layer_names(sizes));
}

/// Every per-layer metric a traced run reports, in order.
pub fn per_layer_names(sizes: &Sizes) -> Vec<String> {
    let mut names = Vec::new();
    for w in &sizes.solo_widths {
        for call in [
            "core.precompute",
            "core.multiply",
            "core.postcompute",
            "bigint.gold",
        ] {
            names.push(format!("{call}.p50_us.w{w}"));
        }
    }
    for &w in &sizes.solo_widths {
        for stage in ["precompute", "multiply", "postcompute", "o0_baseline"] {
            names.push(format!("sim.{stage}_cycles.w{w}"));
        }
        for stage in ["precompute", "postcompute"] {
            names.push(format!("crossbar.{stage}.ops.w{w}"));
            names.push(format!("crossbar.{stage}.magic_ops.w{w}"));
        }
        for name in [
            "sim.writes_per_op",
            "sim.energy_pj_per_op",
            "check.verify.p50_us",
            "ref.o0_multiply.p50_us",
        ] {
            names.push(format!("{name}.w{w}"));
        }
        for adder in [w / 4 + 1, 3 * w / 2] {
            for k in 1..=3 {
                names.push(format!("mir.lower_ms.o{k}.w{adder}"));
            }
        }
    }
    for stage in ["precompute", "multiply", "postcompute"] {
        names.push(format!("core.{stage}.run_batch.p50_ms"));
    }
    names.push("crossbar.lanes.transpose_us".into());
    for call in ["submit_admit", "submit_flush"] {
        names.push(format!("serve.{call}.p50_us"));
        names.push(format!("serve.{call}.busy_ms"));
    }
    names.push("serve.drain.busy_ms".into());
    names.push("serve.resolve.busy_ms".into());
    for kind in cim_serve::OpKind::ALL {
        names.push(format!("modmul.exec.{}.p50_us", kind.label()));
    }
    for name in [
        "serve.client_verify.busy_ms",
        "serve.batches",
        "serve.farm_jobs",
        "serve.shed_rate_limited",
        "serve.shed_queue_full",
        "sched.utilization",
        "core.progcache.hits",
        "core.progcache.misses",
        "core.progcache.timed_misses",
        "trace.overhead_frac",
    ] {
        names.push(name.into());
    }
    names
}
