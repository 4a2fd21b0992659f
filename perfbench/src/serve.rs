//! The serving workload: a seeded zkEVM-precompile trace replayed
//! through the sync `Engine` with a recording `MetricsHub`, as the
//! `loadgen` binary does with `workers = 0`.
//!
//! Arrivals are open loop in virtual time (the seed fixes their cycle
//! stamps and admission runs on that clock); the host replays them
//! closed loop, one `Engine::serve` call after the other. Each replay
//! uses a fresh engine, so every replay makes the same decisions.

use crate::report::Report;
use crate::stats::Samples;
use crate::{run_passes, run_passes_between, Measured, Pass, Passes, Sim, Sizes};
use cim_metrics::MetricsHub;
use cim_serve::engine::CompletedRequest;
use cim_serve::loadgen::generate_trace;
use cim_serve::{
    Disposition, Engine, EngineStats, LoadgenConfig, OpExecutor, OpKind, Request, Response,
};
use std::hint::black_box;
use std::time::Instant;

/// Per-tenant base admission rate, requests per 10⁶ cycles (tenant
/// `i` gets `RATE / (i + 1)`).
const RATE: u64 = 50;
/// Mean inter-arrival gap in cycles: each tenant offers about 50
/// requests per 10⁶ cycles, so the second tenant's bucket sheds about
/// half of its share, a quarter of the trace.
const MEAN_GAP: u64 = 10_000;
/// Share of the trace length replayed on a throwaway engine during
/// set-up.
const WARM_FRACTION: u64 = 16;
/// Seed of the trace that warms the throwaway engine. The head of the
/// seeded trace would make set-up cost depend on how many curve
/// operations the seed puts there; a fixed warm-up trace does the same
/// work for every seed.
const WARM_SEED: u64 = 0x5e7;

/// The engine and trace configuration for a seed.
pub fn config(sizes: &Sizes, seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        requests: sizes.serve_requests,
        tenants: 2,
        rate: RATE,
        mean_gap: MEAN_GAP,
        seed,
        workers: 0,
        ..LoadgenConfig::default()
    }
}

/// The outcome of one replay of the trace.
struct Replay {
    responses: Vec<Response>,
    stats: EngineStats,
}

/// Per-layer host times of traced replays.
#[derive(Default)]
pub struct ServeTimes {
    /// `Engine::submit` calls that flushed no batch.
    pub submit_admit: Samples,
    /// `Engine::submit` calls that flushed at least one batch.
    pub submit_flush: Samples,
    pub drain: Samples,
    pub resolve: Samples,
    /// `OpExecutor::execute`, indexed like `OpKind::ALL`.
    pub exec: [Samples; 4],
    pub client_verify: Samples,
    pub stats: Option<EngineStats>,
}

pub struct Serve {
    config: LoadgenConfig,
    trace: Vec<Request>,
    exec: OpExecutor,
    /// The first full replay, checked request by request.
    reference: Option<Replay>,
}

fn engine(config: &LoadgenConfig) -> Engine {
    let mut engine = Engine::new(config.engine_config());
    engine.attach_metrics(&MetricsHub::recording());
    engine
}

impl Serve {
    /// Generates the trace, builds the executor and an engine, and
    /// replays a fixed warm-up trace once to warm both.
    pub fn setup(sizes: &Sizes, seed: u64, report: &mut Report) -> (Self, f64) {
        let t0 = Instant::now();
        let config = config(sizes, seed);
        let trace = generate_trace(&config);
        let exec = OpExecutor::new();
        let warm_config = LoadgenConfig {
            requests: sizes.serve_requests / WARM_FRACTION,
            ..self::config(sizes, WARM_SEED)
        };
        let mut warm = engine(&warm_config);
        for request in generate_trace(&warm_config) {
            report.check(warm.serve(request, &exec).is_ok());
        }
        let setup_s = t0.elapsed().as_secs_f64();
        // Answers are matched to the call that handed their request in
        // by id.
        report.check(trace.iter().enumerate().all(|(i, r)| r.id == i as u64));
        (
            Serve {
                config,
                trace,
                exec,
                reference: None,
            },
            setup_s,
        )
    }

    /// Checks a replay: the first is verified response by response
    /// with `OpExecutor::verify`; later ones must repeat it exactly.
    fn check(&mut self, replay: Replay, report: &mut Report) {
        match &self.reference {
            Some(first) => {
                report.check(first.stats == replay.stats);
                for (a, b) in first.responses.iter().zip(&replay.responses) {
                    report.check(a == b);
                }
                report.check(first.responses.len() == replay.responses.len());
            }
            None => {
                for response in &replay.responses {
                    let ok = match response {
                        Response::Ok { id, result, .. } => {
                            self.exec.verify(&self.trace[*id as usize].op, result)
                        }
                        Response::Shed { .. } => true,
                        Response::Error { .. } => false,
                    };
                    report.check(ok);
                }
                report.check(replay.responses.len() == self.trace.len());
                report.check(replay.stats.submitted == self.trace.len() as u64);
                self.reference = Some(replay);
            }
        }
    }

    /// Replays the trace until `seconds` have passed (at least twice),
    /// one pass per replay. A request's host latency runs from the
    /// `Engine::serve` call that hands it in to the call that returns
    /// its response: the same call if it is shed, the call that flushes
    /// its batch, or the end-of-stream `Engine::finish`.
    pub fn run(
        &mut self,
        seconds: f64,
        between: &mut dyn FnMut(f64),
        report: &mut Report,
    ) -> Measured {
        // Every replay answers each request in the same call; only the
        // first pass keeps its answers, the others are checked against
        // them.
        let mut first_answers = None;
        let passes = run_passes_between(seconds, between, |_| {
            let mut pass = Pass::default();
            let mut engine = engine(&self.config);
            let mut responses = Vec::with_capacity(self.trace.len());
            let mut answers = Vec::with_capacity(self.trace.len());
            let mut answer = |out: Result<Vec<Response>, _>, call: usize| match out {
                Ok(r) => {
                    answers.extend(r.iter().map(|r| (r.id() as usize, call)));
                    responses.extend(r);
                }
                Err(_) => report.check(false),
            };
            for (k, request) in self.trace.iter().enumerate() {
                let request = request.clone();
                let t0 = Instant::now();
                let out = black_box(engine.serve(black_box(request), &self.exec));
                pass.calls.push(t0.elapsed());
                answer(out, k);
            }
            let t0 = Instant::now();
            let out = black_box(engine.finish(&self.exec));
            pass.busy_extra_s += t0.elapsed().as_secs_f64();
            answer(out, self.trace.len());
            match &first_answers {
                Some(first) => report.check(*first == answers),
                None => {
                    pass.answers.clone_from(&answers);
                    first_answers = Some(answers);
                }
            }
            let stats = engine.stats();
            pass.ops = stats.served;
            self.check(Replay { responses, stats }, report);
            pass
        });
        Measured {
            passes,
            sim: sim(self.reference.as_ref().expect("one replay ran")),
        }
    }

    /// Traced replays: `Engine::submit`, `Engine::drain`, the resolve
    /// step (`OpExecutor::execute` plus `Engine::note_result`, as
    /// `Engine::resolve` does) and the client-side `OpExecutor::verify`
    /// are timed separately. Every traced replay must reproduce the
    /// untraced responses and `EngineStats` exactly.
    pub fn run_traced(&mut self, seconds: f64, report: &mut Report) -> (Passes, ServeTimes) {
        if self.reference.is_none() {
            self.run(0.0, &mut |_| (), report);
        }
        let mut times = ServeTimes::default();
        let passes = run_passes(seconds, |_| {
            let mut pass = Pass::default();
            let mut engine = engine(&self.config);
            let mut responses = Vec::with_capacity(self.trace.len());
            for request in &self.trace {
                let request = request.clone();
                let t0 = Instant::now();
                let submitted = black_box(engine.submit(black_box(request)));
                let submit = t0.elapsed();
                let Ok((disposition, completed)) = submitted else {
                    report.check(false);
                    continue;
                };
                if completed.is_empty() {
                    times.submit_admit.push(submit);
                } else {
                    times.submit_flush.push(submit);
                }
                if let Disposition::Rejected(response) = disposition {
                    responses.push(response);
                }
                let t1 = Instant::now();
                responses.extend(self.resolve(&mut engine, completed, &mut times));
                pass.calls.push(submit + t1.elapsed());
            }
            let t0 = Instant::now();
            let drained = black_box(engine.drain());
            let drain = t0.elapsed();
            times.drain.push(drain);
            match drained {
                Ok(completed) => {
                    let t1 = Instant::now();
                    responses.extend(self.resolve(&mut engine, completed, &mut times));
                    pass.busy_extra_s += (drain + t1.elapsed()).as_secs_f64();
                }
                Err(_) => report.check(false),
            }
            let t0 = Instant::now();
            for response in &responses {
                if let Response::Ok { id, result, .. } = response {
                    black_box(self.exec.verify(&self.trace[*id as usize].op, result));
                }
            }
            times.client_verify.push(t0.elapsed());
            let stats = engine.stats();
            pass.ops = stats.served;
            times.stats = Some(stats.clone());
            self.check(Replay { responses, stats }, report);
            pass
        });
        (passes, times)
    }

    /// `Engine::resolve` with `OpExecutor::execute` timed per op kind.
    fn resolve(
        &self,
        engine: &mut Engine,
        completed: Vec<CompletedRequest>,
        times: &mut ServeTimes,
    ) -> Vec<Response> {
        let t0 = Instant::now();
        let responses = completed
            .into_iter()
            .map(|c| {
                let kind = c.request.op.kind();
                let k = OpKind::ALL
                    .iter()
                    .position(|&x| x == kind)
                    .expect("known kind");
                let te = Instant::now();
                let result = black_box(self.exec.execute(black_box(&c.request.op)));
                times.exec[k].push(te.elapsed());
                engine.note_result(c.request.tenant, kind, result.is_ok());
                match result {
                    Ok(result) => Response::Ok {
                        id: c.request.id,
                        result,
                        queue_cycles: c.completion.queue_cycles,
                        service_cycles: c.completion.service_cycles,
                        farm: c.completion.farm,
                    },
                    Err(message) => Response::Error {
                        id: c.request.id,
                        message,
                    },
                }
            })
            .collect();
        times.resolve.push(t0.elapsed());
        responses
    }
}

/// Virtual-time figures of a replay; they depend only on the trace.
fn sim(replay: &Replay) -> Sim {
    let latencies: Vec<f64> = replay
        .responses
        .iter()
        .filter_map(|r| match r {
            Response::Ok {
                queue_cycles,
                service_cycles,
                ..
            } => Some((queue_cycles + service_cycles) as f64),
            _ => None,
        })
        .collect();
    let stats = &replay.stats;
    Sim {
        latency_mean_cycles: crate::stats::mean(&latencies),
        latency_p99_cycles: stats
            .tenants
            .iter()
            .map(|t| t.p99_latency_cycles)
            .max()
            .unwrap_or(0) as f64,
        max_cell_writes: stats
            .tile_wear
            .iter()
            .map(|t| t.max_cell_writes)
            .max()
            .unwrap_or(0) as f64,
        served_frac: stats.served as f64 / stats.submitted.max(1) as f64,
    }
}
