//! Exact program-cache accounting. The cache and its counters are
//! process-wide, so this file holds a single test: no other test runs
//! in its process to add hits or misses between the reads.

use cim_bigint::Uint;
use cim_metrics::MetricsHub;
use cim_mir::OptLevel;
use karatsuba_cim::chunks::{decompose_operand, LEAVES};
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::progcache;

#[test]
fn latency_reads_the_cache_and_every_miss_is_timed_once() {
    // `PostcomputeStage::latency` equals a run's cycle count at every
    // optimized level, and takes the body the run compiled from the
    // cache instead of compiling its own.
    let (a, b) = (
        Uint::from_u64(0xdead_beef_cafe),
        Uint::from_u64(0x1234_5678_9abc),
    );
    let (da, db) = (decompose_operand(&a, 64), decompose_operand(&b, 64));
    let products: [Uint; LEAVES] = std::array::from_fn(|i| &da.leaves[i] * &db.leaves[i]);
    for opt in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
        let stage = PostcomputeStage::with_opt_level(64, opt).unwrap();
        let out = stage.run(&products).unwrap();
        assert_eq!(out.product, &a * &b, "{opt}");
        let (_, misses) = progcache::stats();
        assert_eq!(stage.latency(), out.stats.cycles, "{opt}");
        assert_eq!(progcache::stats().1, misses, "{opt}: latency() compiled");
    }

    // Every miss so far lands in the compile-time histogram once, no
    // matter how often (or to how many hubs) the cache publishes.
    let hub = MetricsHub::recording();
    progcache::publish_metrics(&hub);
    progcache::publish_metrics(&hub);
    progcache::publish_metrics(&MetricsHub::recording());
    progcache::publish_metrics(&MetricsHub::disabled());
    let compile_count = |hub: &MetricsHub| {
        hub.snapshot()
            .histogram("cim_core_progcache_compile_ns")
            .map_or(0, |h| h.count())
    };
    let (_, misses) = progcache::stats();
    assert!(misses > 0);
    assert_eq!(compile_count(&hub), misses);

    // New misses join the same histogram on the next publication.
    let _ = PostcomputeStage::with_opt_level(128, OptLevel::O2)
        .unwrap()
        .latency();
    let (_, more) = progcache::stats();
    assert!(more > misses, "a new width compiles");
    progcache::publish_metrics(&hub);
    assert_eq!(compile_count(&hub), more);
    let snap = hub.snapshot();
    assert_eq!(snap.number("cim_core_progcache_misses"), Some(more as f64));
}
