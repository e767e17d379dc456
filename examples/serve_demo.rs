//! Serving demo: a resilient inference service surviving transient
//! backend faults.
//!
//! Compiles a small CNN, starts a worker pool whose primary backends
//! inject transient rotation-key faults (the first few instructions fail,
//! then the backend heals), and pushes a burst of requests through it.
//! Watch the circuit breaker trip, degrade requests to the plaintext
//! simulator, probe half-open, and recover — then inspect the stats.
//!
//! Run with: `cargo run --release --example serve_demo`

use chet::ckks::sim::SimCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::runtime::fault::{FaultInjector, FaultPlan};
use chet::runtime::kernels::ScaleConfig;
use chet::serve::{InferenceService, ServeConfig};
use chet::tensor::circuit::CircuitBuilder;
use chet::tensor::ops::Padding;
use chet::tensor::Tensor;

fn main() {
    // A small CNN: conv → activation → avg-pool.
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 8, 8]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    let circuit = b.build(p);

    let compiler = Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(20));
    let scales = ScaleConfig::REFERENCE;

    // Primary backends: simulators wrapped in a transient fault injector —
    // each worker's backend drops rotation keys for its first 3 eligible
    // instructions, then behaves healthily (a re-fetched key bundle).
    let service = InferenceService::start_with_compiler(
        compiler,
        circuit,
        scales,
        ServeConfig::default(),
        |worker_id, compiled| {
            let sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 5).without_noise();
            let plan = FaultPlan::none(1.0).with_dropped_rotation_keys().transient(3);
            FaultInjector::new(sim, plan, 90 + worker_id as u64)
        },
    )
    .expect("the demo circuit compiles");

    println!("== burst: 24 requests through transiently faulty backends ==");
    let tickets: Vec<_> = (0..24)
        .map(|i| {
            service
                .submit(Tensor::random(vec![1, 8, 8], 1.0, 100 + i))
                .expect("queue sized for the burst")
        })
        .collect();
    let (mut ok, mut degraded) = (0, 0);
    for ticket in tickets {
        match ticket.wait() {
            Ok(resp) if resp.degraded => degraded += 1,
            Ok(_) => ok += 1,
            Err(e) => println!("request failed: {e}"),
        }
    }
    println!("primary ok: {ok}   degraded (breaker open): {degraded}");

    // Keep submitting until the transient faults have cleared and the
    // breaker closes again.
    println!("\n== settling: waiting for the breaker to recover ==");
    for i in 0..100u64 {
        let resp = service
            .submit(Tensor::random(vec![1, 8, 8], 1.0, 500 + i))
            .expect("queue empty")
            .wait()
            .expect("request resolves");
        let state = service.stats().breaker.state;
        if !resp.degraded && format!("{state}") == "closed" {
            println!("request {} ran primary; breaker {state}", resp.id);
            break;
        }
    }

    let stats = service.shutdown();
    println!("\n== final stats ==");
    println!("submitted: {}   ok: {}   degraded: {}", stats.submitted, stats.completed_ok, stats.degraded);
    println!(
        "failed: {}   shed: {}   retries: {}   repairs: {}   panics caught: {}",
        stats.failed, stats.shed, stats.retries, stats.repairs, stats.panics_caught
    );
    println!(
        "latency: mean {:?}, p99 ≤ {} µs over {} requests",
        stats.latency.mean(),
        stats.latency.quantile_upper_bound_us(0.99),
        stats.latency.count
    );
    println!("breaker transitions:");
    for t in &stats.breaker.transitions {
        println!("  {} -> {}: {}", t.from, t.to, t.reason);
    }
    println!("breaker final state: {}", stats.breaker.state);
}
