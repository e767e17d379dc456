//! Bench guard for the static verifier: verification must stay cheap
//! enough to run on every compile and in CI.
//!
//! The committed `results/verify_times.txt` is a *baseline*, not a
//! per-run log: this test never rewrites it (so a test run leaves the
//! working tree clean); it measures each network's verify wall time and
//! asserts it stays inside a generous tolerance band of the recorded
//! value, plus an absolute budget on the slowest network. Regenerate the
//! baseline deliberately with
//! `cargo run --bin chet-lint -- --write-times results/verify_times.txt`
//! when the verifier's cost profile changes on purpose.

use chet::compiler::{verify_compiled, Compiler};
use chet::hisa::params::SchemeKind;
use chet::runtime::kernels::ScaleConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// Band width: measured time may exceed the committed baseline by this
/// factor before the guard trips. Wide on purpose — CI machines vary and
/// timing tests must not flake — while still catching order-of-magnitude
/// regressions (the failure mode that matters for an every-compile pass).
const TOLERANCE: f64 = 10.0;

/// Noise floor: baselines below this are too small to band-compare
/// reliably (scheduler jitter dominates), so only the absolute budget
/// applies to them.
const FLOOR_US: f64 = 20_000.0;

fn baseline() -> BTreeMap<String, f64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/verify_times.txt");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("committed baseline {path} must exist: {e}"));
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (net, us) = line.rsplit_once(' ').unwrap_or_else(|| panic!("malformed: {line}"));
        map.insert(net.to_string(), us.parse::<f64>().unwrap_or_else(|e| panic!("{line}: {e}")));
    }
    map
}

#[test]
fn static_verify_is_fast_on_every_network() {
    let baseline = baseline();
    let mut worst: (String, f64) = (String::new(), 0.0);
    for net in chet::networks::all_networks() {
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(25))
            .compile(&net.circuit, &ScaleConfig::REFERENCE)
            .unwrap_or_else(|e| panic!("{}: {e}", net.name));
        let t0 = Instant::now();
        let report = verify_compiled(&net.circuit, &compiled);
        let secs = t0.elapsed().as_secs_f64();
        assert!(
            !report.has_deny(),
            "{}: built-in network must verify clean:\n{}",
            net.name,
            report.render_text()
        );
        let base_us = *baseline
            .get(net.name)
            .unwrap_or_else(|| panic!("{}: missing from committed verify_times baseline", net.name));
        // The committed baseline is recorded from a debug run; release
        // builds run the same walk much faster, so the band only binds
        // when the build profile matches the baseline's.
        if cfg!(debug_assertions) && base_us > FLOOR_US {
            let measured_us = secs * 1e6;
            assert!(
                measured_us <= base_us * TOLERANCE,
                "{}: static verify took {measured_us:.0} us, tolerance band is {:.0} us \
                 ({base_us:.0} us baseline x {TOLERANCE}); if the slowdown is intentional, \
                 regenerate results/verify_times.txt via chet-lint --write-times",
                net.name,
                base_us * TOLERANCE,
            );
        }
        if secs > worst.1 {
            worst = (net.name.to_string(), secs);
        }
    }
    // ~240 ms in release on the largest network; debug builds run the same
    // walk unoptimized, so they get a proportionally looser budget.
    let budget = if cfg!(debug_assertions) { 10.0 } else { 1.0 };
    assert!(
        worst.1 < budget,
        "slowest static verify ({}) took {:.3}s, budget {budget}s",
        worst.0,
        worst.1
    );
}
