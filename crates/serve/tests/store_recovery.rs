//! Crash-safe store acceptance tests: a service must survive any
//! kill-style corruption of its on-disk artifact/key records — start,
//! quarantine the damage, recompile, and serve the same network again.

use chet_ckks::sim::SimCkks;
use chet_compiler::Compiler;
use chet_hisa::params::SchemeKind;
use chet_runtime::kernels::ScaleConfig;
use chet_serve::chaos::{flip_byte, truncate_file};
use chet_serve::{HealthVerdict, InferenceService, ServeConfig};
use chet_tensor::circuit::{Circuit, CircuitBuilder};
use chet_tensor::ops::Padding;
use chet_tensor::Tensor;
use std::path::{Path, PathBuf};

fn small_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    b.build(p)
}

fn image(seed: u64) -> Tensor {
    Tensor::random(vec![1, 6, 6], 1.0, seed)
}

fn compiler() -> Compiler {
    Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(20))
}

/// Fresh per-test store directory (tests run in parallel).
fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chet-store-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 8,
        store_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

fn start(dir: &Path) -> InferenceService {
    InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        ScaleConfig::REFERENCE,
        config(dir),
        |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise(),
    )
    .expect("service must start")
}

/// One healthy request through the service, returning its output.
fn serve_one(svc: &InferenceService, seed: u64) -> Tensor {
    let resp = svc.submit(image(seed)).expect("queue empty").wait().expect("healthy request");
    assert!(!resp.degraded);
    resp.output
}

fn quarantined_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".quarantined"))
        .collect();
    names.sort();
    names
}

#[test]
fn clean_restart_reuses_the_persisted_artifact() {
    let dir = store_dir("clean");
    let svc = start(&dir);
    let first = serve_one(&svc, 42);
    let v0 = svc.stats().artifact_version;
    svc.shutdown();

    assert!(dir.join("artifact.rec").is_file(), "artifact record must be persisted");
    assert!(dir.join("key-bundle.rec").is_file(), "key bundle must be persisted");

    let svc = start(&dir);
    let stats = svc.stats();
    assert_eq!(stats.store_recompiles, 0, "an intact store must be reused, not recompiled");
    assert_eq!(stats.quarantined_records, 0);
    assert_eq!(stats.artifact_version, v0, "recovered artifact keeps its version");
    assert_eq!(svc.health().verdict(), HealthVerdict::Healthy);

    let again = serve_one(&svc, 42);
    assert_eq!(first.shape(), again.shape());
    for (a, b) in first.data().iter().zip(again.data()) {
        assert!((a - b).abs() < 1e-9, "recovered artifact must serve identically: {a} vs {b}");
    }
    svc.shutdown();
}

#[test]
fn truncated_artifact_record_is_quarantined_and_recompiled() {
    let dir = store_dir("truncate");
    let svc = start(&dir);
    let first = serve_one(&svc, 7);
    svc.shutdown();

    // Kill-style mid-write truncation: keep only the first 40 bytes.
    let rec = dir.join("artifact.rec");
    let len = std::fs::metadata(&rec).unwrap().len();
    assert!(len > 40);
    truncate_file(&rec, 40).unwrap();

    // The service still starts: the damaged record is quarantined aside
    // and the artifact recompiled from source.
    let svc = start(&dir);
    let stats = svc.stats();
    assert!(stats.quarantined_records >= 1, "{stats:?}");
    assert!(stats.store_recompiles >= 1, "{stats:?}");
    assert!(
        !quarantined_files(&dir).is_empty(),
        "the corpse must be preserved for forensics, not deleted"
    );
    assert!(
        dir.join("artifact.rec").is_file(),
        "the recompiled artifact must be re-persisted for the next restart"
    );

    // The store damage is visible in health, but service is unimpaired.
    assert_eq!(svc.health().verdict(), HealthVerdict::Degraded);
    let again = serve_one(&svc, 7);
    for (a, b) in first.data().iter().zip(again.data()) {
        assert!((a - b).abs() < 1e-3, "recompiled artifact must serve the same network");
    }
    svc.shutdown();

    // And the *next* restart recovers cleanly from the re-persisted pair.
    let svc = start(&dir);
    assert_eq!(svc.stats().store_recompiles, 0);
    svc.shutdown();
}

#[test]
fn bitflipped_key_bundle_forces_recompile() {
    let dir = store_dir("bitflip");
    let svc = start(&dir);
    serve_one(&svc, 13);
    svc.shutdown();

    // Flip one payload bit in the key bundle; the checksum must catch it
    // even though the artifact record itself is intact.
    let rec = dir.join("key-bundle.rec");
    let len = std::fs::metadata(&rec).unwrap().len();
    flip_byte(&rec, len / 2, 0x10).unwrap();

    let svc = start(&dir);
    let stats = svc.stats();
    assert!(stats.quarantined_records >= 1, "{stats:?}");
    assert!(
        stats.store_recompiles >= 1,
        "an artifact without a trustworthy key bundle is not servable: {stats:?}"
    );
    serve_one(&svc, 13);
    svc.shutdown();
}

#[test]
fn truncation_at_any_point_never_blocks_startup() {
    let dir = store_dir("sweep");
    let svc = start(&dir);
    serve_one(&svc, 21);
    svc.shutdown();

    let rec = dir.join("artifact.rec");
    let pristine = std::fs::read(&rec).unwrap();

    // A coarse sweep over truncation points (every-byte coverage lives in
    // the store's unit tests; this exercises the full service path).
    for keep in [0u64, 1, 7, 8, 9, 13, 14, 40, pristine.len() as u64 / 2, pristine.len() as u64 - 1]
    {
        std::fs::write(&rec, &pristine).unwrap();
        truncate_file(&rec, keep).unwrap();
        let svc = start(&dir);
        serve_one(&svc, 21);
        svc.shutdown();
        // Clear quarantine corpses so the next iteration starts clean.
        for name in quarantined_files(&dir) {
            let _ = std::fs::remove_file(dir.join(name));
        }
    }
}
