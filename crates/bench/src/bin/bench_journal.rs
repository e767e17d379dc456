//! Journal durability-cost benchmark — `BENCH_journal.json`.
//!
//! Three measurements of what the write-ahead request journal costs:
//!
//! 1. **Append latency** — p50/p99 of a durable append under the two
//!    commit policies: leader-based group commit with concurrent
//!    submitters (fsyncs amortize across the batch) versus
//!    fsync-per-record. The fsync count is recorded alongside so the
//!    batching is visible, not inferred.
//! 2. **Replay throughput** — records/second for `Journal::open` to
//!    scan, checksum and rebuild state from the file the append phase
//!    produced.
//! 3. **End-to-end overhead** — p50 request latency through the full
//!    `InferenceService` on the simulator backend with the journal off
//!    versus on (two durable fsyncs per request: admit + complete),
//!    under a concurrent client load. `overhead_pct` is the headline:
//!    the acceptance bar is ≤ 5% added p50.
//!
//! Usage: `cargo run --release --bin bench_journal [--appends N] [--requests N]`

use chet_ckks::sim::SimCkks;
use chet_compiler::Compiler;
use chet_hisa::params::SchemeKind;
use chet_runtime::kernels::ScaleConfig;
use chet_serve::{
    InferenceService, Journal, JournalConfig, JournalRecord, ServeConfig,
};
use chet_tensor::circuit::{Circuit, CircuitBuilder};
use chet_tensor::ops::Padding;
use chet_tensor::Tensor;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A mid-size two-conv CNN. The serve-layer test fixtures use a 6×6 toy
/// whose SimCkks inference runs in ~0.5 ms — at that scale two fsyncs
/// look enormous in relative terms. Real FHE inference (the paper's
/// Table 3 networks) runs hundreds of milliseconds to seconds per image,
/// so the overhead measurement uses a network big enough that compute
/// dominates the way it does in practice, while still keeping the bench
/// in CI time.
fn bench_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 48, 48]);
    let w1 = Tensor::from_fn(vec![8, 1, 5, 5], |i| (i[2] * 5 + i[3]) as f64 * 0.01 - 0.1);
    let c1 = b.conv2d(x, w1, Some(vec![0.05; 8]), 1, Padding::Valid);
    let a1 = b.activation(c1, 0.2, 0.9);
    let p1 = b.avg_pool2d(a1, 2, 2);
    let w2 = Tensor::from_fn(vec![8, 8, 3, 3], |i| (i[1] + i[2] * 3 + i[3]) as f64 * 0.01 - 0.05);
    let c2 = b.conv2d(p1, w2, Some(vec![-0.05; 8]), 1, Padding::Valid);
    let a2 = b.activation(c2, 0.1, 0.8);
    let p2 = b.avg_pool2d(a2, 2, 2);
    b.build(p2)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chet-bench-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

fn admit(id: u64) -> JournalRecord {
    JournalRecord::Admitted {
        request_id: id,
        idempotency_key: format!("bench-{id}"),
        image: Tensor::random(vec![1, 6, 6], 1.0, id),
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Durable-append latency distribution under `threads` concurrent
/// appenders. Returns (p50, p99, fsyncs, journal dir).
fn bench_appends(
    appends: usize,
    threads: usize,
    group_commit: bool,
    tag: &str,
) -> (Duration, Duration, u64, PathBuf) {
    let dir = tmp_dir(tag);
    let config = JournalConfig { enabled: true, group_commit, ..JournalConfig::default() };
    let (journal, _) = Journal::open(&dir, &config).expect("open journal");
    let journal = Arc::new(journal);
    let per_thread = appends / threads.max(1);
    let mut handles = Vec::new();
    for t in 0..threads {
        let j = Arc::clone(&journal);
        handles.push(std::thread::spawn(move || {
            let mut lat = Vec::with_capacity(per_thread);
            for i in 0..per_thread {
                let rec = admit((t * per_thread + i) as u64 + 1);
                let start = Instant::now();
                j.append_durable(&rec).expect("append");
                lat.push(start.elapsed());
            }
            lat
        }));
    }
    let mut lat: Vec<Duration> = Vec::with_capacity(appends);
    for h in handles {
        lat.extend(h.join().expect("appender thread"));
    }
    let fsyncs = journal.fsyncs();
    journal.close().expect("close journal");
    lat.sort();
    (percentile(&lat, 0.50), percentile(&lat, 0.99), fsyncs, dir)
}

/// p50 of end-to-end request latency through the service, `clients`
/// concurrent submitter threads of `per_client` requests each.
fn bench_service(journal_dir: Option<PathBuf>, clients: usize, per_client: usize) -> Duration {
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 512,
        store_dir: journal_dir.clone(),
        journal: JournalConfig {
            enabled: journal_dir.is_some(),
            completed_cache: 64,
            ..JournalConfig::default()
        },
        ..ServeConfig::default()
    };
    let service = InferenceService::start_with_compiler(
        Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(20)),
        bench_cnn(),
        ScaleConfig::REFERENCE,
        config,
        |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise(),
    )
    .expect("service starts");
    let service = Arc::new(service);
    let mut handles = Vec::new();
    for c in 0..clients {
        let svc = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let mut lat = Vec::with_capacity(per_client);
            for i in 0..per_client {
                let image = Tensor::random(vec![1, 48, 48], 1.0, (c * per_client + i) as u64);
                let start = Instant::now();
                let ticket = svc.submit(image).expect("submit");
                ticket.wait().expect("response");
                lat.push(start.elapsed());
            }
            lat
        }));
    }
    let mut lat: Vec<Duration> = Vec::new();
    for h in handles {
        lat.extend(h.join().expect("client thread"));
    }
    match Arc::try_unwrap(service) {
        Ok(svc) => {
            svc.shutdown();
        }
        Err(_) => unreachable!("all clients joined"),
    }
    lat.sort();
    percentile(&lat, 0.50)
}

fn arg_or(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let appends = arg_or("--appends", 4096);
    let requests = arg_or("--requests", 64);
    println!("== Journal durability cost ({appends} appends, {requests} service requests) ==\n");

    // 1. Append latency, both commit policies.
    let (gc_p50, gc_p99, gc_fsyncs, gc_dir) = bench_appends(appends, 4, true, "gc");
    println!(
        "  group-commit append   p50 {:>8.1} us  p99 {:>8.1} us  ({} records, {} fsyncs)",
        gc_p50.as_secs_f64() * 1e6,
        gc_p99.as_secs_f64() * 1e6,
        appends,
        gc_fsyncs
    );
    let each_appends = appends.min(1024);
    let (ea_p50, ea_p99, ea_fsyncs, ea_dir) = bench_appends(each_appends, 1, false, "each");
    println!(
        "  fsync-each append     p50 {:>8.1} us  p99 {:>8.1} us  ({} records, {} fsyncs)",
        ea_p50.as_secs_f64() * 1e6,
        ea_p99.as_secs_f64() * 1e6,
        each_appends,
        ea_fsyncs
    );
    let _ = std::fs::remove_dir_all(&ea_dir);

    // 2. Replay throughput over the group-commit file.
    let config = JournalConfig { enabled: true, ..JournalConfig::default() };
    let start = Instant::now();
    let (journal, report) = Journal::open(&gc_dir, &config).expect("replay");
    let replay = start.elapsed();
    drop(journal);
    let replay_rps = report.records as f64 / replay.as_secs_f64().max(1e-9);
    println!(
        "  replay                {} records in {:.1} ms  ({:.0} records/s)\n",
        report.records,
        replay.as_secs_f64() * 1e3,
        replay_rps
    );
    let _ = std::fs::remove_dir_all(&gc_dir);

    // 3. End-to-end service overhead. A single sequential client keeps
    // the measurement clean: no queueing noise, and no concurrent
    // appender for group commit to batch with — each request pays its
    // two fsyncs in full, so this is the *worst-case* per-request cost.
    // Best-of-5 p50 per config damps scheduler noise.
    let clients = 1;
    let per_client = requests;
    let mut base_p50 = Duration::MAX;
    let mut jrnl_p50 = Duration::MAX;
    for trial in 0..5 {
        let b = bench_service(None, clients, per_client);
        let dir = tmp_dir(&format!("svc-{trial}"));
        let j = bench_service(Some(dir.clone()), clients, per_client);
        let _ = std::fs::remove_dir_all(&dir);
        base_p50 = base_p50.min(b);
        jrnl_p50 = jrnl_p50.min(j);
        println!(
            "  trial {trial}: baseline p50 {:>7.2} ms   journaled p50 {:>7.2} ms",
            b.as_secs_f64() * 1e3,
            j.as_secs_f64() * 1e3
        );
    }
    let overhead_pct = (jrnl_p50.as_secs_f64() - base_p50.as_secs_f64())
        / base_p50.as_secs_f64().max(1e-9)
        * 100.0;
    println!(
        "\n  service p50: baseline {:.2} ms, journaled {:.2} ms  ->  overhead {:+.2}%",
        base_p50.as_secs_f64() * 1e3,
        jrnl_p50.as_secs_f64() * 1e3,
        overhead_pct
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"journal\",");
    let _ = writeln!(json, "  \"appends\": {appends},");
    let _ = writeln!(json, "  \"append_us\": {{");
    let _ = writeln!(
        json,
        "    \"group_commit\": {{\"p50\": {:.2}, \"p99\": {:.2}, \"records\": {}, \"fsyncs\": {}}},",
        gc_p50.as_secs_f64() * 1e6,
        gc_p99.as_secs_f64() * 1e6,
        appends,
        gc_fsyncs
    );
    let _ = writeln!(
        json,
        "    \"fsync_each\": {{\"p50\": {:.2}, \"p99\": {:.2}, \"records\": {}, \"fsyncs\": {}}}",
        ea_p50.as_secs_f64() * 1e6,
        ea_p99.as_secs_f64() * 1e6,
        each_appends,
        ea_fsyncs
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"replay_records_per_sec\": {replay_rps:.0},");
    let _ = writeln!(json, "  \"service\": {{");
    let _ = writeln!(json, "    \"requests\": {requests},");
    let _ = writeln!(json, "    \"clients\": {clients},");
    let _ = writeln!(
        json,
        "    \"baseline_p50_ms\": {:.3},",
        base_p50.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "    \"journaled_p50_ms\": {:.3},",
        jrnl_p50.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "    \"overhead_pct\": {overhead_pct:.2}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_journal.json", &json).expect("write BENCH_journal.json");
    println!("\nwrote BENCH_journal.json");
}
