//! Order statistics, means and the process-level readings (`/proc`) the
//! end-to-end metrics are built from.

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// How many samples the tail statistic leaves beyond itself: ten when the
/// sample affords it (the issue's `(n-10)/n` rule: 30 → p66, 48 → p79,
/// 32 → p69), a third of the sample when the run-time cap leaves fewer
/// than 30.
pub fn tail_beyond(n: usize) -> usize {
    (n / 3).min(10)
}

/// The `(n-k)/n` tail of an ascending sample, `k = tail_beyond(n)`.
pub fn tail(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    sorted[sorted.len() - 1 - tail_beyond(sorted.len())]
}

/// Geometric mean of positive values (ratios across networks).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median per-call wall clock of `f` in µs over `reps` samples, after one
/// warm-up call. A call faster than 100 µs is sampled in blocks of 32, so
/// the clock's nanosecond steps do not quantise the reading.
pub fn per_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = std::time::Instant::now();
    f();
    let block = if t.elapsed().as_micros() < 100 { 32 } else { 1 };
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..block {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / block as f64
        })
        .collect();
    median(&samples)
}

/// Wall clock of a fixed, cache-resident integer loop, in ms (median of
/// three): how fast the host runs this process right now.
pub fn host_spin_ms() -> f64 {
    let spins: Vec<f64> = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..10_000_000 {
                // The barrier keeps the chain serial (no closed form).
                x = std::hint::black_box(x)
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&spins)
}

/// Holds the run back while the host runs this process slowly. The shared
/// 2-vCPU reference host is slow in two ways: for a while after a burst of
/// work on both vCPUs such as the build (the spin reads up to 3x its best),
/// and in minutes-long spells in which everything runs 1.3-1.6x slower.
/// One spell inside a set of ten runs spreads every time metric beyond
/// the largest bound the contract allows. The fastest spin seen so far is
/// kept in `dir/host-spin-ms`; the run keeps spinning until a spin is
/// within 15% of it, or for a minute. The first run in a checkout has
/// no reference and has just been built, so it spins for 15 s and keeps
/// the fastest reading; a run that waited its minute out makes the fastest
/// reading of that minute the new reference, so a host that has become
/// slower for good costs one minute, not one per run. Returns the last
/// spin, the reference and the seconds waited.
pub fn wait_for_quiet_host(dir: &std::path::Path) -> (f64, f64, f64) {
    let file = dir.join("host-spin-ms");
    let stored = std::fs::read_to_string(&file)
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok());
    let started = std::time::Instant::now();
    let mut spin = host_spin_ms();
    let mut fastest_now = spin;
    let reference = stored.unwrap_or(f64::INFINITY);
    while (stored.is_none() && started.elapsed().as_secs() < 15)
        || (spin > 1.15 * reference && started.elapsed().as_secs() < 60)
    {
        spin = host_spin_ms();
        fastest_now = fastest_now.min(spin);
    }
    let reference = if spin > 1.15 * reference {
        fastest_now
    } else {
        reference.min(fastest_now)
    };
    // Losing the reference only costs the next run its gate.
    let _ =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, reference.to_string()));
    (spin, reference, started.elapsed().as_secs_f64())
}

/// Process user+system CPU seconds so far, all threads (`/proc/self/stat`
/// fields 14 and 15, in `USER_HZ` = 100 ticks on Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis.
    let rest = stat.rsplit_once(") ").expect("stat has a command field").1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .expect("cpu tick field")
    };
    (ticks() + ticks()) / 100.0
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_matches_the_sizing_table() {
        // n → samples beyond → quantile, as the README's sizing table states.
        for (n, beyond, pct) in [
            (30, 10, 66),
            (48, 10, 79),
            (32, 10, 68),
            (6, 2, 66),
            (5, 1, 80),
        ] {
            assert_eq!(tail_beyond(n), beyond, "n = {n}");
            assert_eq!(100 * (n - beyond) / n, pct, "n = {n}");
        }
        let sample: Vec<f64> = (1..=30).map(f64::from).collect();
        // Ten samples (21..=30) lie beyond the reported value.
        assert_eq!(tail(&sample), 20.0);
        assert_eq!(tail(&[7.0]), 7.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn geomean_is_scale_free() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
