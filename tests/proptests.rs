//! Property-based tests on core invariants, across backends and layouts.

use chet::ckks::rns::RnsCkks;
use chet::hisa::{EncryptionParams, Hisa, RotationKeyPolicy, SecurityLevel};
use chet::math::bigint::UBig;
use chet::math::crt::CrtBasis;
use chet::math::ntt::{negacyclic_convolution_naive, NttTable};
use chet::math::prime::ntt_primes;
use chet::runtime::ciphertensor::{pack_tensor, unpack_tensor};
use chet::runtime::layout::Layout;
use chet::tensor::Tensor;
use proptest::prelude::*;

fn rns_backend() -> RnsCkks {
    let params =
        EncryptionParams::rns_ckks(2048, 40, 2).with_security(SecurityLevel::Insecure);
    RnsCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 99)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn encode_decode_roundtrip_rns(values in prop::collection::vec(-100.0f64..100.0, 1..32)) {
        let mut h = rns_backend();
        let scale = 2f64.powi(30);
        let pt = h.encode(&values, scale);
        let out = h.decode(&pt);
        for (i, v) in values.iter().enumerate() {
            prop_assert!((out[i] - v).abs() < 1e-4, "slot {i}: {} vs {v}", out[i]);
        }
    }

    #[test]
    fn homomorphic_add_matches_plain(
        a in prop::collection::vec(-50.0f64..50.0, 8),
        b in prop::collection::vec(-50.0f64..50.0, 8),
    ) {
        let mut h = rns_backend();
        let scale = 2f64.powi(30);
        let pa = h.encode(&a, scale);
        let pb = h.encode(&b, scale);
        let ca = h.encrypt(&pa);
        let cb = h.encrypt(&pb);
        let sum = h.add(&ca, &cb);
        let pt = h.decrypt(&sum);
        let out = h.decode(&pt);
        for i in 0..8 {
            prop_assert!((out[i] - (a[i] + b[i])).abs() < 1e-2);
        }
    }

    #[test]
    fn homomorphic_mul_matches_plain(
        a in prop::collection::vec(-8.0f64..8.0, 4),
        b in prop::collection::vec(-8.0f64..8.0, 4),
    ) {
        let mut h = rns_backend();
        let scale = 2f64.powi(28);
        let pa = h.encode(&a, scale);
        let pb = h.encode(&b, scale);
        let ca = h.encrypt(&pa);
        let cb = h.encrypt(&pb);
        let prod = h.mul(&ca, &cb);
        let d = h.max_rescale(&prod, scale * scale);
        let prod = h.rescale(&prod, d);
        let pt = h.decrypt(&prod);
        let out = h.decode(&pt);
        for i in 0..4 {
            prop_assert!((out[i] - a[i] * b[i]).abs() < 0.05, "{} vs {}", out[i], a[i] * b[i]);
        }
    }

    #[test]
    fn rotation_compositions_commute(x in 0usize..64, y in 0usize..64) {
        let mut h = rns_backend();
        let scale = 2f64.powi(30);
        let vals: Vec<f64> = (0..128).map(|i| (i % 17) as f64).collect();
        let pt = h.encode(&vals, scale);
        let ct = h.encrypt(&pt);
        let r1 = h.rot_left(&ct, x);
        let r1 = h.rot_left(&r1, y);
        let r2 = h.rot_left(&ct, x + y);
        let p1 = h.decrypt(&r1);
        let p2 = h.decrypt(&r2);
        let o1 = h.decode(&p1);
        let o2 = h.decode(&p2);
        for i in 0..64 {
            prop_assert!((o1[i] - o2[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn ntt_roundtrip_random(coeffs in prop::collection::vec(0u64..1000, 64)) {
        let q = ntt_primes(45, 64, 1)[0];
        let t = NttTable::new(q, 64).unwrap();
        let mut a = coeffs.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        prop_assert_eq!(a, coeffs);
    }

    #[test]
    fn ntt_multiplication_matches_naive(
        a in prop::collection::vec(0u64..500, 32),
        b in prop::collection::vec(0u64..500, 32),
    ) {
        let q = ntt_primes(45, 32, 1)[0];
        let t = NttTable::new(q, 32).unwrap();
        let expect = negacyclic_convolution_naive(&a, &b, q);
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| chet::math::modint::mul_mod(x, y, q)).collect();
        t.inverse(&mut fc);
        prop_assert_eq!(fc, expect);
    }

    #[test]
    fn crt_reconstruction_roundtrip(v in 0u64..u64::MAX) {
        let basis = CrtBasis::new(ntt_primes(40, 64, 3));
        let residues: Vec<u64> = basis.primes().iter().map(|&p| v % p).collect();
        prop_assert_eq!(basis.reconstruct(&residues), UBig::from(v));
    }

    #[test]
    fn ubig_shift_mask_identities(v in 0u64..u64::MAX, k in 0u32..40) {
        let x = UBig::from(v);
        // (x << k) >> k == x
        prop_assert_eq!(x.shl_bits(k).shr_bits(k), x.clone());
        // mask(x, 64+k) == x for values below 2^64
        prop_assert_eq!(x.mask_bits(64 + k), x.clone());
        // x == (x >> k) << k + (x mod 2^k)
        let rebuilt = x.shr_bits(k).shl_bits(k).add(&x.mask_bits(k));
        prop_assert_eq!(rebuilt, x);
    }

    #[test]
    fn layout_pack_unpack_roundtrip(
        c in 1usize..5,
        hw in 2usize..7,
        margin in 0usize..3,
        chw in proptest::bool::ANY,
    ) {
        let t = Tensor::random(vec![c, hw, hw], 10.0, 42);
        let slots = 4096;
        let layout = if chw {
            Layout::chw(c, hw, hw, margin, slots)
        } else {
            Layout::hw(c, hw, hw, margin, slots)
        };
        let packed = pack_tensor(&t, &layout);
        let back = unpack_tensor(&packed, &layout);
        prop_assert_eq!(back, t);
    }

    #[test]
    fn try_infer_never_panics_under_fault_injection(seed in 0u64..10_000, which in 0usize..7) {
        use chet::runtime::exec::{try_infer, ExecPlan};
        use chet::runtime::fault::{FaultInjector, FaultPlan};
        use chet::runtime::kernels::ScaleConfig;
        use chet::runtime::layout::LayoutKind;
        use chet::tensor::circuit::CircuitBuilder;
        use chet::tensor::ops::Padding;

        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 5, 5]);
        let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] + i[3]) as f64 * 0.1 - 0.1);
        let c = b.conv2d(x, w, None, 1, Padding::Valid);
        let a = b.activation(c, 0.2, 0.9);
        let g = b.global_avg_pool(a);
        let circuit = b.build(g);

        let fault = match which {
            0 => FaultPlan::none(0.4).with_dropped_rotation_keys(),
            1 => FaultPlan::none(0.4).with_scale_drift(),
            2 => FaultPlan::none(0.4).with_exhausted_levels(),
            3 => FaultPlan::none(0.4).with_nan_slots(),
            4 => FaultPlan::none(0.4).with_slot_overflow(),
            5 => FaultPlan::none(0.4).with_invalid_rescale(),
            _ => FaultPlan::all(0.2),
        };
        let sim = chet_ckks::sim::SimCkks::new(
            &EncryptionParams::rns_ckks(8192, 40, 6),
            &RotationKeyPolicy::PowersOfTwo,
            5,
        )
        .without_noise();
        let mut h = FaultInjector::new(sim, fault, seed);
        let plan = ExecPlan::uniform(&circuit, LayoutKind::CHW, ScaleConfig::from_log2(26, 16, 16, 16));
        let image = Tensor::random(vec![1, 5, 5], 1.0, seed % 97);
        // The property: for every seed and fault class, inference returns a
        // value — Ok or a typed error — and never panics.
        let _ = try_infer(&mut h, &circuit, &plan, &image);
    }

    #[test]
    fn activation_kernel_matches_reference_property(
        a in -0.5f64..0.5,
        b in 0.5f64..1.5,
        vals in prop::collection::vec(-2.0f64..2.0, 4),
    ) {
        use chet::runtime::kernels::elementwise::try_hactivation;
        use chet::runtime::ciphertensor::{decrypt_tensor, encrypt_tensor};
        use chet::runtime::kernels::ScaleConfig;
        let mut h = chet_ckks::sim::SimCkks::new(
            &EncryptionParams::rns_ckks(8192, 40, 4),
            &RotationKeyPolicy::PowersOfTwo,
            1,
        )
        .without_noise();
        let t = Tensor::new(vec![1, 2, 2], vals.clone());
        let layout = Layout::hw(1, 2, 2, 0, h.slots());
        let scales = ScaleConfig::from_log2(30, 20, 20, 14);
        let enc = encrypt_tensor(&mut h, &t, &layout, scales.input);
        let out = try_hactivation(&mut h, &enc, a, b, &scales).unwrap();
        let got = decrypt_tensor(&mut h, &out);
        let want = chet::tensor::ops::activation(&t, a, b);
        prop_assert!(got.max_abs_diff(&want) < 1e-3);
    }
}

proptest! {
    // compile_checked runs a full compile + simulated probe per attempt:
    // keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn compile_checked_repair_converges(input_bits in 14u32..18, weight_bits in 6u32..9) {
        use chet::compiler::Compiler;
        use chet::hisa::params::SchemeKind;
        use chet::runtime::kernels::ScaleConfig;
        use chet::tensor::circuit::CircuitBuilder;
        use chet::tensor::ops::Padding;

        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 6, 6]);
        let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
        let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
        let a = b.activation(c, 0.2, 0.9);
        let g = b.global_avg_pool(a);
        let circuit = b.build(g);

        let starved = ScaleConfig::from_log2(input_bits, weight_bits, weight_bits, 4);
        let (compiled, report) = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(20))
            .compile_checked(&circuit, &starved)
            .expect("repair loop converges from any starved start");
        prop_assert!(report.attempts <= 4, "attempts: {}", report.attempts);
        prop_assert!(compiled.params.validate().is_ok());
        prop_assert!(report.final_scales.input >= starved.input);
    }
}
