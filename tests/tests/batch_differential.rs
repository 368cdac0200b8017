//! Differential witness for the batched execution engine: a survey run
//! with [`Engine::Batched`] (the default) must produce, bit for bit, the
//! report digest and observability trace of the same survey run with
//! [`Engine::Scalar`] — quiet and faulted, at every worker count. The
//! engine may only change *how* the kernels are evaluated (tone banks,
//! run-length prescans, lane-structured integration), never *what* they
//! compute (DESIGN.md §8).

use ecocapsule::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const STANDOFFS: [f64; 4] = [0.5, 0.8, 1.0, 1.5];
const DRIVE_V: f64 = 200.0;
const SEED: u64 = 0xBA7C_D1FF;

/// Runs one survey with the given engine and worker count, returning
/// the report digest and the recorded JSONL trace.
fn survey(engine: Engine, faulted: bool, workers: usize) -> (u64, String) {
    let plan = if faulted {
        FaultPlan::generate(SEED, &FaultIntensity::moderate(60))
    } else {
        FaultPlan::quiet()
    };
    let pool = if workers <= 1 {
        Pool::serial()
    } else {
        Pool::new(workers)
    };
    let mut wall = SelfSensingWall::common_wall(&STANDOFFS);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut rec = MemoryRecorder::new();
    let report = SurveyOptions::new()
        .tx_voltage(DRIVE_V)
        .fault_plan(&plan)
        .retry_policy(if faulted {
            RetryPolicy::paper_default()
        } else {
            RetryPolicy::none()
        })
        .pool(pool)
        .engine(engine)
        .recorder(&mut rec)
        .run(&mut wall, &mut rng)
        .expect("survey must succeed");
    assert_eq!(rec.unmatched_closes(), 0, "trace must be well-formed");
    (report.digest(), rec.to_jsonl())
}

/// Quiet surveys: batched digest and trace equal the scalar reference
/// at workers 1, 2 and max.
#[test]
fn quiet_batched_survey_is_bit_identical_to_scalar() {
    let (ref_digest, ref_trace) = survey(Engine::Scalar, false, 1);
    for workers in [1, 2, Pool::max_parallel().workers()] {
        let (digest, trace) = survey(Engine::Batched, false, workers);
        assert_eq!(digest, ref_digest, "digest diverged (workers={workers})");
        assert_eq!(trace, ref_trace, "trace diverged (workers={workers})");
    }
}

/// Faulted surveys with retries: the engines must agree even when the
/// channel is perturbed and the RNG stream is consumed by noise draws.
#[test]
fn faulted_batched_survey_is_bit_identical_to_scalar() {
    let (ref_digest, ref_trace) = survey(Engine::Scalar, true, 1);
    for workers in [1, 2, Pool::max_parallel().workers()] {
        let (digest, trace) = survey(Engine::Batched, true, workers);
        assert_eq!(digest, ref_digest, "digest diverged (workers={workers})");
        assert_eq!(trace, ref_trace, "trace diverged (workers={workers})");
    }
}

/// The scalar escape hatch is itself worker-count invariant — the
/// engine comparison above would be vacuous if the reference drifted.
#[test]
fn scalar_reference_is_worker_count_invariant() {
    let (d1, t1) = survey(Engine::Scalar, true, 1);
    let (d2, t2) = survey(Engine::Scalar, true, 2);
    assert_eq!(d1, d2);
    assert_eq!(t1, t2);
}

/// The f32 tone lane is the *only* approximate kernel, and its error is
/// bounded by the documented constant over a deterministic parameter
/// grid (the `fuzz`-gated property test in `dsp::batch` randomizes the
/// same bound).
#[test]
fn tone_f32_error_bound_holds_on_grid() {
    for &carrier_hz in &[230e3, 95e3, 512e3] {
        for &offset in &[0.0, 17.0, 1941.5] {
            let omega = 2.0 * std::f64::consts::PI * carrier_hz / 1.0e6;
            let lane = dsp::batch::tone_f32(omega, offset, 4096);
            let exact = dsp::batch::sin_table(omega, offset, 4096);
            for (i, (&f, &d)) in lane.iter().zip(exact.iter()).enumerate() {
                let err = (f64::from(f) - d).abs();
                assert!(
                    err <= dsp::batch::TONE_F32_MAX_ABS_ERR,
                    "entry {i} (carrier {carrier_hz}, offset {offset}): err {err:e}"
                );
            }
        }
    }
}

/// The full-spectrum carrier search that `dsp::ddc::estimate_carrier_hz`
/// replaced, rebuilt from the public spectrum API as the test oracle:
/// Hann window, one-sided power of all `n/2 + 1` bins, argmax excluding
/// DC, log-parabolic interpolation. Returns `(peak bin, estimate)`.
fn full_spectrum_carrier(signal: &[f64], fs_hz: f64) -> (usize, f64) {
    let taper = dsp::window::Window::Hann.build(signal.len());
    let windowed: Vec<f64> = signal.iter().zip(&taper).map(|(x, w)| x * w).collect();
    let (freqs, power) = dsp::fft::power_spectrum(&windowed, fs_hz).expect("spectrum");
    let (idx, f_peak, _) = dsp::fft::dominant_bin(&freqs, &power).expect("peak");
    if idx + 1 >= power.len() {
        return (idx, f_peak);
    }
    let eps = 1e-300;
    let l = (power[idx - 1] + eps).ln();
    let c = (power[idx] + eps).ln();
    let r = (power[idx + 1] + eps).ln();
    let denom = l - 2.0 * c + r;
    let delta = if denom.abs() < 1e-12 {
        0.0
    } else {
        0.5 * (l - r) / denom
    };
    let bin_hz = fs_hz / signal.len() as f64;
    (idx, f_peak + delta.clamp(-0.5, 0.5) * bin_hz)
}

/// Asserts the fold-and-refine estimate lands in the oracle's peak bin
/// and within `CARRIER_MAX_ABS_ERR_HZ` of the oracle's estimate.
fn assert_carrier_matches_oracle(signal: &[f64], fs_hz: f64, case: &str) {
    let (bin, exact_hz) = full_spectrum_carrier(signal, fs_hz);
    let fast_hz = dsp::ddc::estimate_carrier_hz(signal, fs_hz).expect("carrier");
    let bin_hz = fs_hz / signal.len() as f64;
    let peak_hz = bin as f64 * bin_hz;
    assert!(
        (fast_hz - peak_hz).abs() <= 0.5 * bin_hz + dsp::ddc::CARRIER_MAX_ABS_ERR_HZ,
        "{case}: estimate {fast_hz} Hz is outside the oracle's peak bin {bin} ({peak_hz} Hz)"
    );
    let err_hz = (fast_hz - exact_hz).abs();
    assert!(
        err_hz <= dsp::ddc::CARRIER_MAX_ABS_ERR_HZ,
        "{case}: |Δf| {err_hz:e} Hz (fast {fast_hz}, exact {exact_hz})"
    );
}

/// The carrier estimator is the second bounded kernel (DESIGN.md §8.3):
/// over noise σ × bitrate × capture length (odd, even, power of two) ×
/// perturbation (none, SNR dip, multipath leak scale, clock drift) it
/// picks the full-spectrum search's peak bin and stays within
/// `CARRIER_MAX_ABS_ERR_HZ` of its estimate. Each case offsets the
/// carrier by a seeded amount within ±500 Hz, so the peak falls at a
/// different place between the exact and the coarse bins every time.
#[test]
fn carrier_error_bound_holds_on_grid() {
    use channel::uplink::{faulted_noise_sigma, synthesize_uplink, UplinkConfig};
    use faults::Perturbation;
    use rand::Rng;

    let base = UplinkConfig::paper_default();
    let perturbations = [
        ("none", Perturbation::none()),
        (
            "snr-dip",
            Perturbation {
                snr_dip_db: 9.0,
                ..Perturbation::none()
            },
        ),
        (
            "leak-scale",
            Perturbation {
                multipath_leak_mult: 2.5,
                ..Perturbation::none()
            },
        ),
        (
            "clock-drift",
            Perturbation {
                clock_drift_frac: 0.04,
                ..Perturbation::none()
            },
        ),
    ];
    let mut rng = StdRng::seed_from_u64(SEED);
    for &sigma in &[0.0, 0.02, 0.2] {
        for &bitrate_bps in &[250.0, 500.0, 1000.0, 2000.0] {
            for &len in &[12_289usize, 20_000, 16_384] {
                for (name, p) in &perturbations {
                    let cfg = UplinkConfig {
                        carrier_hz: base.carrier_hz + rng.gen_range(-500.0..500.0),
                        ..base.under_fault(p)
                    };
                    // A drifting node clock runs its backscatter switch
                    // fast; the reader's carrier is unaffected.
                    let node_bps = bitrate_bps * (1.0 + p.clock_drift_frac);
                    let n_bits = (len as f64 * node_bps / cfg.fs_hz).ceil() as usize;
                    let bits: Vec<bool> = (0..n_bits).map(|_| rng.gen_bool(0.5)).collect();
                    let noise = faulted_noise_sigma(sigma, p);
                    let (mut capture, _) =
                        synthesize_uplink(&cfg, &bits, node_bps, 1e-3, noise, &mut rng);
                    assert!(capture.len() >= len, "capture shorter than {len}");
                    capture.truncate(len);
                    let case = format!(
                        "σ {sigma}, {bitrate_bps} bps, n {len}, {name}, carrier {} Hz",
                        cfg.carrier_hz
                    );
                    assert_carrier_matches_oracle(&capture, cfg.fs_hz, &case);
                }
            }
        }
    }
}

/// Two tones: both estimators must lock onto the strong interferer, not
/// the weak wanted carrier (the scenario of `downconvert`'s interferer
/// test in `dsp::ddc`).
#[test]
fn carrier_estimators_agree_on_two_tones() {
    let fs_hz = 1.0e6;
    let sig: Vec<f64> = (0..20_000)
        .map(|i| {
            let t = i as f64 / fs_hz;
            0.1 * (2.0 * std::f64::consts::PI * 230e3 * t).sin()
                + (2.0 * std::f64::consts::PI * 150e3 * t).sin()
        })
        .collect();
    let (_, exact_hz) = full_spectrum_carrier(&sig, fs_hz);
    let fast_hz = dsp::ddc::estimate_carrier_hz(&sig, fs_hz).expect("carrier");
    assert!(
        (exact_hz - 150e3).abs() < 5.0,
        "oracle picked {exact_hz} Hz"
    );
    assert!(
        (fast_hz - 150e3).abs() < 5.0,
        "estimator picked {fast_hz} Hz"
    );
    assert_carrier_matches_oracle(&sig, fs_hz, "two tones");
}
