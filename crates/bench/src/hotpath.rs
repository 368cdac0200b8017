//! The hot-path microbenchmark: per-stage ns/sample of the scalar survey
//! kernels against their batched [`dsp::batch`] counterparts, with
//! bit-identity checks and `BENCH_hotpath.json` emission.
//!
//! Four stages cover the survey inner loop end to end (DESIGN.md §8):
//!
//! * `synth` — FM0 uplink waveform synthesis:
//!   [`channel::uplink::synthesize_uplink`] vs the tone-bank path of
//!   [`channel::uplink::synthesize_uplink_with`]. Timed noiseless so the
//!   stage isolates the sin-vs-lookup kernel (the noise branch draws the
//!   identical RNG stream under both engines); the identity pass *does*
//!   add noise and folds the post-call RNG position into the checksum.
//! * `ddc` — baseband envelope extraction:
//!   [`dsp::ddc::baseband_magnitude`] (allocating) vs a reused
//!   [`dsp::batch::DdcScratch`].
//! * `decode` — preamble correlation: [`dsp::correlate::best_match`]
//!   (full `O(lags × template)` scan) vs the run-length prescanned
//!   [`dsp::batch::best_match_exact`].
//! * `harvest` — storage-capacitor integration:
//!   per-capsule [`node::harvester::Harvester::simulate_store`] vs the
//!   lane-structured [`node::harvester::Harvester::simulate_store_lanes`].
//!
//! Every stage checksums the full numeric output of both passes
//! (FNV-1a over the IEEE-754 bit patterns); [`verify`] (called by
//! [`run_all`]) rejects any stage whose batched output is not
//! bit-identical to its scalar output, and CI runs the smoke profile
//! through `repro --only bench_hotpath` so the identity contract and
//! the JSON schema cannot silently rot.
//!
//! The emitted `BENCH_hotpath.json` (schema `ecocapsule-bench-hotpath/1`)
//! lives at the repo root next to `BENCH_sweeps.json`, one file per run,
//! safe to diff across commits.

use channel::uplink::{synthesize_uplink, synthesize_uplink_with, UplinkConfig};
use dsp::batch::Engine;
use dsp::{EcoError, EcoResult};
use faults::fnv1a64;
use node::harvester::Harvester;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Fixed stage seed: hot-path numbers are a regression trajectory, so
/// runs must be comparable across commits.
const STAGE_SEED: u64 = 0x1107_BA7C;

/// One-pole smoothing constant used by the `ddc` stage (matches the
/// reader's envelope tracker time scale).
const DDC_TAU_S: f64 = 30e-6;

/// Sizes of every stage; [`Scale::full`] for the committed trajectory,
/// [`Scale::smoke`] for the CI gate.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Payload bits per synthesized capture (sets the waveform length).
    pub synth_bits: usize,
    /// Timed repetitions of the `synth` and `ddc` stages.
    pub wave_reps: usize,
    /// Baseband samples fed to the `decode` correlators.
    pub decode_len: usize,
    /// Timed repetitions of the `decode` stage.
    pub decode_reps: usize,
    /// Capsule lanes simulated by the `harvest` stage.
    pub harvest_lanes: usize,
    /// Timed repetitions of the `harvest` stage.
    pub harvest_reps: usize,
    /// True when this is the reduced CI profile.
    pub smoke: bool,
}

impl Scale {
    /// The committed-trajectory profile (a few seconds per stage).
    #[must_use]
    pub fn full() -> Self {
        Scale {
            synth_bits: 192,
            wave_reps: 10,
            decode_len: 60_000,
            decode_reps: 3,
            harvest_lanes: 24,
            harvest_reps: 10,
            smoke: false,
        }
    }

    /// The CI profile: every stage shrunk to tens of milliseconds.
    #[must_use]
    pub fn smoke() -> Self {
        Scale {
            synth_bits: 24,
            wave_reps: 2,
            decode_len: 10_000,
            decode_reps: 1,
            harvest_lanes: 6,
            harvest_reps: 2,
            smoke: true,
        }
    }
}

/// Scalar-vs-batched timing of one hot-path stage.
#[derive(Debug, Clone)]
pub struct StageResult {
    /// Stage name (stable across commits; keys the JSON).
    pub name: &'static str,
    /// Samples processed per timed pass.
    pub samples_per_pass: usize,
    /// Timed repetitions per engine.
    pub reps: usize,
    /// Scalar-engine cost (ns per sample).
    pub serial_ns_per_sample: f64,
    /// Batched-engine cost (ns per sample).
    pub batched_ns_per_sample: f64,
    /// FNV-1a checksum of the scalar pass output.
    pub checksum_serial: u64,
    /// FNV-1a checksum of the batched pass output.
    pub checksum_batched: u64,
}

impl StageResult {
    /// Scalar ns/sample divided by batched ns/sample.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.batched_ns_per_sample > 0.0 {
            self.serial_ns_per_sample / self.batched_ns_per_sample
        } else {
            1.0
        }
    }

    /// Whether both engines produced exactly the same bytes.
    #[must_use]
    pub fn bit_identical(&self) -> bool {
        self.checksum_serial == self.checksum_batched
    }
}

/// Times `reps` calls of `kernel` and returns `(ns_per_sample, output)`
/// where the per-sample cost divides by `samples × reps` and the output
/// is the final repetition's (every repetition computes the same value —
/// the kernels are deterministic). One untimed warm-up call populates
/// the shared tone-bank / plan caches (the batched engine amortizes them
/// across a session) and faults in the inputs; checksum digestion
/// happens outside the clock so both engines are measured on kernel
/// work alone.
fn time_kernel<T>(reps: usize, samples: usize, mut kernel: impl FnMut() -> T) -> (f64, T) {
    let mut out = kernel();
    let t0 = Instant::now();
    for _ in 0..reps {
        out = std::hint::black_box(kernel());
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let ns = wall_s * 1e9 / (samples.max(1) * reps.max(1)) as f64;
    (ns, out)
}

/// Stage 1 — `synth`: uplink waveform synthesis, scalar sin evaluation
/// vs shared tone banks. The identity pass runs both engines once with
/// noise on paired RNGs and folds the post-call RNG position into the
/// checksums, so a diverging noise branch fails the identity gate even
/// though the timed passes are noiseless.
#[must_use]
pub fn synth_stage(scale: &Scale) -> StageResult {
    let cfg = UplinkConfig::paper_default();
    let bits: Vec<bool> = {
        let mut rng = StdRng::seed_from_u64(STAGE_SEED);
        (0..scale.synth_bits).map(|_| rng.gen_bool(0.5)).collect()
    };
    let mut rng = StdRng::seed_from_u64(STAGE_SEED);
    let (probe, _) = synthesize_uplink(&cfg, &bits, 1000.0, 1e-3, 0.0, &mut rng);
    let samples = probe.len();

    // Untimed noisy identity probe: a short capture per engine with the
    // post-call RNG stream position appended, so a diverging noise
    // branch fails the identity gate even though the timed kernels are
    // noiseless.
    let digest = |engine: Engine, y: &[f64]| -> u64 {
        let mut words: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
        let mut rng = StdRng::seed_from_u64(STAGE_SEED ^ 0xB2);
        let (noisy, _) = synthesize_uplink_with(
            &cfg,
            &bits[..bits.len().min(8)],
            1000.0,
            0.0,
            0.02,
            &mut rng,
            engine,
        );
        words.extend(noisy.iter().map(|v| v.to_bits()));
        words.push(rng.gen::<u64>());
        fnv1a64(words)
    };
    let run = |engine: Engine| {
        let mut rng = StdRng::seed_from_u64(STAGE_SEED ^ 0xA1);
        let (y, _) = synthesize_uplink_with(&cfg, &bits, 1000.0, 1e-3, 0.0, &mut rng, engine);
        y
    };
    let (serial_ns, y_serial) = time_kernel(scale.wave_reps, samples, || run(Engine::Scalar));
    let (batched_ns, y_batched) = time_kernel(scale.wave_reps, samples, || run(Engine::Batched));
    let checksum_serial = digest(Engine::Scalar, &y_serial);
    let checksum_batched = digest(Engine::Batched, &y_batched);
    StageResult {
        name: "synth",
        samples_per_pass: samples,
        reps: scale.wave_reps,
        serial_ns_per_sample: serial_ns,
        batched_ns_per_sample: batched_ns,
        checksum_serial,
        checksum_batched,
    }
}

/// Builds the stage input shared by `ddc` and `decode`: a noiseless
/// synthesized capture plus its FM0 codec.
fn capture_for(scale: &Scale) -> (Vec<f64>, phy::fm0::Fm0) {
    let cfg = UplinkConfig {
        delay_s: 0.0,
        ..UplinkConfig::paper_default()
    };
    let bits: Vec<bool> = {
        let mut rng = StdRng::seed_from_u64(STAGE_SEED ^ 0xC3);
        (0..scale.synth_bits).map(|_| rng.gen_bool(0.5)).collect()
    };
    let mut rng = StdRng::seed_from_u64(STAGE_SEED ^ 0xC3);
    synthesize_uplink(&cfg, &bits, 1000.0, 1e-3, 0.0, &mut rng)
}

/// Stage 2 — `ddc`: baseband envelope extraction, allocating
/// [`dsp::ddc::baseband_magnitude`] vs a reused
/// [`dsp::batch::DdcScratch`]. Same arithmetic, so the speedup here is
/// pure allocation amortization.
#[must_use]
pub fn ddc_stage(scale: &Scale) -> StageResult {
    let cfg = UplinkConfig::paper_default();
    let (capture, _) = capture_for(scale);
    let samples = capture.len();

    let (serial_ns, mag_serial) = time_kernel(scale.wave_reps, samples, || {
        dsp::ddc::baseband_magnitude(&capture, cfg.carrier_hz, DDC_TAU_S, cfg.fs_hz)
    });
    let mut scratch = dsp::batch::DdcScratch::new();
    let (batched_ns, ()) = time_kernel(scale.wave_reps, samples, || {
        scratch.baseband_magnitude(&capture, cfg.carrier_hz, DDC_TAU_S, cfg.fs_hz);
    });
    // The scratch buffer still holds the final repetition's envelope.
    let mag_batched = scratch.baseband_magnitude(&capture, cfg.carrier_hz, DDC_TAU_S, cfg.fs_hz);
    let checksum_serial = fnv1a64(mag_serial.iter().map(|v| v.to_bits()));
    let checksum_batched = fnv1a64(mag_batched.iter().map(|v| v.to_bits()));
    StageResult {
        name: "ddc",
        samples_per_pass: samples,
        reps: scale.wave_reps,
        serial_ns_per_sample: serial_ns,
        batched_ns_per_sample: batched_ns,
        checksum_serial,
        checksum_batched,
    }
}

/// Stage 3 — `decode`: preamble correlation over a realistic baseband.
/// The template is an FM0-coded bit pattern (piecewise-constant, so the
/// batched prescan compresses it to a handful of runs); the signal is
/// the mean-subtracted envelope of a synthesized capture.
#[must_use]
pub fn decode_stage(scale: &Scale) -> StageResult {
    let cfg = UplinkConfig::paper_default();
    let (capture, fm0) = capture_for(scale);
    let mag = dsp::ddc::baseband_magnitude(&capture, cfg.carrier_hz, DDC_TAU_S, cfg.fs_hz);
    let mean = dsp::stats::mean(&mag);
    let mut signal: Vec<f64> = mag.iter().map(|&v| v - mean).collect();
    signal.truncate(scale.decode_len);
    let template = fm0.encode(&[true, false, true, false, true, true]);
    let samples = signal.len();

    let digest = |m: Option<(usize, f64)>| {
        fnv1a64(m.map_or_else(Vec::new, |(lag, score)| vec![lag as u64, score.to_bits()]))
    };
    let (serial_ns, m_serial) = time_kernel(scale.decode_reps, samples, || {
        dsp::correlate::best_match(&signal, &template)
    });
    let (batched_ns, m_batched) = time_kernel(scale.decode_reps, samples, || {
        dsp::batch::best_match_exact(&signal, &template)
    });
    let checksum_serial = digest(m_serial);
    let checksum_batched = digest(m_batched);
    StageResult {
        name: "decode",
        samples_per_pass: samples,
        reps: scale.decode_reps,
        serial_ns_per_sample: serial_ns,
        batched_ns_per_sample: batched_ns,
        checksum_serial,
        checksum_batched,
    }
}

/// Stage 4 — `harvest`: storage-capacitor integration for a whole wall.
/// The scalar pass simulates each capsule's store on its own scaled
/// envelope; the batched pass runs all lanes through
/// [`node::harvester::Harvester::simulate_store_lanes`] at once.
#[must_use]
pub fn harvest_stage(scale: &Scale) -> StageResult {
    let harvester = Harvester::default();
    // A PIE-like burst envelope: alternating drive and quiet segments.
    let envelope: Vec<(f64, f64)> = (0..8)
        .map(|k| {
            if k % 2 == 0 {
                (25e-3, 1.4)
            } else {
                (25e-3, 0.35)
            }
        })
        .collect();
    let dt_s = 20e-6;
    let gains: Vec<f64> = (0..scale.harvest_lanes)
        .map(|lane| 0.25 + 1.5 * lane as f64 / scale.harvest_lanes.max(1) as f64)
        .collect();
    let steps: usize = envelope
        .iter()
        .map(|&(dur, _)| (dur / dt_s).ceil() as usize)
        .sum();
    let samples = steps * gains.len();

    let digest = |lanes: &[Vec<(f64, f64)>]| {
        fnv1a64(
            lanes
                .iter()
                .flatten()
                .flat_map(|&(t, v)| [t.to_bits(), v.to_bits()]),
        )
    };
    let (serial_ns, lanes_serial) = time_kernel(scale.harvest_reps, samples, || {
        gains
            .iter()
            .map(|&g| {
                let scaled: Vec<(f64, f64)> =
                    envelope.iter().map(|&(dur, v)| (dur, v * g)).collect();
                harvester.simulate_store(&scaled, dt_s)
            })
            .collect::<Vec<_>>()
    });
    let (batched_ns, lanes_batched) = time_kernel(scale.harvest_reps, samples, || {
        harvester.simulate_store_lanes(&envelope, dt_s, &gains)
    });
    let checksum_serial = digest(&lanes_serial);
    let checksum_batched = digest(&lanes_batched);
    StageResult {
        name: "harvest",
        samples_per_pass: samples,
        reps: scale.harvest_reps,
        serial_ns_per_sample: serial_ns,
        batched_ns_per_sample: batched_ns,
        checksum_serial,
        checksum_batched,
    }
}

/// Runs every stage at `scale`; errors if any stage's batched output is
/// not bit-identical to its scalar output.
#[must_use]
pub fn run_all(scale: &Scale) -> EcoResult<Vec<StageResult>> {
    let results = vec![
        synth_stage(scale),
        ddc_stage(scale),
        decode_stage(scale),
        harvest_stage(scale),
    ];
    verify(&results)?;
    Ok(results)
}

/// Checks the bench invariant: at least one stage ran, and every
/// stage's batched output is bit-identical to its scalar output.
#[must_use]
pub fn verify(results: &[StageResult]) -> EcoResult<()> {
    if results.is_empty() {
        return Err(EcoError::Numerical {
            what: "hot-path bench ran no stages",
        });
    }
    if !results.iter().all(StageResult::bit_identical) {
        return Err(EcoError::Numerical {
            what: "batched hot path diverged from scalar output",
        });
    }
    Ok(())
}

/// Renders results as `BENCH_hotpath.json` (schema
/// `ecocapsule-bench-hotpath/1`). Hand-rolled emission — the workspace
/// is hermetic, so no serde.
#[must_use]
pub fn to_json(results: &[StageResult], scale: &Scale) -> String {
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"ecocapsule-bench-hotpath/1\",\n");
    out.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    out.push_str(&format!("  \"smoke\": {},\n", scale.smoke));
    out.push_str("  \"stages\": [\n");
    for (k, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!(
            "      \"samples_per_pass\": {},\n",
            r.samples_per_pass
        ));
        out.push_str(&format!("      \"reps\": {},\n", r.reps));
        out.push_str(&format!(
            "      \"serial_ns_per_sample\": {:.3},\n",
            r.serial_ns_per_sample
        ));
        out.push_str(&format!(
            "      \"batched_ns_per_sample\": {:.3},\n",
            r.batched_ns_per_sample
        ));
        out.push_str(&format!("      \"speedup\": {:.3},\n", r.speedup()));
        out.push_str(&format!(
            "      \"bit_identical\": {},\n",
            r.bit_identical()
        ));
        out.push_str(&format!(
            "      \"checksum\": \"{:#018x}\"\n",
            r.checksum_serial
        ));
        out.push_str(if k + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_is_bit_identical_across_engines() {
        let results = run_all(&Scale::smoke()).expect("hot-path stages run");
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(r.bit_identical(), "stage {} diverged", r.name);
            assert!(r.samples_per_pass > 0);
        }
    }

    #[test]
    fn json_has_schema_and_all_stages() {
        let results = run_all(&Scale::smoke()).expect("hot-path stages run");
        let json = to_json(&results, &Scale::smoke());
        assert!(json.contains("\"schema\": \"ecocapsule-bench-hotpath/1\""));
        for name in ["synth", "ddc", "decode", "harvest"] {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
