//! The parallel sweep engine: serial-vs-parallel timed parameter grids
//! with bit-identity checks and `BENCH_sweeps.json` emission.
//!
//! Each *workload* is a grid of independent cells (a wall survey, a
//! multipath field map, an uplink capture decode, a BER Monte-Carlo
//! block). The runner executes the same grid twice — once on
//! [`Pool::serial`], once on the given parallel pool — via
//! [`Pool::par_map`], checksums the numeric output of both passes, and
//! reports wall-clock plus a per-stage CPU-time breakdown. Because every
//! cell derives its RNG from [`exec::seed::derive`]`(grid_seed, index)`
//! and results merge in cell order, the two checksums must agree exactly;
//! [`verify`] (called by [`run_all`]) rejects any divergence, and CI
//! runs the smoke profile through `repro --only bench_sweeps` so the
//! guarantee (and the JSON schema) cannot silently rot.
//!
//! The emitted `BENCH_sweeps.json` (schema `ecocapsule-bench-sweeps/1`)
//! is the repo's performance trajectory: one file per run at the repo
//! root, safe to diff across commits.

use dsp::{EcoError, EcoResult};
use ecocapsule::prelude::*;
use exec::Pool;
use faults::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Fixed grid seed: sweeps are a regression trajectory, so runs must be
/// comparable across commits.
const GRID_SEED: u64 = 0x1077_0CAB;

/// Sizes of every workload grid; [`Scale::full`] for the committed
/// trajectory, [`Scale::smoke`] for the CI gate.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Wall standoff sets × drive voltages for the survey grid.
    pub survey_sets: usize,
    /// Monte-Carlo bits per BER cell.
    pub ber_bits: usize,
    /// SNR points in the BER grid.
    pub ber_snrs: usize,
    /// Field-map resolution (grid points per axis).
    pub field_pts: usize,
    /// Image-source reflection order for the field map.
    pub field_order: i32,
    /// Uplink captures to synthesize and decode.
    pub captures: usize,
    /// Payload bits per capture.
    pub capture_bits: usize,
    /// True when this is the reduced CI profile.
    pub smoke: bool,
}

impl Scale {
    /// The committed-trajectory profile (seconds per workload).
    #[must_use]
    pub fn full() -> Self {
        Scale {
            survey_sets: 3,
            ber_bits: 60_000,
            ber_snrs: 9,
            field_pts: 40,
            field_order: 4,
            captures: 12,
            capture_bits: 160,
            smoke: false,
        }
    }

    /// The CI profile: every workload shrunk to a few hundred ms.
    #[must_use]
    pub fn smoke() -> Self {
        Scale {
            survey_sets: 1,
            ber_bits: 4_000,
            ber_snrs: 4,
            field_pts: 12,
            field_order: 2,
            captures: 3,
            capture_bits: 48,
            smoke: true,
        }
    }
}

/// What one grid cell feeds back to the runner.
struct CellOut {
    /// Checksummed numeric output (order matters).
    words: Vec<u64>,
    /// `(stage name, seconds)` of CPU time spent per stage.
    stages: Vec<(&'static str, f64)>,
}

/// Serial + parallel timings of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name (stable across commits; keys the JSON).
    pub name: &'static str,
    /// Number of grid cells.
    pub tasks: usize,
    /// Wall-clock of the serial pass (ms).
    pub serial_wall_ms: f64,
    /// Wall-clock of the parallel pass (ms).
    pub parallel_wall_ms: f64,
    /// Worker count of the parallel pass's pool.
    pub parallel_workers: usize,
    /// FNV-1a checksum of the serial pass output.
    pub checksum_serial: u64,
    /// FNV-1a checksum of the parallel pass output.
    pub checksum_parallel: u64,
    /// Per-stage CPU time summed over cells of the serial pass (ms).
    pub stage_cpu_ms: Vec<(&'static str, f64)>,
}

impl WorkloadResult {
    /// Serial wall-clock divided by parallel wall-clock; `None` when the
    /// parallel pass ran on one worker, where the ratio is only noise.
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        (self.parallel_workers > 1 && self.parallel_wall_ms > 0.0)
            .then(|| self.serial_wall_ms / self.parallel_wall_ms)
    }

    /// Whether both passes produced exactly the same bytes.
    #[must_use]
    pub fn bit_identical(&self) -> bool {
        self.checksum_serial == self.checksum_parallel
    }
}

/// Runs one grid twice (serial, then on `pool`) and assembles the result.
fn run_workload<T, F>(
    name: &'static str,
    cells: &[T],
    pool: &Pool,
    cell_fn: F,
) -> EcoResult<WorkloadResult>
where
    T: Sync,
    F: Fn(usize, &T) -> EcoResult<CellOut> + Sync,
{
    let serial_pool = Pool::serial();
    let t0 = Instant::now();
    let serial_out = gather(serial_pool.par_map(cells, |i, c| cell_fn(i, c)))?;
    let serial_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let parallel_out = gather(pool.par_map(cells, |i, c| cell_fn(i, c)))?;
    let parallel_wall_ms = t1.elapsed().as_secs_f64() * 1e3;

    let checksum_serial = fnv1a64(serial_out.iter().flat_map(|c| c.words.iter().copied()));
    let checksum_parallel = fnv1a64(parallel_out.iter().flat_map(|c| c.words.iter().copied()));
    // Per-stage CPU time from the serial pass (the parallel pass computes
    // the same stages; serial numbers are free of contention noise).
    let mut stage_cpu_ms: Vec<(&'static str, f64)> = Vec::new();
    for cell in &serial_out {
        for &(stage, secs) in &cell.stages {
            match stage_cpu_ms.iter_mut().find(|(s, _)| *s == stage) {
                Some((_, total)) => *total += secs * 1e3,
                None => stage_cpu_ms.push((stage, secs * 1e3)),
            }
        }
    }
    Ok(WorkloadResult {
        name,
        tasks: cells.len(),
        serial_wall_ms,
        parallel_wall_ms,
        parallel_workers: pool.workers(),
        checksum_serial,
        checksum_parallel,
        stage_cpu_ms,
    })
}

/// Propagates the first cell error out of a mapped grid.
fn gather(cells: Vec<EcoResult<CellOut>>) -> EcoResult<Vec<CellOut>> {
    cells.into_iter().collect()
}

/// Workload 1 — `survey-grid`: full waveform-level wall surveys (charge →
/// inventory → parallel-safe sensor reads) over standoff sets × drive
/// voltages. Each cell runs its survey on an inner serial pool; the
/// outer grid supplies the parallelism.
#[must_use]
pub fn survey_grid(scale: &Scale, pool: &Pool) -> EcoResult<WorkloadResult> {
    let standoff_sets: &[&[f64]] = &[&[0.5, 1.0], &[0.5, 1.0, 1.5], &[0.8, 1.6]];
    let voltages = [150.0, 200.0, 250.0];
    let mut cells: Vec<(&[f64], f64)> = Vec::new();
    for set in standoff_sets.iter().take(scale.survey_sets) {
        for &v in voltages.iter().take(if scale.smoke { 2 } else { 3 }) {
            cells.push((set, v));
        }
    }
    run_workload("survey-grid", &cells, pool, |i, &(standoffs, voltage)| {
        let t = Instant::now();
        let mut wall = SelfSensingWall::common_wall(standoffs);
        let mut rng = StdRng::seed_from_u64(exec::seed::derive(GRID_SEED, i as u64));
        let report = ecocapsule::scenario::SurveyOptions::new()
            .tx_voltage(voltage)
            .run(&mut wall, &mut rng)?;
        let mut words: Vec<u64> = Vec::new();
        words.extend(report.powered_ids.iter().map(|&id| u64::from(id)));
        words.extend(report.inventoried_ids.iter().map(|&id| u64::from(id)));
        for (id, kind, value) in &report.readings {
            words.push(u64::from(*id));
            words.push(*kind as u64);
            words.push(value.to_bits());
        }
        Ok(CellOut {
            words,
            stages: vec![("survey", t.elapsed().as_secs_f64())],
        })
    })
}

/// Workload 2 — `fieldmap`: link-budget coverage plus an image-source
/// multipath amplitude map per concrete grade and source position. Pure
/// closed-form compute: no RNG, so it doubles as a check that the engine
/// is deterministic even without seed derivation.
#[must_use]
pub fn fieldmap(scale: &Scale, pool: &Pool) -> EcoResult<WorkloadResult> {
    use channel::multipath::Wall2d;
    let grades = [
        ConcreteGrade::Nc,
        ConcreteGrade::Uhpc,
        ConcreteGrade::Uhpfrc,
    ];
    let sources = [(0.1, 1.0), (0.1, 0.5), (1.0, 1.9), (1.9, 0.1)];
    let mut cells: Vec<(ConcreteGrade, (f64, f64))> = Vec::new();
    for &g in grades.iter().take(if scale.smoke { 1 } else { 3 }) {
        for &s in sources.iter().take(if scale.smoke { 2 } else { 4 }) {
            cells.push((g, s));
        }
    }
    let pts = scale.field_pts;
    let order = scale.field_order;
    run_workload("fieldmap", &cells, pool, move |_, &(grade, src)| {
        let mut words: Vec<u64> = Vec::new();
        // Stage 1: link budget over the structure this grade implies.
        let t0 = Instant::now();
        let structure = Structure::s3_common_wall();
        let lb = LinkBudget::for_structure(&structure)?;
        for step in 1..=pts {
            let d_m = 4.0 * step as f64 / pts as f64;
            words.push(lb.received_voltage(200.0, d_m)?.to_bits());
        }
        if let Some(reach_m) = lb.max_range_m(200.0, 0.5)? {
            words.push(reach_m.to_bits());
        }
        let linkbudget_s = t0.elapsed().as_secs_f64();
        // Stage 2: coherent multipath amplitude over a pts × pts map.
        let t1 = Instant::now();
        let mix = grade.mix();
        let wall = Wall2d::new(2.0, 2.0, mix.material().cs_m_s, mix.attenuation_s(), 230e3);
        for ix in 1..pts {
            for iy in 1..pts {
                let rx = (2.0 * ix as f64 / pts as f64, 2.0 * iy as f64 / pts as f64);
                words.push(wall.coherent_amplitude(src, rx, order).to_bits());
            }
        }
        let multipath_s = t1.elapsed().as_secs_f64();
        Ok(CellOut {
            words,
            stages: vec![("linkbudget", linkbudget_s), ("multipath", multipath_s)],
        })
    })
}

/// Workload 3 — `uplink-decode`: synthesize an FM0 backscatter capture,
/// compute its spectrogram (exercising the FFT plan and window caches),
/// and estimate the carrier. The stage split shows where the DSP time
/// goes.
#[must_use]
pub fn uplink_decode(scale: &Scale, pool: &Pool) -> EcoResult<WorkloadResult> {
    use channel::uplink::{synthesize_uplink, UplinkConfig};
    let cells: Vec<u64> = (0..scale.captures as u64).collect();
    let capture_bits = scale.capture_bits;
    run_workload("uplink-decode", &cells, pool, move |i, _| {
        let mut rng = StdRng::seed_from_u64(exec::seed::derive(GRID_SEED ^ 0xA5A5, i as u64));
        let cfg = UplinkConfig {
            delay_s: 0.0,
            ..UplinkConfig::paper_default()
        };
        // Stage 1: waveform synthesis (CBW leak + FM0 backscatter + noise).
        let t0 = Instant::now();
        let bits: Vec<bool> = (0..capture_bits).map(|_| rng.gen_bool(0.5)).collect();
        let (samples, _) = synthesize_uplink(&cfg, &bits, 1000.0, 1e-3, 0.002, &mut rng);
        let synthesize_s = t0.elapsed().as_secs_f64();
        // Stage 2: STFT over the capture.
        let t1 = Instant::now();
        let sg = dsp::spectrogram::Spectrogram::compute(&samples, 512, 256, cfg.fs_hz)?;
        let spectrogram_s = t1.elapsed().as_secs_f64();
        // Stage 3: carrier estimation off the raw capture.
        let t2 = Instant::now();
        let carrier_hz =
            dsp::ddc::estimate_carrier_hz(&samples, cfg.fs_hz).ok_or(EcoError::Numerical {
                what: "carrier estimate",
            })?;
        let carrier_s = t2.elapsed().as_secs_f64();
        let mut words: Vec<u64> = vec![carrier_hz.to_bits(), sg.frames() as u64];
        words.extend(sg.frequency_track().iter().map(|f_hz| f_hz.to_bits()));
        for frame in 0..sg.frames() {
            if let Some(p) = sg.band_power(frame, 200e3, 260e3) {
                words.push(p.to_bits());
            }
        }
        Ok(CellOut {
            words,
            stages: vec![
                ("synthesize", synthesize_s),
                ("spectrogram", spectrogram_s),
                ("carrier", carrier_s),
            ],
        })
    })
}

/// Workload 4 — `ber-grid`: the Fig 15 Monte-Carlo waterfall, one cell
/// per SNR point with a per-cell derived seed (the binary's serial loop
/// used to thread one RNG through all SNRs, which can't parallelize).
#[must_use]
pub fn ber_grid(scale: &Scale, pool: &Pool) -> EcoResult<WorkloadResult> {
    let all_snrs = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0, 18.0];
    let cells: Vec<f64> = all_snrs.iter().take(scale.ber_snrs).copied().collect();
    let ber_bits = scale.ber_bits;
    run_workload("ber-grid", &cells, pool, move |i, &snr_db| {
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(exec::seed::derive(GRID_SEED ^ 0x15, i as u64));
        let eco = reader::rx::simulate_fm0_ber(snr_db, ber_bits, &mut rng);
        let pab = baselines::pab::pab_ber(snr_db, ber_bits, &mut rng);
        Ok(CellOut {
            words: vec![snr_db.to_bits(), eco.to_bits(), pab.to_bits()],
            stages: vec![("montecarlo", t.elapsed().as_secs_f64())],
        })
    })
}

/// Runs every workload at `scale` on `pool`; errors if any workload's
/// parallel pass is not bit-identical to its serial pass.
#[must_use]
pub fn run_all(scale: &Scale, pool: &Pool) -> EcoResult<Vec<WorkloadResult>> {
    let results = vec![
        survey_grid(scale, pool)?,
        fieldmap(scale, pool)?,
        uplink_decode(scale, pool)?,
        ber_grid(scale, pool)?,
    ];
    verify(&results)?;
    Ok(results)
}

/// Checks the bench invariant: at least one workload ran, and every
/// workload's parallel output is bit-identical to its serial output.
#[must_use]
pub fn verify(results: &[WorkloadResult]) -> EcoResult<()> {
    if results.is_empty() {
        return Err(EcoError::Numerical {
            what: "sweep bench ran no workloads",
        });
    }
    if !results.iter().all(WorkloadResult::bit_identical) {
        return Err(EcoError::Numerical {
            what: "parallel sweep diverged from serial output",
        });
    }
    Ok(())
}

/// Renders results as `BENCH_sweeps.json` (schema
/// `ecocapsule-bench-sweeps/1`). Hand-rolled emission — the workspace is
/// hermetic, so no serde.
#[must_use]
pub fn to_json(results: &[WorkloadResult], pool: &Pool, scale: &Scale) -> String {
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"ecocapsule-bench-sweeps/1\",\n");
    out.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    out.push_str(&format!("  \"pool_workers\": {},\n", pool.workers()));
    out.push_str(&format!("  \"smoke\": {},\n", scale.smoke));
    out.push_str("  \"workloads\": [\n");
    for (k, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"tasks\": {},\n", r.tasks));
        out.push_str(&format!(
            "      \"serial_wall_ms\": {:.3},\n",
            r.serial_wall_ms
        ));
        out.push_str(&format!(
            "      \"parallel_wall_ms\": {:.3},\n",
            r.parallel_wall_ms
        ));
        if let Some(speedup) = r.speedup() {
            out.push_str(&format!("      \"speedup\": {speedup:.3},\n"));
        }
        out.push_str(&format!(
            "      \"bit_identical\": {},\n",
            r.bit_identical()
        ));
        out.push_str(&format!(
            "      \"checksum\": \"{:#018x}\",\n",
            r.checksum_serial
        ));
        out.push_str("      \"stage_cpu_ms\": {");
        let stages: Vec<String> = r
            .stage_cpu_ms
            .iter()
            .map(|(name, ms)| format!("\"{name}\": {ms:.3}"))
            .collect();
        out.push_str(&stages.join(", "));
        out.push_str("}\n");
        out.push_str(if k + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}
