//! Digital downconversion (DDC).
//!
//! The reader's decoder first estimates the carrier frequency from the
//! power spectrum, then mixes the real capture with a complex exponential
//! at that frequency and lowpasses, yielding the complex baseband whose
//! magnitude carries the backscatter envelope (§5.1).

use crate::complex::Complex;
use crate::fft;
use crate::filter::{Fir, OnePole};
use crate::goertzel::Goertzel;
use crate::plan;
use crate::window::Window;

/// Largest deviation of [`estimate_carrier_hz`] from the full-spectrum
/// estimator it replaces (Hann window, one-sided power spectrum of all
/// `n/2 + 1` bins, argmax, log-parabolic interpolation), in Hz. Both
/// evaluate the same exact `k·fs/n` bins; when the strongest one lies in
/// the main lobe around the coarse peak, as a dominant carrier's does,
/// they pick the same peak bin and differ only by the rounding of the
/// single-bin sums. The bound is checked on a noise × bitrate × length ×
/// perturbation grid in `tests/tests/batch_differential.rs`
/// (DESIGN.md §8.3).
pub const CARRIER_MAX_ABS_ERR_HZ: f64 = 1e-6;

/// Half-width, in exact `fs/n` bins, of the span searched around the
/// coarse peak. The coarse grid spacing `fs/m` is under two exact bins,
/// so a main-lobe peak lies within three exact bins of the coarse
/// argmax mapped onto the exact grid.
const REFINE_HALF_WIDTH: usize = 3;

/// Estimates the dominant carrier frequency of a real capture.
///
/// Finds the strongest bin (excluding DC) of the Hann-windowed length-`n`
/// DFT and refines it by parabolic interpolation on the log-power of the
/// three bins around the peak — without computing the full spectrum:
///
/// 1. the windowed capture is folded onto `m` points, `m` the power of
///    two with `n/2 < m ≤ n`; the `m`-point DFT of the fold is exactly
///    the capture's DTFT sampled on an `fs/m` grid;
/// 2. one cached radix-2 FFT of the fold gives the coarse argmax;
/// 3. [`Goertzel`] filters evaluate the exact length-`n` bins `k·fs/n`
///    only around that coarse peak, and the argmax, one-sided scaling
///    and interpolation run on those bins.
///
/// The result agrees with the full-spectrum search to within
/// [`CARRIER_MAX_ABS_ERR_HZ`]. Returns `None` for captures shorter than
/// 8 samples or a non-finite or non-positive `fs_hz`. The Hann taper
/// comes from the shared window cache, since captures of one session
/// share a fixed length.
pub fn estimate_carrier_hz(signal: &[f64], fs_hz: f64) -> Option<f64> {
    let n = signal.len();
    if n < 8 || !(fs_hz.is_finite() && fs_hz > 0.0) {
        return None;
    }
    let taper = plan::window_for(Window::Hann, n);
    let windowed: Vec<f64> = signal
        .iter()
        .zip(taper.iter())
        .map(|(&x, &w)| x * w)
        .collect();

    // Fold: fold[j] = Σ_q windowed[j + q·m].
    let m = 1usize << n.ilog2();
    let mut fold = vec![Complex::ZERO; m];
    for chunk in windowed.chunks(m) {
        for (slot, &x) in fold.iter_mut().zip(chunk) {
            slot.re += x;
        }
    }
    fft::fft_pow2_in_place(&mut fold, false).ok()?;
    let (coarse, _) = fold
        .iter()
        .take(m / 2 + 1)
        .enumerate()
        .skip(1)
        .map(|(l, z)| (l, z.norm_sqr()))
        .max_by(|a, b| a.1.total_cmp(&b.1))?;

    // Exact bins lo..=hi: the search span plus one neighbour each side.
    let half = n / 2;
    let center = (coarse as f64 * n as f64 / m as f64).round() as usize;
    let lo = center.saturating_sub(REFINE_HALF_WIDTH + 1);
    let hi = (center + REFINE_HALF_WIDTH + 1).min(half);
    let mut bank: Vec<Goertzel> = (lo..=hi)
        .map(|k| Goertzel::new((k as f64 * fs_hz / n as f64).min(fs_hz / 2.0), fs_hz))
        .collect();
    // One pass feeds every filter: their recurrences are independent, so
    // they overlap instead of each taking its own pass over the capture.
    for &x in &windowed {
        for g in bank.iter_mut() {
            g.push(x);
        }
    }
    // One-sided power, the `fft::power_spectrum` convention.
    let norm = 1.0 / (n as f64 * n as f64);
    let power: Vec<f64> = bank
        .iter()
        .zip(lo..)
        .map(|(g, k)| {
            let p = g.power() * norm;
            if k != 0 && !(n.is_multiple_of(2) && k == half) {
                2.0 * p
            } else {
                p
            }
        })
        .collect();
    let first = center.saturating_sub(REFINE_HALF_WIDTH).max(1);
    let last = (center + REFINE_HALF_WIDTH).min(half);
    let (idx, _) = (first..=last)
        .filter_map(|k| power.get(k - lo).map(|&p| (k, p)))
        .max_by(|a, b| a.1.total_cmp(&b.1))?;
    let f_peak = idx as f64 * fs_hz / n as f64;
    if idx >= half {
        return Some(f_peak);
    }
    // Parabolic interpolation in log power.
    let at = |k: usize| power.get(k - lo).copied().unwrap_or(0.0);
    let eps = 1e-300;
    let l = (at(idx - 1) + eps).ln();
    let c = (at(idx) + eps).ln();
    let r = (at(idx + 1) + eps).ln();
    let denom = l - 2.0 * c + r;
    let delta = if denom.abs() < 1e-12 {
        0.0
    } else {
        0.5 * (l - r) / denom
    };
    let bin_hz = fs_hz / n as f64;
    Some(f_peak + delta.clamp(-0.5, 0.5) * bin_hz)
}

/// Mixes a real signal to complex baseband at `carrier_hz` and lowpasses
/// with cutoff `bw_hz` (one-sided). Output sample rate equals the input's.
pub fn downconvert(signal: &[f64], carrier_hz: f64, bw_hz: f64, fs_hz: f64) -> Vec<Complex> {
    let f = Fir::lowpass(bw_hz, fs_hz, 129, Window::Hamming);
    let mut re_path = Vec::with_capacity(signal.len());
    let mut im_path = Vec::with_capacity(signal.len());
    let w = 2.0 * std::f64::consts::PI * carrier_hz / fs_hz;
    for (n, &x) in signal.iter().enumerate() {
        let ph = w * n as f64;
        re_path.push(x * ph.cos());
        im_path.push(-x * ph.sin());
    }
    let re_f = f.filter_aligned(&re_path);
    let im_f = f.filter_aligned(&im_path);
    re_f.into_iter()
        .zip(im_f)
        .map(|(re, im)| Complex::new(2.0 * re, 2.0 * im))
        .collect()
}

/// Fast baseband magnitude via mixing + one-pole smoothing — cheaper than
/// [`downconvert`] when only the envelope is needed (throughput-scale
/// Monte-Carlo runs).
pub fn baseband_magnitude(signal: &[f64], carrier_hz: f64, tau_s: f64, fs_hz: f64) -> Vec<f64> {
    let w = 2.0 * std::f64::consts::PI * carrier_hz / fs_hz;
    let mut rc_i = OnePole::new(tau_s, fs_hz);
    let mut rc_q = OnePole::new(tau_s, fs_hz);
    signal
        .iter()
        .enumerate()
        .map(|(n, &x)| {
            let ph = w * n as f64;
            let i = rc_i.step(x * ph.cos());
            let q = rc_q.step(-x * ph.sin());
            2.0 * i.hypot(q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn am_tone(fs: f64, fc: f64, fm: f64, depth: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let env = 1.0 + depth * (2.0 * std::f64::consts::PI * fm * t).sin();
                env * (2.0 * std::f64::consts::PI * fc * t).sin()
            })
            .collect()
    }

    #[test]
    fn carrier_estimation_is_sub_bin_accurate() {
        let fs = 1.0e6;
        let fc = 231_337.0; // deliberately off-bin
        let n = 8192;
        let sig: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * fc * i as f64 / fs).sin())
            .collect();
        let est = estimate_carrier_hz(&sig, fs).unwrap();
        assert!((est - fc).abs() < 30.0, "estimated {est}");
    }

    #[test]
    fn carrier_estimation_too_short_is_none() {
        assert!(estimate_carrier_hz(&[1.0; 4], 1.0e6).is_none());
    }

    #[test]
    fn carrier_estimation_bad_sample_rate_is_none() {
        let sig: Vec<f64> = (0..64).map(|i| (0.7 * i as f64).sin()).collect();
        for fs_hz in [0.0, -1.0e6, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(estimate_carrier_hz(&sig, fs_hz).is_none(), "fs {fs_hz}");
        }
    }

    #[test]
    fn downconvert_recovers_am_envelope() {
        let fs = 1.0e6;
        let sig = am_tone(fs, 230e3, 2e3, 0.5, 20_000);
        let bb = downconvert(&sig, 230e3, 20e3, fs);
        // The baseband magnitude should oscillate at 2 kHz between 0.5 and 1.5.
        let mags: Vec<f64> = bb.iter().map(|z| z.abs()).collect();
        let mid = &mags[2000..18_000];
        let max = mid.iter().cloned().fold(f64::MIN, f64::max);
        let min = mid.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - 1.5).abs() < 0.1, "max={max}");
        assert!((min - 0.5).abs() < 0.1, "min={min}");
    }

    #[test]
    fn baseband_magnitude_tracks_envelope() {
        let fs = 1.0e6;
        let sig = am_tone(fs, 230e3, 1e3, 0.8, 30_000);
        let mag = baseband_magnitude(&sig, 230e3, 30e-6, fs);
        let mid = &mag[5000..25_000];
        let max = mid.iter().cloned().fold(f64::MIN, f64::max);
        let min = mid.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 1.5 && min < 0.5, "max={max} min={min}");
    }

    #[test]
    fn downconvert_rejects_far_interferer() {
        let fs = 1.0e6;
        let n = 20_000;
        // Wanted carrier at 230 kHz amplitude 0.1; interferer at 150 kHz amp 1.0.
        let sig: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                0.1 * (2.0 * std::f64::consts::PI * 230e3 * t).sin()
                    + (2.0 * std::f64::consts::PI * 150e3 * t).sin()
            })
            .collect();
        let bb = downconvert(&sig, 230e3, 10e3, fs);
        let mag: Vec<f64> = bb[5000..15_000].iter().map(|z| z.abs()).collect();
        let mean = mag.iter().sum::<f64>() / mag.len() as f64;
        assert!((mean - 0.1).abs() < 0.02, "mean baseband magnitude {mean}");
    }
}
