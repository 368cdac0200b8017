//! Goertzel single-bin DFT.
//!
//! The EcoCapsule node cannot afford an FFT: its envelope detector and the
//! reader's carrier-frequency estimator both need the power at *one*
//! frequency. Goertzel evaluates a single DFT bin in O(N) with two state
//! variables — the same trick an MSP430-class MCU would use.

use crate::complex::Complex;

/// Streaming Goertzel filter tuned to `target_hz` at sample rate `fs_hz`.
#[derive(Debug, Clone)]
pub struct Goertzel {
    coeff: f64,
    cos_w: f64,
    sin_w: f64,
    s1: f64,
    s2: f64,
    count: usize,
}

impl Goertzel {
    /// Creates a filter tuned to `target_hz` exactly.
    ///
    /// The frequency is not snapped to a DFT bin: after `n` samples,
    /// [`Self::dft_value`] is the capture's DTFT at `target_hz`, which is
    /// the length-`n` DFT bin `k` when `target_hz = k·fs/n`.
    /// `fs_hz` must be positive and `target_hz` must lie in `[0, fs/2]`.
    pub fn new(target_hz: f64, fs_hz: f64) -> Self {
        assert!(fs_hz > 0.0, "sample rate must be positive");
        assert!(
            (0.0..=fs_hz / 2.0).contains(&target_hz),
            "target frequency must be in [0, fs/2]"
        );
        let w = 2.0 * std::f64::consts::PI * target_hz / fs_hz;
        Goertzel {
            coeff: 2.0 * w.cos(),
            cos_w: w.cos(),
            sin_w: w.sin(),
            s1: 0.0,
            s2: 0.0,
            count: 0,
        }
    }

    /// Feeds one sample.
    pub fn push(&mut self, x: f64) {
        let s0 = x + self.coeff * self.s1 - self.s2;
        self.s2 = self.s1;
        self.s1 = s0;
        self.count += 1;
    }

    /// Feeds a block of samples.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Complex DFT value at the tuned bin for the samples so far.
    pub fn dft_value(&self) -> Complex {
        Complex::new(self.s1 * self.cos_w - self.s2, self.s1 * self.sin_w)
    }

    /// Power `|X|²` at the tuned bin.
    pub fn power(&self) -> f64 {
        self.dft_value().norm_sqr()
    }

    /// Tone amplitude estimate assuming the input was a pure sinusoid at
    /// the tuned frequency observed for [`Self::len`] samples.
    pub fn amplitude(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        2.0 * self.dft_value().abs() / self.count as f64
    }

    /// Number of samples consumed.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no samples have been consumed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Resets the filter state (keeps the tuning).
    pub fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
        self.count = 0;
    }
}

/// One-shot convenience: tone power of `signal` at `target_hz`.
pub fn tone_power(signal: &[f64], target_hz: f64, fs_hz: f64) -> f64 {
    let mut g = Goertzel::new(target_hz, fs_hz);
    g.extend(signal);
    g.power()
}

/// One-shot convenience: tone amplitude of `signal` at `target_hz`.
pub fn tone_amplitude(signal: &[f64], target_hz: f64, fs_hz: f64) -> f64 {
    let mut g = Goertzel::new(target_hz, fs_hz);
    g.extend(signal);
    g.amplitude()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, fs: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn recovers_tone_amplitude() {
        let fs = 1.0e6;
        let x = tone(230e3, fs, 10_000, 0.7);
        let a = tone_amplitude(&x, 230e3, fs);
        assert!((a - 0.7).abs() < 0.01, "estimated amplitude {a}");
    }

    #[test]
    fn rejects_off_bin_tone() {
        let fs = 1.0e6;
        let x = tone(230e3, fs, 10_000, 1.0);
        let on = tone_power(&x, 230e3, fs);
        let off = tone_power(&x, 180e3, fs);
        assert!(on / off > 1e3, "selectivity on={on} off={off}");
    }

    #[test]
    fn matches_fft_bin() {
        let fs = 1024.0;
        let n = 1024;
        let x = tone(100.0, fs, n, 1.0);
        let mut g = Goertzel::new(100.0, fs);
        g.extend(&x);
        let spec = crate::fft::fft_real(&x).unwrap();
        assert!((g.dft_value().abs() - spec[100].abs()).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_state() {
        let fs = 1.0e6;
        let mut g = Goertzel::new(230e3, fs);
        g.extend(&tone(230e3, fs, 1000, 1.0));
        assert!(g.power() > 0.0);
        g.reset();
        assert!(g.is_empty());
        assert_eq!(g.power(), 0.0);
    }

    #[test]
    #[should_panic(expected = "target frequency")]
    fn rejects_supernyquist_target() {
        let _ = Goertzel::new(600e3, 1.0e6);
    }
}
