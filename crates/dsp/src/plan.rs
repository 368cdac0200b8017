//! Thread-safe FFT plan and window-coefficient caches.
//!
//! Every radix-2 transform of length `n` uses the same twiddle factors
//! `exp(-2πik/n)`, and every `n`-point Hann/Hamming/Blackman taper uses
//! the same coefficients — yet the seed implementation recomputed both on
//! every call, which dominates the per-frame cost of spectrogram and
//! carrier-estimation hot paths. This module computes each table **once
//! per size**, stores it behind a global mutex-guarded map, and hands out
//! `Arc` clones, so:
//!
//! * repeated transforms of the same length (the common case: fixed
//!   capture windows, fixed STFT frames, fixed Bluestein scratch sizes)
//!   pay only a map lookup;
//! * concurrent workers (see the `exec` crate) share one table instead of
//!   building per-thread copies — the cache lock is held only for the
//!   `HashMap` probe, never while a table is being built or used.
//!
//! # Cache contract
//!
//! - Plans are **immutable** after construction and shared freely across
//!   threads (`Arc<FftPlan>`); a plan is never rebuilt for a size already
//!   in the cache.
//! - Two concurrent first-misses of the same size may both build the
//!   table; one wins the insert race, the loser's copy is dropped. Both
//!   callers observe identical coefficients either way.
//! - The cache grows with the number of *distinct* sizes seen (power-of-
//!   two FFT lengths and `(shape, length)` window pairs) and is never
//!   evicted — bounded in practice because simulation geometry fixes the
//!   sizes.
//! - Cached tables are bit-identical to freshly computed ones, so enabling
//!   the cache does not change any simulation output (asserted by the
//!   unit tests below and the workspace determinism tests).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::complex::Complex;
use crate::error::{EcoError, EcoResult};
use crate::window::Window;

/// Locks a cache mutex, treating poisoning as benign: the maps are only
/// mutated by single-statement inserts, so a panicking thread cannot leave
/// them half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // lint:allow(no-lock-in-hotpath) cache probe only: the lock guards an O(1) HashMap lookup/insert and is released before any FFT math runs
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A precomputed radix-2 FFT plan for one power-of-two length.
///
/// Holds the forward twiddle table `exp(-2πik/n)` for `k in 0..n/2`; the
/// inverse transform conjugates on the fly. Obtain plans through
/// [`plan_for`] so they are shared; constructing via the cache is the only
/// public path.
#[derive(Debug)]
pub struct FftPlan {
    /// Transform length (a power of two).
    n: usize,
    /// Forward twiddles `exp(-2πik/n)`, `k in 0..n/2`.
    twiddles: Vec<Complex>,
}

impl FftPlan {
    fn build(n: usize) -> Self {
        let half = n / 2;
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let twiddles = (0..half).map(|k| Complex::cis(step * k as f64)).collect();
        FftPlan { n, twiddles }
    }

    /// The transform length this plan was built for.
    #[must_use]
    pub fn size(&self) -> usize {
        self.n
    }

    /// In-place radix-2 FFT over `buf` using the cached twiddles.
    ///
    /// `inverse` selects the inverse transform (including the `1/N`
    /// scale). Errors with [`EcoError::LengthMismatch`] when `buf.len()`
    /// differs from [`FftPlan::size`].
    #[must_use]
    pub fn process(&self, buf: &mut [Complex], inverse: bool) -> EcoResult<()> {
        if buf.len() != self.n {
            return Err(EcoError::LengthMismatch {
                what: "fft plan buffer",
                expected: self.n,
                actual: buf.len(),
            });
        }
        let n = self.n;
        if n <= 1 {
            return Ok(());
        }
        // Bit-reversal permutation.
        let shift = usize::BITS - n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits().wrapping_shr(shift);
            if j > i {
                buf.swap(i, j);
            }
        }
        // Butterflies. Stage `len` needs twiddles exp(-2πij/len) for
        // j in 0..len/2, which are exactly the cached full-size twiddles
        // strided by n/len — so every stage reads the same table and no
        // trigonometry runs here at all. The table recurrence the seed
        // code used (w *= wlen) accumulated rounding error across a
        // chunk; direct table lookup is the more accurate evaluation.
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for chunk in buf.chunks_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for ((a, b), tw) in lo
                    .iter_mut()
                    .zip(hi.iter_mut())
                    .zip(self.twiddles.iter().step_by(stride))
                {
                    let w = if inverse { tw.conj() } else { *tw };
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            len <<= 1;
        }
        if inverse {
            let scale = 1.0 / n as f64;
            for z in buf.iter_mut() {
                *z = z.scale(scale);
            }
        }
        Ok(())
    }
}

/// Hit/miss counters of one cache, for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a new table.
    pub misses: u64,
    /// Distinct sizes currently cached.
    pub entries: usize,
}

/// Precomputed Bluestein chirp-z tables for one `(length, direction)`
/// pair: the chirp sequence and the **pre-transformed** convolution
/// kernel `FFT(b)`.
///
/// Both depend only on the transform length and direction — not on the
/// signal — yet the seed fallback rebuilt the ~`n` `cis` evaluations
/// *and* re-ran one of its three `m`-point FFTs on every call. For a
/// ~44 k-sample capture that one kernel FFT is a 131072-point
/// transform. Obtain plans through [`bluestein_for`]; the cached tables
/// are bit-identical to freshly built ones.
#[derive(Debug)]
pub struct BluesteinPlan {
    n: usize,
    m: usize,
    chirp: Vec<Complex>,
    fft_b: Vec<Complex>,
}

impl BluesteinPlan {
    fn build(n: usize, inverse: bool) -> EcoResult<Self> {
        let sign = if inverse { 1.0 } else { -1.0 };
        let m = (2 * n - 1).next_power_of_two();
        // Chirp w[k] = exp(sign * i*pi*k^2/n); reduce k^2 mod 2n to keep
        // the angle argument small (k*k overflows f64 precision for big n).
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();
        let mut b = vec![Complex::ZERO; m];
        if let (Some(slot), Some(c0)) = (b.first_mut(), chirp.first()) {
            *slot = c0.conj();
        }
        for (k, c) in chirp.iter().enumerate().skip(1) {
            let cc = c.conj();
            if let Some(slot) = b.get_mut(k) {
                *slot = cc;
            }
            if let Some(slot) = b.get_mut(m - k) {
                *slot = cc;
            }
        }
        plan_for(m)?.process(&mut b, false)?;
        Ok(BluesteinPlan {
            n,
            m,
            chirp,
            fft_b: b,
        })
    }

    /// The transform length this plan was built for.
    #[must_use]
    pub fn size(&self) -> usize {
        self.n
    }

    /// The padded power-of-two convolution length (`≥ 2n − 1`).
    #[must_use]
    pub fn padded_size(&self) -> usize {
        self.m
    }

    /// The chirp sequence `exp(sign·iπk²/n)`, `k in 0..n`.
    #[must_use]
    pub fn chirp(&self) -> &[Complex] {
        &self.chirp
    }

    /// The forward FFT of the convolution kernel `b`, length
    /// [`BluesteinPlan::padded_size`].
    #[must_use]
    pub fn kernel_spectrum(&self) -> &[Complex] {
        &self.fft_b
    }
}

struct PlanCache {
    plans: HashMap<usize, Arc<FftPlan>>,
    hits: u64,
    misses: u64,
}

struct BluesteinCache {
    plans: HashMap<(usize, bool), Arc<BluesteinPlan>>,
    hits: u64,
    misses: u64,
}

/// Distinct `(length, direction)` Bluestein plans kept resident. Each
/// entry holds `n + m` complex values (~2.8 MB at capture-sized
/// lengths); spectrum lengths are fixed by experiment geometry so a
/// handful of entries serves every run. Beyond the cap plans are built
/// fresh and not inserted.
const BLUESTEIN_CAP: usize = 16;

struct WindowCache {
    windows: HashMap<(Window, usize), Arc<Vec<f64>>>,
    hits: u64,
    misses: u64,
}

static PLANS: OnceLock<Mutex<PlanCache>> = OnceLock::new();
static WINDOWS: OnceLock<Mutex<WindowCache>> = OnceLock::new();
static BLUESTEINS: OnceLock<Mutex<BluesteinCache>> = OnceLock::new();

fn plan_cache() -> &'static Mutex<PlanCache> {
    PLANS.get_or_init(|| {
        Mutex::new(PlanCache {
            plans: HashMap::new(),
            hits: 0,
            misses: 0,
        })
    })
}

fn window_cache() -> &'static Mutex<WindowCache> {
    WINDOWS.get_or_init(|| {
        Mutex::new(WindowCache {
            windows: HashMap::new(),
            hits: 0,
            misses: 0,
        })
    })
}

/// The shared FFT plan for length `n` (a power of two), building and
/// caching it on first use.
///
/// Errors with [`EcoError::NotPowerOfTwo`] for other lengths; arbitrary-
/// length callers go through [`crate::fft::fft`], whose Bluestein fallback
/// itself runs on cached power-of-two plans.
#[must_use]
pub fn plan_for(n: usize) -> EcoResult<Arc<FftPlan>> {
    if !n.is_power_of_two() {
        return Err(EcoError::NotPowerOfTwo {
            what: "fft plan length",
            len: n,
        });
    }
    let cache = plan_cache();
    {
        let mut c = lock(cache);
        let cached = c.plans.get(&n).map(Arc::clone);
        if let Some(plan) = cached {
            c.hits += 1;
            return Ok(plan);
        }
        c.misses += 1;
    }
    // Build outside the lock so a large first-time table never stalls
    // other sizes; a concurrent builder of the same size loses the
    // insert race below and its copy is dropped.
    let fresh = Arc::new(FftPlan::build(n));
    let mut c = lock(cache);
    Ok(Arc::clone(c.plans.entry(n).or_insert(fresh)))
}

/// The shared `n`-point coefficient table for window `shape`, building
/// and caching it on first use.
///
/// Coefficients are bit-identical to [`Window::build`]; hot paths use
/// this to hoist per-sample `cos` evaluation out of frame loops.
#[must_use]
pub fn window_for(shape: Window, n: usize) -> Arc<Vec<f64>> {
    let cache = window_cache();
    {
        let mut c = lock(cache);
        let cached = c.windows.get(&(shape, n)).map(Arc::clone);
        if let Some(coeffs) = cached {
            c.hits += 1;
            return coeffs;
        }
        c.misses += 1;
    }
    let fresh = Arc::new(shape.build(n));
    let mut c = lock(cache);
    Arc::clone(c.windows.entry((shape, n)).or_insert(fresh))
}

fn bluestein_cache() -> &'static Mutex<BluesteinCache> {
    BLUESTEINS.get_or_init(|| {
        Mutex::new(BluesteinCache {
            plans: HashMap::new(),
            hits: 0,
            misses: 0,
        })
    })
}

/// The shared Bluestein plan for a non-power-of-two transform of length
/// `n` in the given direction, building and caching it on first use.
///
/// The tables are pure functions of `(n, inverse)` and bit-identical to
/// the per-call construction the Bluestein fallback previously ran, so
/// caching changes only when the chirp trigonometry and the kernel FFT
/// are evaluated — never any transform output.
#[must_use]
pub fn bluestein_for(n: usize, inverse: bool) -> EcoResult<Arc<BluesteinPlan>> {
    if n == 0 {
        return Err(EcoError::EmptyInput {
            what: "bluestein plan length",
        });
    }
    let key = (n, inverse);
    let cache = bluestein_cache();
    let over_cap;
    {
        let mut c = lock(cache);
        let cached = c.plans.get(&key).map(Arc::clone);
        if let Some(plan) = cached {
            c.hits += 1;
            return Ok(plan);
        }
        c.misses += 1;
        over_cap = c.plans.len() >= BLUESTEIN_CAP;
    }
    let fresh = Arc::new(BluesteinPlan::build(n, inverse)?);
    if over_cap {
        return Ok(fresh);
    }
    let mut c = lock(cache);
    Ok(Arc::clone(c.plans.entry(key).or_insert(fresh)))
}

/// Current [`CacheStats`] of the Bluestein plan cache.
#[must_use]
pub fn bluestein_cache_stats() -> CacheStats {
    let c = lock(bluestein_cache());
    CacheStats {
        hits: c.hits,
        misses: c.misses,
        entries: c.plans.len(),
    }
}

/// Current [`CacheStats`] of the FFT plan cache.
#[must_use]
pub fn plan_cache_stats() -> CacheStats {
    let c = lock(plan_cache());
    CacheStats {
        hits: c.hits,
        misses: c.misses,
        entries: c.plans.len(),
    }
}

/// Current [`CacheStats`] of the window-coefficient cache.
#[must_use]
pub fn window_cache_stats() -> CacheStats {
    let c = lock(window_cache());
    CacheStats {
        hits: c.hits,
        misses: c.misses,
        entries: c.windows.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_pow2_is_an_error() {
        assert!(matches!(
            plan_for(12),
            Err(EcoError::NotPowerOfTwo { len: 12, .. })
        ));
    }

    #[test]
    fn mismatched_buffer_is_an_error() {
        let plan = plan_for(8).unwrap();
        let mut buf = vec![Complex::ZERO; 4];
        assert_eq!(
            plan.process(&mut buf, false),
            Err(EcoError::LengthMismatch {
                what: "fft plan buffer",
                expected: 8,
                actual: 4,
            })
        );
    }

    #[test]
    fn first_lookup_misses_then_hits() {
        // The counters are process-global and other tests in this binary
        // run concurrently, so assert lower bounds (our own miss and hit
        // must be in the deltas), not exact increments.
        let n = 1 << 19; // a size only this test uses
        let before = plan_cache_stats();
        let a = plan_for(n).unwrap();
        let mid = plan_cache_stats();
        let b = plan_for(n).unwrap();
        let after = plan_cache_stats();
        assert!(mid.misses >= before.misses + 1, "first lookup is a miss");
        assert!(after.hits >= mid.hits + 1, "second lookup is a hit");
        assert!(Arc::ptr_eq(&a, &b), "both lookups share one table");
    }

    #[test]
    fn window_lookup_misses_then_hits() {
        let n = 7919; // a size only this test uses
        let before = window_cache_stats();
        let a = window_for(Window::Blackman, n);
        let mid = window_cache_stats();
        let b = window_for(Window::Blackman, n);
        let after = window_cache_stats();
        assert!(mid.misses >= before.misses + 1, "first lookup is a miss");
        assert!(after.hits >= mid.hits + 1, "second lookup is a hit");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, Window::Blackman.build(n), "cache matches fresh build");
    }

    #[test]
    fn window_cache_keys_on_shape_and_length() {
        let hann = window_for(Window::Hann, 64);
        let hamming = window_for(Window::Hamming, 64);
        let hann_big = window_for(Window::Hann, 128);
        assert!(!Arc::ptr_eq(&hann, &hamming));
        assert_eq!(hann.len(), 64);
        assert_eq!(hann_big.len(), 128);
    }

    #[test]
    fn concurrent_lookups_share_one_plan() {
        let n = 1 << 18; // distinct size to exercise the first-miss race
        let plans: Vec<Arc<FftPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(move || plan_for(n).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let first = &plans[0];
        assert_eq!(first.size(), n);
        // lint:allow(no-nondeterministic-iteration) `plans` is a Vec of Arc handles in thread-join order, not the hash-keyed plan cache
        for p in &plans {
            assert!(
                Arc::ptr_eq(first, p),
                "all threads must converge on one cached table"
            );
        }
    }

    #[test]
    fn bluestein_lookup_misses_then_hits() {
        let n = 7331; // a length only this test uses
        let before = bluestein_cache_stats();
        let a = bluestein_for(n, false).unwrap();
        let mid = bluestein_cache_stats();
        let b = bluestein_for(n, false).unwrap();
        let after = bluestein_cache_stats();
        assert!(mid.misses >= before.misses + 1, "first lookup is a miss");
        assert!(after.hits >= mid.hits + 1, "second lookup is a hit");
        assert!(Arc::ptr_eq(&a, &b), "both lookups share one plan");
        assert_eq!(a.size(), n);
        assert_eq!(a.padded_size(), (2 * n - 1).next_power_of_two());
    }

    #[test]
    fn bluestein_keys_on_direction() {
        let fwd = bluestein_for(99, false).unwrap();
        let inv = bluestein_for(99, true).unwrap();
        assert!(!Arc::ptr_eq(&fwd, &inv));
        // Opposite chirp signs: conjugate chirps, identical magnitudes.
        for (f, i) in fwd.chirp().iter().zip(inv.chirp().iter()) {
            assert_eq!(f.re.to_bits(), i.re.to_bits());
            assert_eq!(f.im.to_bits(), (-i.im).to_bits());
        }
    }

    #[test]
    fn bluestein_cached_plan_matches_fresh_build() {
        let cached = bluestein_for(101, false).unwrap();
        let fresh = BluesteinPlan::build(101, false).unwrap();
        for (a, b) in cached.chirp().iter().zip(fresh.chirp().iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        for (a, b) in cached
            .kernel_spectrum()
            .iter()
            .zip(fresh.kernel_spectrum().iter())
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn bluestein_zero_length_is_an_error() {
        assert!(matches!(
            bluestein_for(0, false),
            Err(EcoError::EmptyInput { .. })
        ));
    }

    #[test]
    fn plan_matches_direct_dft() {
        let n = 16;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.9).sin(), (i as f64 * 0.4).cos()))
            .collect();
        let mut buf = x.clone();
        plan_for(n).unwrap().process(&mut buf, false).unwrap();
        for k in 0..n {
            let mut acc = Complex::ZERO;
            for (i, xi) in x.iter().enumerate() {
                acc += *xi * Complex::cis(-2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64);
            }
            assert!((buf[k].re - acc.re).abs() < 1e-10, "bin {k}");
            assert!((buf[k].im - acc.im).abs() < 1e-10, "bin {k}");
        }
    }

    #[test]
    fn plan_roundtrips() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.21).cos(), (i as f64 * 0.13).sin()))
            .collect();
        let plan = plan_for(32).unwrap();
        let mut buf = x.clone();
        plan.process(&mut buf, false).unwrap();
        plan.process(&mut buf, true).unwrap();
        for (a, b) in x.iter().zip(buf.iter()) {
            assert!((a.re - b.re).abs() < 1e-12);
            assert!((a.im - b.im).abs() < 1e-12);
        }
    }

    #[test]
    fn tiny_plans_are_valid() {
        let mut one = vec![Complex::from_re(3.0)];
        plan_for(1).unwrap().process(&mut one, false).unwrap();
        assert!((one[0].re - 3.0).abs() < 1e-15);
        let mut two = vec![Complex::from_re(1.0), Complex::from_re(-1.0)];
        plan_for(2).unwrap().process(&mut two, false).unwrap();
        assert!((two[0].re - 0.0).abs() < 1e-15);
        assert!((two[1].re - 2.0).abs() < 1e-15);
    }
}
