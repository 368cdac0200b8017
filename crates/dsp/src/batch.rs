//! Batched (structure-of-arrays) execution kernels for the survey hot
//! path, and the [`Engine`] switch that selects them.
//!
//! A survey spends almost all of its wall time in four per-capsule
//! stages: uplink waveform synthesis (two `sin` calls per sample),
//! carrier estimation + digital downconversion (a folded power-of-two
//! FFT, a few Goertzel bins, and two more trig calls per sample), the
//! matched-filter FM0 preamble search (an `O(n·m)` sliding dot product
//! — ~2×10⁸ multiply-adds per read at the paper's 1 kbps / 1 MS/s
//! operating point), and harvester integration.
//! This module restructures those loops so the work that is *identical
//! across capsules, slots and retries* is computed once and shared as
//! contiguous `f64` lanes:
//!
//! - [`sin_table`] — cached carrier/backscatter tone banks, so waveform
//!   synthesis indexes a shared table instead of calling `sin` per
//!   sample (the `channel` crate's banked uplink path);
//! - [`best_match_exact`] — a two-pass matched filter that prescans all
//!   lags against a run-length-encoded template via prefix sums
//!   (`O(n·segments)`), then rescores only the surviving candidate lags
//!   with the *scalar* kernel, so the result is **bit-identical** to
//!   [`crate::correlate::best_match`] while skipping ≥ 99% of the
//!   multiply-adds;
//! - [`WaveMemo`] — an exact-key memo for deterministic waveforms (the
//!   reader's downlink command synthesis), so a command retransmitted to
//!   every capsule in a wall is synthesized once per survey, not once
//!   per transaction;
//! - [`DdcScratch`] — allocation-free downconversion into reused
//!   buffers for capture batches;
//! - [`Harvester`-style lane loops](crate::batch#lanes) — per-lane
//!   arithmetic kept in the scalar order so SoA traversal stays
//!   bit-identical (see `node::harvester::simulate_store_lanes`).
//!
//! # The hot-path contract
//!
//! Every `f64` kernel here is **bit-exact** against its scalar
//! counterpart: caching and batching change *when* and *how often* an
//! expression is evaluated, never *which* expression is evaluated or in
//! what order its floating-point operations combine. Survey digests,
//! golden fixtures and recorded traces are therefore identical under
//! either [`Engine`]. The only approximate kernel is the explicitly
//! `f32`-suffixed ablation path ([`tone_f32`]), which is **not** used by
//! any default pipeline and carries a documented, property-tested error
//! bound. DESIGN.md §8 states the full contract.
//!
//! # Lanes
//!
//! SoA ("lane") traversal is bit-identical whenever the per-lane
//! recurrence never mixes lanes: iterating `for t { for lane }` performs
//! exactly the same per-lane operation sequence as `for lane { for t }`.
//! Kernels in other crates that batch per-capsule state (link-budget
//! voltage lanes, harvester storage lanes) rely on this rule and cite
//! this module.
//!
//! # Round trip
//!
//! A batch-synthesized capture decodes through the shared-table and
//! exact-matched-filter kernels end to end:
//!
//! ```
//! use ecocapsule_dsp::{batch, correlate, ddc, stats};
//!
//! let (fs, fc) = (1.0e6, 230e3);
//! let w = 2.0 * std::f64::consts::PI * fc / fs;
//!
//! // Batched synthesis: one shared tone bank instead of per-sample sin.
//! // FM0-ish ±1 preamble, 500 samples per symbol, AM depth 0.3.
//! let pattern = [1.0, -1.0, 1.0, -1.0, 1.0, 1.0];
//! let n = 20_000;
//! let start = 7_500;
//! let bank = batch::sin_table(w, 0.0, n);
//! let capture: Vec<f64> = (0..n)
//!     .map(|i| {
//!         let k = i.wrapping_sub(start) / 500;
//!         let m = if i >= start && k < pattern.len() { pattern[k] } else { 0.0 };
//!         (1.0 + 0.3 * m) * bank[i]
//!     })
//!     .collect();
//!
//! // Decode: carrier estimate -> envelope -> exact fast preamble search.
//! let carrier = ddc::estimate_carrier_hz(&capture, fs).expect("carrier");
//! let mag = ddc::baseband_magnitude(&capture, carrier, 1e-4, fs);
//! let mean = stats::mean(&mag);
//! let baseband: Vec<f64> = mag.iter().map(|&x| x - mean).collect();
//! let template: Vec<f64> = pattern.iter().flat_map(|&v| [v; 500]).collect();
//!
//! let fast = batch::best_match_exact(&baseband, &template).expect("fits");
//! let scalar = correlate::best_match(&baseband, &template).expect("fits");
//! assert_eq!(fast.0, scalar.0, "same lag");
//! assert_eq!(fast.1.to_bits(), scalar.1.to_bits(), "bit-identical score");
//! assert!((fast.0 as i64 - start as i64).abs() < 500, "found the pattern");
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::correlate;

/// Which implementation of the survey hot path runs.
///
/// The batched engine is the default; the scalar engine is the reference
/// implementation kept for differential testing (the `tests` crate
/// asserts digest identity between the two on quiet and faulted surveys
/// at several worker counts). Both produce bit-identical results — see
/// the [module docs](crate::batch) for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Reference per-sample scalar loops (no shared tables, no memos).
    Scalar,
    /// Structure-of-arrays batches with shared tone banks, waveform
    /// memos and the exact fast matched filter.
    #[default]
    Batched,
}

impl Engine {
    /// Whether this engine uses the batched kernels.
    #[must_use]
    pub fn is_batched(self) -> bool {
        matches!(self, Engine::Batched)
    }
}

/// Locks a cache mutex, treating poisoning as benign: the maps are only
/// mutated by single-statement inserts, so a panicking thread cannot
/// leave them half-updated (same policy as [`crate::plan`]).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // lint:allow(no-lock-in-hotpath) cache probe only: the lock guards an O(1) HashMap lookup/insert and is released before any table is built or read
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Shared tone banks
// ---------------------------------------------------------------------

struct SinTableCache {
    tables: HashMap<(u64, u64), Arc<Vec<f64>>>,
    hits: u64,
    misses: u64,
}

static SIN_TABLES: OnceLock<Mutex<SinTableCache>> = OnceLock::new();

/// Maximum number of distinct `(omega, offset)` tone banks kept
/// resident. Beyond the cap a table is built fresh and *not* inserted,
/// so a fault sweep over many propagation delays cannot grow the cache
/// without bound (each bank is `len` × 8 bytes).
const SIN_TABLE_CAP: usize = 32;

fn sin_cache() -> &'static Mutex<SinTableCache> {
    SIN_TABLES.get_or_init(|| {
        Mutex::new(SinTableCache {
            tables: HashMap::new(),
            hits: 0,
            misses: 0,
        })
    })
}

fn build_sin_table(omega: f64, offset: f64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| (omega * (i as f64 - offset)).sin())
        .collect()
}

/// The shared tone bank `table[i] = sin(omega · (i − offset))` with at
/// least `len` entries, built once per `(omega, offset)` pair and
/// cached.
///
/// The per-entry expression is written exactly as the scalar synthesis
/// loops write it (`(omega * (i as f64 - offset)).sin()`), so indexing
/// the bank yields the **bit-identical** value the scalar path would
/// have computed — the contract the banked uplink synthesizer in
/// `channel` depends on. A cached bank shorter than `len` is rebuilt at
/// the next power of two ≥ `len`, so repeated growth is amortized; the
/// extra entries of a longer cached bank are simply ignored by shorter
/// captures (entry `i` depends only on `i`, never on the bank length).
#[must_use]
pub fn sin_table(omega: f64, offset: f64, len: usize) -> Arc<Vec<f64>> {
    let key = (omega.to_bits(), offset.to_bits());
    let cache = sin_cache();
    let over_cap;
    {
        let mut c = lock(cache);
        let cached = c
            .tables
            .get(&key)
            .filter(|t| t.len() >= len)
            .map(Arc::clone);
        if let Some(t) = cached {
            c.hits += 1;
            return t;
        }
        c.misses += 1;
        over_cap = c.tables.len() >= SIN_TABLE_CAP && !c.tables.contains_key(&key);
    }
    if over_cap {
        return Arc::new(build_sin_table(omega, offset, len));
    }
    // Build outside the lock (plan-cache policy); round the length up so
    // growth across capture sizes is amortized.
    let padded = len.next_power_of_two().max(1024);
    let fresh = Arc::new(build_sin_table(omega, offset, padded));
    let mut c = lock(cache);
    let slot = c.tables.entry(key).or_insert_with(|| Arc::clone(&fresh));
    if slot.len() < len {
        *slot = Arc::clone(&fresh);
    }
    Arc::clone(slot)
}

/// Current [`crate::plan::CacheStats`] of the tone-bank cache.
#[must_use]
pub fn sin_table_stats() -> crate::plan::CacheStats {
    let c = lock(sin_cache());
    crate::plan::CacheStats {
        hits: c.hits,
        misses: c.misses,
        entries: c.tables.len(),
    }
}

// ---------------------------------------------------------------------
// Exact fast matched filter
// ---------------------------------------------------------------------

/// Templates with more piecewise-constant runs than this take the plain
/// scalar scan — the prefix-sum prescan only pays off when the template
/// compresses well (FM0 preambles compress to ~13 runs).
const MAX_SEGMENTS: usize = 64;

/// Prescan margin on normalized scores. The prescan evaluates each
/// lag's correlation by segment-wise prefix-sum differences, which
/// reassociates the scalar summation; the reassociation error on a
/// normalized score is bounded far below this margin (≲ 1e-9 for the
/// receiver's capture scales — see DESIGN.md §8), so every lag whose
/// exact score could compete is kept as a candidate.
const PRESCAN_MARGIN: f64 = 1e-6;

/// If the prescan keeps more candidate lags than this, the signal is
/// pathologically self-similar and rescoring would approach the full
/// scan anyway — fall back to the scalar kernel outright.
const MAX_CANDIDATES: usize = 1024;

/// Run-length encodes a template into `(value, start, end)` runs.
/// Returns `None` when the template does not compress (not worth the
/// prescan) or is empty.
fn template_segments(template: &[f64]) -> Option<Vec<(f64, usize, usize)>> {
    let first = *template.first()?;
    let mut segs: Vec<(f64, usize, usize)> = Vec::new();
    let mut run_val = first;
    let mut run_start = 0usize;
    for (i, &v) in template.iter().enumerate().skip(1) {
        if v.to_bits() != run_val.to_bits() {
            segs.push((run_val, run_start, i));
            if segs.len() > MAX_SEGMENTS {
                return None;
            }
            run_val = v;
            run_start = i;
        }
    }
    segs.push((run_val, run_start, template.len()));
    if segs.len() > MAX_SEGMENTS || segs.len() * 4 > template.len() {
        return None;
    }
    Some(segs)
}

/// Bit-identical fast variant of [`crate::correlate::best_match`]:
/// lag of the best normalized match of `template` within `signal`
/// (largest |score|), returning `(lag, score)` or `None` when the
/// template doesn't fit.
///
/// Two passes replace the `O(n·m)` sliding dot product:
///
/// 1. **Prescan** — the template is run-length encoded into
///    piecewise-constant segments; each lag's correlation is then a sum
///    of `segments` prefix-sum differences instead of `m` multiply-adds
///    (`O(n·segments)` total). Window energies reuse the *identical*
///    energy prefix sum the scalar kernel builds.
/// 2. **Rescore** — every lag whose prescanned |score| is within
///    `PRESCAN_MARGIN` (1e-6) of the prescan maximum (a superset of the true
///    argmax, since prefix-sum reassociation perturbs a normalized
///    score by orders of magnitude less than the margin) is rescored in
///    ascending lag order with the *scalar* dot product and the scalar
///    selection rule (`score.abs() > best_abs`, strict, so the earliest
///    maximal lag wins exactly as in the full scan).
///
/// Templates that don't compress into few constant runs, and
/// pathologically self-similar signals that keep more than
/// `MAX_CANDIDATES` (1024) lags, fall back to the scalar kernel — the result
/// is the scalar result in every case, only faster in the common one.
#[must_use]
pub fn best_match_exact(signal: &[f64], template: &[f64]) -> Option<(usize, f64)> {
    if template.is_empty() || template.len() > signal.len() {
        return None;
    }
    let m = template.len();
    let Some(segs) = template_segments(template) else {
        return correlate::best_match(signal, template);
    };
    let et = correlate::dot(template, template);
    if et <= 0.0 {
        return Some((0, 0.0));
    }
    // Energy prefix (identical construction to the scalar kernel) and a
    // value prefix for the segment dots.
    let mut e_acc = 0.0f64;
    let mut v_acc = 0.0f64;
    let mut e_prefix = Vec::with_capacity(signal.len() + 1);
    let mut v_prefix = Vec::with_capacity(signal.len() + 1);
    e_prefix.push(0.0f64);
    v_prefix.push(0.0f64);
    for &x in signal {
        e_acc += x * x;
        v_acc += x;
        e_prefix.push(e_acc);
        v_prefix.push(v_acc);
    }
    let lags = signal.len() - m + 1;

    // Pass 1: prescan every lag in O(segments).
    let mut approx = Vec::with_capacity(lags);
    let mut max_abs = f64::NEG_INFINITY;
    for lag in 0..lags {
        let es = match (e_prefix.get(lag + m), e_prefix.get(lag)) {
            (Some(hi), Some(lo)) => hi - lo,
            _ => 0.0,
        };
        if es <= 0.0 {
            approx.push(f64::NEG_INFINITY);
            continue;
        }
        let mut adot = 0.0f64;
        for &(v, s, e) in &segs {
            let hi = v_prefix.get(lag + e).copied().unwrap_or(0.0);
            let lo = v_prefix.get(lag + s).copied().unwrap_or(0.0);
            adot += v * (hi - lo);
        }
        let a = (adot / (es * et).sqrt()).abs();
        if a > max_abs {
            max_abs = a;
        }
        approx.push(a);
    }
    if !max_abs.is_finite() {
        // Every window had zero energy: the scalar kernel's best never
        // updates and it returns the initial (0, 0.0).
        return Some((0, 0.0));
    }

    // Pass 2: exact rescore of the candidate superset, scalar rules.
    let cutoff = max_abs - PRESCAN_MARGIN;
    let mut best = (0usize, 0.0f64);
    let mut best_abs = f64::NEG_INFINITY;
    let mut candidates = 0usize;
    for (lag, &a) in approx.iter().enumerate() {
        if a < cutoff {
            continue;
        }
        candidates += 1;
        if candidates > MAX_CANDIDATES {
            return correlate::best_match(signal, template);
        }
        let es = match (e_prefix.get(lag + m), e_prefix.get(lag)) {
            (Some(hi), Some(lo)) => hi - lo,
            _ => continue,
        };
        if es <= 0.0 {
            continue;
        }
        let win = signal.get(lag..lag + m)?;
        let score = correlate::dot(win, template) / (es * et).sqrt();
        if score.abs() > best_abs {
            best_abs = score.abs();
            best = (lag, score);
        }
    }
    Some(best)
}

// ---------------------------------------------------------------------
// Exact-key waveform memo
// ---------------------------------------------------------------------

struct MemoInner {
    map: HashMap<Vec<u64>, Arc<Vec<f64>>>,
    hits: u64,
    misses: u64,
}

/// A bounded memo for deterministic waveforms, keyed by the **exact
/// bits** of every parameter that shapes the waveform (no hashing
/// collisions can substitute one waveform for another — the key is the
/// parameter vector itself).
///
/// The reader's batched downlink path uses a static `WaveMemo` so a
/// command waveform broadcast to every capsule in a wall — and retried
/// across fault slots — is synthesized once. Entries beyond `cap` are
/// computed but not inserted, bounding residency; there is no eviction,
/// matching the [`crate::plan`] cache policy.
pub struct WaveMemo {
    inner: OnceLock<Mutex<MemoInner>>,
    cap: usize,
}

impl std::fmt::Debug for WaveMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaveMemo").field("cap", &self.cap).finish()
    }
}

impl WaveMemo {
    /// A memo holding at most `cap` waveforms. `const`, so it can back a
    /// `static`.
    #[must_use]
    pub const fn new(cap: usize) -> Self {
        WaveMemo {
            inner: OnceLock::new(),
            cap,
        }
    }

    fn inner(&self) -> &Mutex<MemoInner> {
        self.inner.get_or_init(|| {
            Mutex::new(MemoInner {
                map: HashMap::new(),
                hits: 0,
                misses: 0,
            })
        })
    }

    /// The waveform for `key`, built by `build` on first use.
    ///
    /// `build` must be a pure function of `key` — the memo returns a
    /// cached waveform for an equal key without calling it again.
    pub fn get_or_compute(&self, key: &[u64], build: impl FnOnce() -> Vec<f64>) -> Arc<Vec<f64>> {
        let cache = self.inner();
        let over_cap;
        {
            let mut c = lock(cache);
            let cached = c.map.get(key).map(Arc::clone);
            if let Some(w) = cached {
                c.hits += 1;
                return w;
            }
            c.misses += 1;
            over_cap = c.map.len() >= self.cap;
        }
        let fresh = Arc::new(build());
        if over_cap {
            return fresh;
        }
        let mut c = lock(cache);
        Arc::clone(c.map.entry(key.to_vec()).or_insert(fresh))
    }

    /// Current [`crate::plan::CacheStats`] of this memo.
    #[must_use]
    pub fn stats(&self) -> crate::plan::CacheStats {
        let c = lock(self.inner());
        crate::plan::CacheStats {
            hits: c.hits,
            misses: c.misses,
            entries: c.map.len(),
        }
    }
}

// ---------------------------------------------------------------------
// Allocation-free downconversion scratch
// ---------------------------------------------------------------------

/// Reusable output buffer for batched digital downconversion: decoding a
/// batch of captures reuses one allocation instead of allocating a
/// magnitude vector per capture.
///
/// The arithmetic is byte-for-byte the loop in
/// [`crate::ddc::baseband_magnitude`]; only the destination differs, so
/// outputs are bit-identical to the allocating path.
#[derive(Debug, Default)]
pub struct DdcScratch {
    mag: Vec<f64>,
}

impl DdcScratch {
    /// An empty scratch; buffers grow to the largest capture seen.
    #[must_use]
    pub fn new() -> Self {
        DdcScratch::default()
    }

    /// [`crate::ddc::baseband_magnitude`] into the reused buffer.
    /// Returns the magnitude slice (valid until the next call).
    pub fn baseband_magnitude(
        &mut self,
        signal: &[f64],
        carrier_hz: f64,
        tau_s: f64,
        fs_hz: f64,
    ) -> &[f64] {
        use crate::filter::OnePole;
        let w = 2.0 * std::f64::consts::PI * carrier_hz / fs_hz;
        let mut rc_i = OnePole::new(tau_s, fs_hz);
        let mut rc_q = OnePole::new(tau_s, fs_hz);
        self.mag.clear();
        self.mag.reserve(signal.len());
        self.mag.extend(signal.iter().enumerate().map(|(n, &x)| {
            let ph = w * n as f64;
            let i = rc_i.step(x * ph.cos());
            let q = rc_q.step(-x * ph.sin());
            2.0 * i.hypot(q)
        }));
        &self.mag
    }
}

// ---------------------------------------------------------------------
// f32 ablation lane
// ---------------------------------------------------------------------

/// Worst-case absolute error of [`tone_f32`] against the `f64` tone
/// bank: one `f64 → f32` rounding of a value in `[-1, 1]`, i.e. half an
/// `f32` ulp at magnitude 1 (`2⁻²⁵ ≈ 3·10⁻⁸`), property-tested with
/// headroom in the workspace `fuzz` suite.
pub const TONE_F32_MAX_ABS_ERR: f64 = 6e-8;

/// `f32` variant of [`sin_table`] for storage-halved ablation lanes:
/// `table[i] = sin(omega · (i − offset)) as f32`.
///
/// **Not** used by any default pipeline — the survey engines are `f64`
/// and bit-exact. This kernel exists so the hot-path bench can quantify
/// what an `f32` synthesis lane would trade: half the table bytes
/// against a per-sample error within [`TONE_F32_MAX_ABS_ERR`].
#[must_use]
pub fn tone_f32(omega: f64, offset: f64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (omega * (i as f64 - offset)).sin() as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_same(signal: &[f64], template: &[f64]) {
        let fast = best_match_exact(signal, template);
        let scalar = correlate::best_match(signal, template);
        match (fast, scalar) {
            (Some((fl, fs)), Some((sl, ss))) => {
                assert_eq!(fl, sl, "lag mismatch");
                assert_eq!(fs.to_bits(), ss.to_bits(), "score bits mismatch");
            }
            (f, s) => assert_eq!(f.is_none(), s.is_none(), "{f:?} vs {s:?}"),
        }
    }

    fn fm0_like_template(sps: usize) -> Vec<f64> {
        // The FM0 preamble 101011 with mid-symbol transitions.
        [
            1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0,
        ]
        .iter()
        .flat_map(|&v| std::iter::repeat(v).take(sps / 2))
        .collect()
    }

    #[test]
    fn matches_scalar_on_noise() {
        let mut rng = StdRng::seed_from_u64(1);
        let template = fm0_like_template(40);
        for _ in 0..10 {
            let signal: Vec<f64> = (0..3000).map(|_| rng.gen_range(-1.0..1.0)).collect();
            assert_same(&signal, &template);
        }
    }

    #[test]
    fn matches_scalar_on_embedded_template() {
        let template = fm0_like_template(60);
        let mut rng = StdRng::seed_from_u64(2);
        let mut signal: Vec<f64> = (0..5000).map(|_| 0.05 * rng.gen_range(-1.0..1.0)).collect();
        for (i, &t) in template.iter().enumerate() {
            signal[1234 + i] += t;
        }
        let (lag, score) = best_match_exact(&signal, &template).expect("fits");
        assert_eq!(lag, 1234);
        assert!(score > 0.9);
        assert_same(&signal, &template);
    }

    #[test]
    fn matches_scalar_on_inverted_polarity() {
        let template = fm0_like_template(40);
        let mut rng = StdRng::seed_from_u64(3);
        let mut signal: Vec<f64> = (0..4000).map(|_| 0.05 * rng.gen_range(-1.0..1.0)).collect();
        for (i, &t) in template.iter().enumerate() {
            signal[800 + i] -= t; // inverted
        }
        let (lag, score) = best_match_exact(&signal, &template).expect("fits");
        assert_eq!(lag, 800);
        assert!(score < -0.9, "negative-polarity score {score}");
        assert_same(&signal, &template);
    }

    #[test]
    fn degenerate_inputs_match_scalar() {
        assert_same(&[1.0, 2.0], &[1.0, 2.0, 3.0]); // template longer -> None
        assert_same(&[1.0, 2.0, 3.0], &[]); // empty template -> None
        let sig = vec![1.0; 500];
        assert_same(&sig, &vec![0.0; 200]); // zero-energy template
    }

    #[test]
    fn all_zero_signal_matches_scalar() {
        // Every window has zero energy: scalar returns the initial (0, 0).
        let template = fm0_like_template(40);
        let signal = vec![0.0; 2000];
        assert_same(&signal, &template);
    }

    #[test]
    fn tie_dense_periodic_signal_matches_scalar() {
        // A signal that repeats the template everywhere produces masses of
        // near-equal scores; the candidate cap must fall back to the
        // scalar kernel and still agree bit-for-bit.
        let template = fm0_like_template(8);
        let signal: Vec<f64> = template.iter().cycle().take(4000).copied().collect();
        assert_same(&signal, &template);
    }

    #[test]
    fn incompressible_template_falls_back() {
        // A template with a distinct value per sample never compresses;
        // best_match_exact must silently take the scalar path.
        let template: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let signal: Vec<f64> = (0..1000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        assert_same(&signal, &template);
    }

    #[test]
    fn sin_table_matches_scalar_expression() {
        let w = 2.0 * std::f64::consts::PI * 230e3 / 1.0e6;
        let offset = 515.0;
        let t = sin_table(w, offset, 2048);
        assert!(t.len() >= 2048);
        for i in (0..2048).step_by(97) {
            let scalar = (w * (i as f64 - offset)).sin();
            assert_eq!(t[i].to_bits(), scalar.to_bits(), "entry {i}");
        }
    }

    #[test]
    fn sin_table_grows_and_hits() {
        let w = 0.123_456_789;
        let before = sin_table_stats();
        let small = sin_table(w, 0.0, 100);
        let big = sin_table(w, 0.0, 5000);
        let again = sin_table(w, 0.0, 4000);
        let after = sin_table_stats();
        assert!(small.len() >= 100 && big.len() >= 5000);
        assert!(Arc::ptr_eq(&big, &again), "grown table is shared");
        assert!(after.hits > before.hits, "re-lookup hits");
        for i in (0..100).step_by(13) {
            assert_eq!(small[i].to_bits(), big[i].to_bits(), "growth is stable");
        }
    }

    #[test]
    fn wave_memo_builds_once_per_key() {
        static MEMO: WaveMemo = WaveMemo::new(8);
        let mut builds = 0;
        let a = MEMO.get_or_compute(&[1, 2, 3], || {
            builds += 1;
            vec![1.0, 2.0]
        });
        let b = MEMO.get_or_compute(&[1, 2, 3], || {
            builds += 1;
            vec![1.0, 2.0]
        });
        assert_eq!(builds, 1, "second lookup is a hit");
        assert!(Arc::ptr_eq(&a, &b));
        let c = MEMO.get_or_compute(&[9], || vec![9.0]);
        assert_eq!(*c, vec![9.0]);
        assert!(MEMO.stats().entries >= 2);
    }

    #[test]
    fn wave_memo_cap_bounds_residency() {
        static MEMO: WaveMemo = WaveMemo::new(2);
        for k in 0..10u64 {
            let w = MEMO.get_or_compute(&[k], || vec![k as f64]);
            assert_eq!(w[0] as u64, k, "over-cap entries still computed");
        }
        assert!(MEMO.stats().entries <= 2, "cap respected");
    }

    #[test]
    fn ddc_scratch_is_bit_identical_to_allocating_path() {
        let fs = 1.0e6;
        let sig: Vec<f64> = (0..5000)
            .map(|i| (2.0 * std::f64::consts::PI * 230e3 * i as f64 / fs).sin())
            .collect();
        let alloc = crate::ddc::baseband_magnitude(&sig, 230e3, 1e-4, fs);
        let mut scratch = DdcScratch::new();
        let a = scratch.baseband_magnitude(&sig, 230e3, 1e-4, fs).to_vec();
        let b = scratch.baseband_magnitude(&sig, 230e3, 1e-4, fs); // reuse
        assert_eq!(alloc.len(), b.len());
        for ((x, y), z) in alloc.iter().zip(&a).zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
            assert_eq!(x.to_bits(), z.to_bits());
        }
    }

    #[test]
    fn tone_f32_error_within_documented_bound() {
        let w = 2.0 * std::f64::consts::PI * 230e3 / 1.0e6;
        let t32 = tone_f32(w, 17.0, 4096);
        for (i, &v) in t32.iter().enumerate() {
            let exact = (w * (i as f64 - 17.0)).sin();
            assert!(
                (f64::from(v) - exact).abs() <= TONE_F32_MAX_ABS_ERR,
                "entry {i}: {v} vs {exact}"
            );
        }
    }

    #[cfg(feature = "fuzz")]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn best_match_exact_equals_scalar(
                seed in 0u64..1000,
                n in 200usize..1200,
                sps in 2usize..30,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let template = fm0_like_template(sps.max(2) * 2);
                if template.len() <= n {
                    let mut signal: Vec<f64> =
                        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    if n > template.len() + 10 {
                        let at = seed as usize % (n - template.len());
                        for (i, &t) in template.iter().enumerate() {
                            signal[at + i] += t;
                        }
                    }
                    assert_same(&signal, &template);
                }
            }

            #[test]
            fn tone_f32_bound_holds(
                carrier in 1.0e3f64..5.0e5,
                offset in 0.0f64..2000.0,
            ) {
                let w = 2.0 * std::f64::consts::PI * carrier / 1.0e6;
                let t = tone_f32(w, offset, 512);
                for (i, &v) in t.iter().enumerate() {
                    let exact = (w * (i as f64 - offset)).sin();
                    prop_assert!((f64::from(v) - exact).abs() <= TONE_F32_MAX_ABS_ERR);
                }
            }
        }
    }
}
