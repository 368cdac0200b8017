//! End-to-end scenarios: the "operator walks up to a wall" workflows
//! that tie every layer together.

use channel::linkbudget::LinkBudget;
use concrete::structure::Structure;
use concrete::ConcreteGrade;
use dsp::batch::Engine;
use dsp::EcoResult;
use exec::Pool;
use faults::{FaultPlan, Timeline};
use node::capsule::{EcoCapsule, Environment};
use node::harvester::MIN_ACTIVATION_V;
use obs::{Event, MemoryRecorder, NullRecorder, Recorder, SlotClock};
use protocol::frame::SensorKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reader::app::ReaderSession;
use reader::robust::{RetryPolicy, RobustConfig};
use reader::rx::{max_throughput_bps, snr_vs_bitrate_db};

/// Worst-case virtual slots one capsule's quiet-path read phase can
/// consume: session re-acquisition (≤ 3 attempts × 2 exchanges) plus
/// three sensor reads. Sizes the disjoint per-task [`SlotClock`]
/// windows, so quiet-trace timestamps are worker-count independent.
const QUIET_READ_SLOTS_PER_CAPSULE: u64 = 9;

/// Everything that configures one survey pass, in one builder: one
/// configuration object drives the single
/// [`SelfSensingWall::run_survey`] engine.
///
/// ```
/// use ecocapsule::prelude::*;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut wall = SelfSensingWall::common_wall(&[0.5, 1.0]);
/// let mut rng = StdRng::seed_from_u64(7);
/// let report = SurveyOptions::new()
///     .tx_voltage(200.0)
///     .run(&mut wall, &mut rng)
///     .expect("valid survey");
/// assert_eq!(report.powered_ids, vec![1000, 1001]);
/// ```
///
/// Defaults: 200 V drive, serial pool, no fault plan (quiet channel),
/// [`RetryPolicy::paper_default`], no recorder.
pub struct SurveyOptions<'a> {
    /// TX drive voltage (V) for the charging phase.
    pub tx_voltage_v: f64,
    /// Worker pool for the per-capsule read phase.
    pub pool: Pool,
    /// Fault plan: `None` surveys a quiet channel; `Some` routes the
    /// survey through the fault timeline and robust session layer.
    pub fault_plan: Option<&'a FaultPlan>,
    /// Retry budget for must-answer commands. Only consulted when a
    /// fault plan is installed (the quiet path has nothing to retry).
    pub retry_policy: RetryPolicy,
    /// Observability sink; `None` records nothing at zero cost.
    pub recorder: Option<&'a mut dyn Recorder>,
    /// Hot-path engine: [`Engine::Batched`] (the default) runs waveform
    /// synthesis and decoding through the shared-table `dsp::batch`
    /// kernels; [`Engine::Scalar`] keeps the per-sample reference loops.
    /// Reports, digests and traces are bit-identical under either
    /// engine (DESIGN.md §8) — the switch exists for differential
    /// testing and benchmarking, not for accuracy trade-offs.
    pub engine: Engine,
}

impl std::fmt::Debug for SurveyOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SurveyOptions")
            .field("tx_voltage_v", &self.tx_voltage_v)
            .field("pool", &self.pool)
            .field("fault_plan", &self.fault_plan.is_some())
            .field("retry_policy", &self.retry_policy)
            .field("recorder", &self.recorder.is_some())
            .field("engine", &self.engine)
            .finish()
    }
}

impl Default for SurveyOptions<'_> {
    fn default() -> Self {
        SurveyOptions {
            tx_voltage_v: 200.0,
            pool: Pool::serial(),
            fault_plan: None,
            retry_policy: RetryPolicy::paper_default(),
            recorder: None,
            engine: Engine::default(),
        }
    }
}

impl<'a> SurveyOptions<'a> {
    /// Paper defaults (see the type docs).
    #[must_use]
    pub fn new() -> Self {
        SurveyOptions::default()
    }

    /// Sets the TX drive voltage (V).
    #[must_use]
    pub fn tx_voltage(mut self, tx_voltage_v: f64) -> Self {
        self.tx_voltage_v = tx_voltage_v;
        self
    }

    /// Sets the worker pool for the read phase.
    #[must_use]
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Routes the survey through `plan`'s fault timeline.
    #[must_use]
    pub fn fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the retry budget for must-answer commands.
    #[must_use]
    pub fn retry_policy(mut self, retry_policy: RetryPolicy) -> Self {
        self.retry_policy = retry_policy;
        self
    }

    /// Installs an observability sink for the survey's event stream.
    #[must_use]
    pub fn recorder(mut self, rec: &'a mut dyn Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Selects the hot-path engine. [`Engine::Scalar`] is the reference
    /// escape hatch for differential testing; results are bit-identical
    /// to the batched default either way.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Checks the options describe a physically runnable survey (a
    /// positive, finite drive voltage).
    #[must_use]
    pub fn validate(&self) -> EcoResult<()> {
        if !(self.tx_voltage_v > 0.0 && self.tx_voltage_v.is_finite()) {
            return Err(dsp::EcoError::OutOfRange {
                what: "survey tx_voltage_v",
                value: self.tx_voltage_v,
                min: f64::MIN_POSITIVE,
                max: f64::MAX,
            });
        }
        Ok(())
    }

    /// Validates and returns the finished options — the terminal verb of
    /// the builder chain, shared across the whole
    /// `SurveyOptions`/`FleetOptions`/`CampaignOptions`/`ServeOptions`
    /// family.
    #[must_use]
    pub fn build(self) -> EcoResult<Self> {
        self.validate()?;
        Ok(self)
    }

    /// Runs the configured survey — sugar for
    /// [`SelfSensingWall::run_survey`].
    #[must_use]
    pub fn run<R: Rng>(self, wall: &mut SelfSensingWall, rng: &mut R) -> EcoResult<SurveyReport> {
        wall.run_survey(self, rng)
    }

    /// Upper-bound virtual-slot demand of surveying a wall of
    /// `capsule_count` capsules under this configuration — the TDMA
    /// budget a fleet scheduler must grant before the survey may run.
    ///
    /// Accounting mirrors the engine's slot contract: one charge slot
    /// per capsule; an inventory allowance of four nominal rounds at the
    /// engine's initial frame size `2^q` (`q = ⌈log₂ n⌉ + 1`); and a
    /// per-capsule read window — `QUIET_READ_SLOTS_PER_CAPSULE` quiet,
    /// or the retry policy's
    /// [`RetryPolicy::worst_case_capsule_read_slots`] when a fault plan
    /// is installed. Always ≥ 1, so even a capsule-less wall costs a
    /// scheduling quantum.
    #[must_use]
    pub fn slot_demand(&self, capsule_count: usize) -> u64 {
        let n = capsule_count as u64;
        let q = (capsule_count.max(1) as f64).log2().ceil() as u8 + 1;
        let inventory_slots = 4u64.saturating_mul(1u64 << q.min(62));
        let read_slots_per_capsule = if self.fault_plan.is_some() {
            self.retry_policy.worst_case_capsule_read_slots()
        } else {
            QUIET_READ_SLOTS_PER_CAPSULE
        };
        n.saturating_add(inventory_slots)
            .saturating_add(n.saturating_mul(read_slots_per_capsule))
            .max(1)
    }
}

/// Thermal strain per °C of temperature change in the host concrete
/// (coefficient of thermal expansion, ≈10 µε/°C for ordinary mixes).
///
/// The single constant both sides of a monitoring campaign share: the
/// structure-evolution model uses it to fold seasonal temperature into
/// the strain a capsule's gauge reads, and the analytics layer uses it
/// to *compensate* measured strain with measured temperature — so
/// seasonal drift cancels (to sensor quantization) instead of firing
/// false damage alarms.
pub const THERMAL_STRAIN_PER_C: f64 = 10.0e-6;

/// The time-varying physical condition of a wall: what a lifetime of
/// service has done to the structure and its implanted capsules.
///
/// A [`SelfSensingWall`] is built *under* a condition
/// ([`SelfSensingWall::common_wall_under`]); the condition bends the
/// physics every survey rides on:
///
/// - `stiffness_factor` scales the concrete's elastic modulus
///   ([`concrete::materials::ConcreteMix::with_stiffness_factor`]) —
///   progressive micro-cracking slows both wave speeds and drags the
///   transducer resonance (and with it the carrier) down;
/// - `crack_alpha_np_m` adds S-wave attenuation to the charging link
///   ([`channel::linkbudget::LinkBudget::with_added_attenuation`]) — a
///   discrete crack scattering energy out of the guided mode;
/// - `temperature_c` / `humidity_percent` / `strain` set the
///   [`Environment`] the sensors sample — seasonal drift plus
///   accumulated creep;
/// - `capsule_derating` multiplies each capsule's received charging
///   voltage (capsule order): electrode/PZT aging in (0, 1), a dead
///   capsule at exactly `0.0`, a healthy one at `1.0`.
///
/// [`WallCondition::pristine`] is the identity: every factor is the
/// multiplicative/additive no-op (`×1.0`, `+0.0`), chosen so a pristine
/// wall is **bit-identical** to one built without a condition — the
/// golden survey fixtures pin this.
#[derive(Debug, Clone, PartialEq)]
pub struct WallCondition {
    /// Elastic-modulus scale in (0, 1]; 1 = undamaged.
    pub stiffness_factor: f64,
    /// Added S-wave attenuation (Np/m) on the charging path; ≥ 0.
    pub crack_alpha_np_m: f64,
    /// Internal concrete temperature (°C).
    pub temperature_c: f64,
    /// Internal relative humidity (%).
    pub humidity_percent: f64,
    /// Internal strain (signed, strain units): creep + thermal + damage.
    pub strain: f64,
    /// Per-capsule charging derate in [0, 1], capsule order; capsules
    /// beyond the end of the vector are healthy (`1.0`).
    pub capsule_derating: Vec<f64>,
}

impl Default for WallCondition {
    fn default() -> Self {
        WallCondition::pristine()
    }
}

impl WallCondition {
    /// The as-built condition: no damage, nominal climate
    /// ([`Environment::default`]), every capsule healthy. Surveying
    /// under it is bit-identical to surveying without a condition.
    #[must_use]
    pub fn pristine() -> Self {
        WallCondition {
            stiffness_factor: 1.0,
            crack_alpha_np_m: 0.0,
            temperature_c: 25.0,
            humidity_percent: 70.0,
            strain: 0.0,
            capsule_derating: Vec::new(),
        }
    }

    /// Validates every field. The comparisons are written so `NaN`
    /// fails them (a hostile checkpoint cannot smuggle one in).
    #[must_use]
    pub fn validate(&self) -> EcoResult<()> {
        if !(self.stiffness_factor > 0.0 && self.stiffness_factor <= 1.0) {
            return Err(dsp::EcoError::OutOfRange {
                what: "condition stiffness_factor",
                value: self.stiffness_factor,
                min: 0.0,
                max: 1.0,
            });
        }
        if !(self.crack_alpha_np_m >= 0.0) {
            return Err(dsp::EcoError::OutOfRange {
                what: "condition crack_alpha_np_m",
                value: self.crack_alpha_np_m,
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        if !self.temperature_c.is_finite() || !self.humidity_percent.is_finite() {
            return Err(dsp::EcoError::Protocol {
                what: "condition climate must be finite",
            });
        }
        if !self.strain.is_finite() {
            return Err(dsp::EcoError::Protocol {
                what: "condition strain must be finite",
            });
        }
        for &d in &self.capsule_derating {
            if !(0.0..=1.0).contains(&d) {
                return Err(dsp::EcoError::OutOfRange {
                    what: "condition capsule derate",
                    value: d,
                    min: 0.0,
                    max: 1.0,
                });
            }
        }
        Ok(())
    }

    /// Charging derate for capsule index `i` (capsule order); capsules
    /// past the end of the vector are healthy.
    #[must_use]
    pub fn derate(&self, i: usize) -> f64 {
        self.capsule_derating.get(i).copied().unwrap_or(1.0)
    }

    /// Stable digest words over every field (floats as bits, length-
    /// prefixed derating) for config digests that pin a condition.
    #[must_use]
    pub fn digest_words(&self) -> Vec<u64> {
        let mut words = vec![
            self.stiffness_factor.to_bits(),
            self.crack_alpha_np_m.to_bits(),
            self.temperature_c.to_bits(),
            self.humidity_percent.to_bits(),
            self.strain.to_bits(),
            self.capsule_derating.len() as u64,
        ];
        words.extend(self.capsule_derating.iter().map(|d| d.to_bits()));
        words
    }
}

/// A wall (or slab/column) with EcoCapsules implanted at known standoffs
/// from the reader's mounting point, plus the reader itself.
#[derive(Debug, Clone)]
pub struct SelfSensingWall {
    /// The host structure.
    pub structure: Structure,
    /// The implanted capsules with their distances (m) from the reader.
    pub capsules: Vec<(f64, EcoCapsule)>,
    /// The attached reader session.
    pub session: ReaderSession,
    /// Ambient/internal conditions at the capsules.
    pub environment: Environment,
    /// The structural condition the wall is surveyed under;
    /// [`WallCondition::pristine`] unless built via
    /// [`SelfSensingWall::common_wall_under`].
    pub condition: WallCondition,
}

/// Why a capsule did — or did not — contribute readings to a survey.
/// The degraded variants are *outcomes*, not errors: a survey over a
/// faulted channel completes and reports them instead of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapsuleOutcome {
    /// Powered, inventoried, and at least one sensor read decoded.
    Read {
        /// How many sensor readings were delivered.
        readings: usize,
    },
    /// Never cleared the activation threshold — too far for the drive
    /// voltage, or browned out during the charging phase.
    Unpowered,
    /// Powered but never singled out within the inventory round budget
    /// (persistent collisions and/or ACK losses).
    CollisionExhausted,
    /// Inventoried, but every sensor-read transaction failed to decode
    /// within the retry budget.
    DecodeFailed {
        /// Total read attempts spent before giving up.
        attempts: u32,
    },
}

impl CapsuleOutcome {
    /// Stable digest words for this outcome: a tag and a payload.
    fn digest_words(self) -> [u64; 2] {
        match self {
            CapsuleOutcome::Read { readings } => [0, readings as u64],
            CapsuleOutcome::Unpowered => [1, 0],
            CapsuleOutcome::CollisionExhausted => [2, 0],
            CapsuleOutcome::DecodeFailed { attempts } => [3, u64::from(attempts)],
        }
    }
}

/// Outcome of one survey pass (charge → inventory → read).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SurveyReport {
    /// IDs of the capsules that powered up at the chosen drive voltage.
    pub powered_ids: Vec<u32>,
    /// IDs successfully inventoried over the air.
    pub inventoried_ids: Vec<u32>,
    /// `(id, kind, physical value)` sensor readings collected.
    pub readings: Vec<(u32, SensorKind, f64)>,
    /// Per-capsule outcome, in capsule order — every implanted capsule
    /// appears exactly once.
    pub outcomes: Vec<(u32, CapsuleOutcome)>,
}

impl SurveyReport {
    /// FNV-1a digest over every field, bit-exact on the readings. Two
    /// surveys with the same digest saw the same capsules power up, the
    /// same inventory order, bit-identical sensor values and the same
    /// outcome for every capsule — the witness the fault-matrix bench
    /// and the determinism tests compare across worker counts.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let words = self
            .powered_ids
            .iter()
            .map(|&id| u64::from(id))
            .chain([u64::MAX]) // section separators
            .chain(self.inventoried_ids.iter().map(|&id| u64::from(id)))
            .chain([u64::MAX])
            .chain(self.readings.iter().flat_map(|&(id, kind, value)| {
                [u64::from(id), kind as u64, value.to_bits()]
            }))
            .chain([u64::MAX])
            .chain(self.outcomes.iter().flat_map(|&(id, outcome)| {
                let [tag, payload] = outcome.digest_words();
                [u64::from(id), tag, payload]
            }));
        faults::fnv1a64(words)
    }

    /// The outcome recorded for capsule `id`, if it was surveyed.
    #[must_use]
    pub fn outcome_of(&self, id: u32) -> Option<CapsuleOutcome> {
        self.outcomes
            .iter()
            .find(|(oid, _)| *oid == id)
            .map(|(_, o)| *o)
    }
}

impl SelfSensingWall {
    /// The paper's S3 common wall with capsules at the given standoffs.
    ///
    /// The quickstart flow — predict coverage from the link budget, then
    /// survey (charge → inventory → read each capsule's sensors):
    ///
    /// ```
    /// use ecocapsule::prelude::*;
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = StdRng::seed_from_u64(42);
    /// let mut wall = SelfSensingWall::common_wall(&[0.5, 1.2, 2.0]);
    ///
    /// // Coverage prediction: 200 V reaches past the farthest capsule.
    /// let lb = wall.link_budget().expect("wall geometry is valid");
    /// let reach_m = lb
    ///     .max_range_m(200.0, 0.5)
    ///     .expect("valid link query")
    ///     .expect("200 V powers something");
    /// assert!(reach_m > 2.0);
    ///
    /// // Survey at 200 V: all three capsules power up and answer.
    /// let report = SurveyOptions::new()
    ///     .tx_voltage(200.0)
    ///     .run(&mut wall, &mut rng)
    ///     .expect("valid survey");
    /// assert_eq!(report.powered_ids, vec![1000, 1001, 1002]);
    /// assert!(!report.readings.is_empty());
    /// ```
    pub fn common_wall(distances_m: &[f64]) -> Self {
        SelfSensingWall::new(Structure::s3_common_wall(), distances_m)
    }

    /// The S3 common wall *as a lifetime of service left it*: the
    /// condition degrades the concrete stiffness (wave speeds, carrier),
    /// installs the seasonal/creep environment the sensors will sample,
    /// and arms the crack-attenuation and capsule-derating hooks the
    /// survey engine applies.
    ///
    /// Under [`WallCondition::pristine`] the result is bit-identical to
    /// [`SelfSensingWall::common_wall`] — every condition factor is a
    /// floating-point no-op — which is what lets a zero-damage campaign
    /// reproduce plain fleet digests exactly.
    ///
    /// Errors when the condition fails [`WallCondition::validate`].
    #[must_use]
    pub fn common_wall_under(distances_m: &[f64], condition: &WallCondition) -> EcoResult<Self> {
        condition.validate()?;
        let mut structure = Structure::s3_common_wall();
        structure.mix = structure
            .mix
            .with_stiffness_factor(condition.stiffness_factor)?;
        let mut wall = SelfSensingWall::new(structure, distances_m);
        wall.environment.temperature_c = condition.temperature_c;
        wall.environment.humidity_percent = condition.humidity_percent;
        wall.environment.strain = condition.strain;
        wall.condition = condition.clone();
        Ok(wall)
    }

    /// Builds a wall with capsules `1000, 1001, …` at the standoffs.
    pub fn new(structure: Structure, distances_m: &[f64]) -> Self {
        let capsules = distances_m
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                assert!(d > 0.0, "capsule distance must be positive");
                (d, EcoCapsule::new(1000 + i as u32))
            })
            .collect();
        let environment = Environment {
            concrete_e_pa: structure.mix.ec_gpa * 1e9,
            ..Environment::default()
        };
        SelfSensingWall {
            structure,
            capsules,
            session: ReaderSession::paper_default(),
            environment,
            condition: WallCondition::pristine(),
        }
    }

    /// The wall's charging link budget, with the condition's crack
    /// attenuation folded in (a `+0.0` bitwise no-op when pristine).
    #[must_use]
    pub fn link_budget(&self) -> EcoResult<LinkBudget> {
        LinkBudget::for_structure(&self.structure)?
            .with_added_attenuation(self.condition.crack_alpha_np_m)
    }

    /// One full survey pass driven by a [`SurveyOptions`] configuration:
    /// 1. the CBW charges every capsule whose received voltage clears the
    ///    activation threshold (waiting out each cold start),
    /// 2. the powered capsules are inventoried over the waveform-level
    ///    protocol,
    /// 3. each inventoried capsule is asked for temperature, humidity
    ///    and strain, fanned out over the configured pool.
    ///
    /// With a fault plan installed, every phase consumes slots of the
    /// plan's timeline under the robust session layer
    /// ([`reader::robust`]); without one, the quiet waveform-level path
    /// runs.
    ///
    /// Determinism: exactly **one** value is drawn from `rng` and every
    /// phase derives its own child generator from it with
    /// [`exec::seed::derive`] — the inventory gets stream 0, capsule `id`
    /// gets stream `1 + id`. Per-capsule sensor reads (phase 3) fan out
    /// over the pool with results merged in capsule order, so the
    /// report, the post-survey wall state, *and the recorded event
    /// stream* are bit-identical for every worker count, including
    /// [`Pool::serial`] — parallel tasks record into per-task buffers
    /// that are replayed into the session recorder in capsule order.
    ///
    /// Phases 1–2 stay serial by nature: charging is a cheap closed-form
    /// sweep, and inventory arbitrates a *shared* medium (slotted ALOHA
    /// with collisions), which cannot be split across workers without
    /// changing the protocol being simulated.
    ///
    /// Errors when the link-budget query is invalid (negative drive
    /// voltage or a degenerate structure geometry).
    #[must_use]
    pub fn run_survey<R: Rng>(
        &mut self,
        options: SurveyOptions<'_>,
        rng: &mut R,
    ) -> EcoResult<SurveyReport> {
        let SurveyOptions {
            tx_voltage_v,
            pool,
            fault_plan,
            retry_policy,
            recorder,
            engine,
        } = options;
        let mut null = NullRecorder;
        let rec: &mut dyn Recorder = match recorder {
            Some(rec) => rec,
            None => &mut null,
        };
        // The session drives every waveform transaction; phase-3 tasks
        // clone it, so setting the engine here propagates to all workers.
        self.session.engine = engine;
        match fault_plan {
            None => self.run_survey_quiet(tx_voltage_v, &pool, rec, rng),
            Some(plan) => {
                self.run_survey_faulted(tx_voltage_v, plan, &retry_policy, &pool, rec, rng)
            }
        }
    }

    /// The quiet-channel engine behind [`SelfSensingWall::run_survey`].
    /// Slot-clock contract: one virtual slot per protocol transaction;
    /// phase 3 tasks get disjoint [`QUIET_READ_SLOTS_PER_CAPSULE`]-slot
    /// windows in capsule order.
    fn run_survey_quiet<R: Rng>(
        &mut self,
        tx_voltage_v: f64,
        pool: &Pool,
        rec: &mut dyn Recorder,
        rng: &mut R,
    ) -> EcoResult<SurveyReport> {
        let mut report = SurveyReport::default();
        let lb = self.link_budget()?;
        let base_seed: u64 = rng.gen();
        let mut clock = SlotClock::new(0);
        rec.span_open("survey", 0, clock.now());

        // Phase 1: wireless charging, one virtual slot per capsule. The
        // link-budget voltages are computed as one SoA lane batch (bit-
        // identical per lane to the scalar query; the whole batch is
        // validated before any capsule state mutates).
        rec.span_open("phase.charge", 0, clock.now());
        let distances: Vec<f64> = self.capsules.iter().map(|(d, _)| *d).collect();
        let v_lanes = lb.received_voltage_lanes(tx_voltage_v, &distances)?;
        // Each lane is scaled by the capsule's condition derate (aging /
        // death); `×1.0` is a bitwise no-op for healthy capsules.
        let condition = &self.condition;
        for (i, ((_, capsule), v_lane)) in self.capsules.iter_mut().zip(v_lanes).enumerate() {
            let v_rx = v_lane * condition.derate(i);
            let slot = clock.tick();
            capsule.harvest_observed(v_rx, 1.0, slot, rec); // a second of CBW ≫ any cold start
            if v_rx >= MIN_ACTIVATION_V && capsule.is_operational() {
                report.powered_ids.push(capsule.id);
            }
        }
        rec.count(
            "survey.powered",
            report.powered_ids.len() as u64,
            clock.now(),
        );
        rec.span_close("phase.charge", 0, clock.now());

        // Phase 2: inventory (waveform level, serial — shared medium).
        let mut powered: Vec<EcoCapsule> = self
            .capsules
            .iter()
            .filter(|(_, c)| c.is_operational())
            .map(|(_, c)| c.clone())
            .collect();
        let q = (powered.len().max(1) as f64).log2().ceil() as u8 + 1;
        let mut inventory_rng = StdRng::seed_from_u64(exec::seed::derive(base_seed, 0));
        rec.span_open("phase.inventory", 0, clock.now());
        report.inventoried_ids = self.session.inventory_observed(
            &mut powered,
            &self.environment,
            q,
            40,
            &mut clock,
            rec,
            &mut inventory_rng,
        );
        rec.count(
            "survey.inventoried",
            report.inventoried_ids.len() as u64,
            clock.now(),
        );
        rec.span_close("phase.inventory", 0, clock.now());

        // Phase 3: sensor reads, one task per inventoried capsule. The
        // session is shared read-only; each task owns a clone of its
        // capsule, an RNG derived from the capsule id, and a slot-clock
        // window derived from its task index, so scheduling can reorder
        // neither random draws nor event timestamps. A capsule
        // identified in an early inventory round may have been
        // re-arbitrated out of `Acknowledged` by a later round's Query,
        // so each task first re-opens the read session (a no-op — zero
        // RNG draws, zero events — when it is still open). Each task
        // records into its own buffer; the buffers are replayed into the
        // session recorder in capsule order below.
        let read_base_slot = clock.now();
        let session = &self.session;
        let environment = &self.environment;
        let inventoried = &report.inventoried_ids;
        let surveyed: Vec<(EcoCapsule, Vec<(u32, SensorKind, f64)>, Vec<Event>)> =
            pool.par_map(&powered, |task, capsule| {
                let mut capsule = capsule.clone();
                let mut readings = Vec::new();
                let mut task_rec = MemoryRecorder::new();
                let mut task_clock =
                    SlotClock::new(read_base_slot + task as u64 * QUIET_READ_SLOTS_PER_CAPSULE);
                if inventoried.contains(&capsule.id) {
                    task_rec.span_open("phase.read", capsule.id, task_clock.now());
                    let mut read_rng = StdRng::seed_from_u64(exec::seed::derive(
                        base_seed,
                        1 + u64::from(capsule.id),
                    ));
                    session.ensure_session_observed(
                        &mut capsule,
                        environment,
                        3,
                        &mut task_clock,
                        &mut task_rec,
                        &mut read_rng,
                    );
                    for kind in [
                        SensorKind::Temperature,
                        SensorKind::Humidity,
                        SensorKind::Strain,
                    ] {
                        if let Ok(Some(value)) = session.read_sensor_observed(
                            &mut capsule,
                            kind,
                            environment,
                            &mut task_clock,
                            &mut task_rec,
                            &mut read_rng,
                        ) {
                            readings.push((capsule.id, kind, value));
                        }
                    }
                    task_rec.span_close("phase.read", capsule.id, task_clock.now());
                }
                (capsule, readings, task_rec.into_events())
            });
        // Merge in capsule order: readings, recorded events, and the
        // written-back protocol/lifecycle state.
        for (done, readings, events) in surveyed {
            for ev in &events {
                rec.record(ev);
            }
            report.readings.extend(readings);
            if let Some((_, c)) = self.capsules.iter_mut().find(|(_, c)| c.id == done.id) {
                *c = done;
            }
        }
        clock.skip(powered.len() as u64 * QUIET_READ_SLOTS_PER_CAPSULE);
        self.classify_outcomes(&mut report, 3);
        rec.count("survey.readings", report.readings.len() as u64, clock.now());
        rec.span_close("survey", 0, clock.now());
        Ok(report)
    }

    /// Fills `report.outcomes` from the phase results, one entry per
    /// implanted capsule in capsule order. `attempts_per_failed_read` is
    /// what a fully-failed read spent (3 kinds × the per-command budget).
    fn classify_outcomes(&self, report: &mut SurveyReport, attempts_per_failed_read: u32) {
        report.outcomes = self
            .capsules
            .iter()
            .map(|(_, c)| {
                let id = c.id;
                let outcome = if !report.powered_ids.contains(&id) {
                    CapsuleOutcome::Unpowered
                } else if !report.inventoried_ids.contains(&id) {
                    CapsuleOutcome::CollisionExhausted
                } else {
                    let readings = report
                        .readings
                        .iter()
                        .filter(|(rid, _, _)| *rid == id)
                        .count();
                    if readings > 0 {
                        CapsuleOutcome::Read { readings }
                    } else {
                        CapsuleOutcome::DecodeFailed {
                            attempts: attempts_per_failed_read,
                        }
                    }
                };
                (id, outcome)
            })
            .collect();
    }

    /// The faulted-channel engine behind [`SelfSensingWall::run_survey`]:
    /// a survey on a channel under a [`FaultPlan`]. Every phase consumes
    /// slots of the plan's timeline and runs under whatever perturbation
    /// each slot carries, and must-answer transactions retry per
    /// `policy`.
    ///
    /// Phase structure (see DESIGN.md §4 for the slot accounting):
    /// 1. **Charging** — one slot per capsule, in capsule order. A
    ///    brownout slot starves the capsule during its charge window
    ///    (`harvest_under`), which — unlike a transaction-time brownout —
    ///    is unrecoverable this survey: the capsule reports
    ///    [`CapsuleOutcome::Unpowered`].
    /// 2. **Inventory** — the fault-aware robust driver
    ///    ([`reader::robust`]) with retried ACKs and loss-burst Q
    ///    re-arbitration, consuming the timeline serially (shared
    ///    medium).
    /// 3. **Reads** — fan out per capsule over `pool`. Each task first
    ///    re-opens its capsule's read session if a later inventory round
    ///    displaced it from `Acknowledged`
    ///    ([`ReaderSession::ensure_session_with_retry`]), then issues
    ///    three retried reads. Each capsule gets a *disjoint,
    ///    precomputed* timeline slice sized to the worst-case slot spend
    ///    of the re-acquisition plus the reads, so worker scheduling cannot
    ///    change which perturbations any capsule sees: the report digest
    ///    is bit-identical for every worker count.
    ///
    /// Determinism mirrors the quiet engine: one value drawn from `rng`,
    /// child streams derived per phase/capsule. Slot-clock contract:
    /// event timestamps are the [`Timeline`] slot index about to be
    /// consumed.
    fn run_survey_faulted<R: Rng>(
        &mut self,
        tx_voltage_v: f64,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        pool: &Pool,
        rec: &mut dyn Recorder,
        rng: &mut R,
    ) -> EcoResult<SurveyReport> {
        let mut report = SurveyReport::default();
        let lb = self.link_budget()?;
        let base_seed: u64 = rng.gen();
        let mut timeline = Timeline::new(plan);
        rec.span_open("survey", 0, timeline.slot());

        // Phase 1: wireless charging, one slot per capsule. Voltages come
        // from the same SoA lane batch as the quiet path.
        rec.span_open("phase.charge", 0, timeline.slot());
        let distances: Vec<f64> = self.capsules.iter().map(|(d, _)| *d).collect();
        let v_lanes = lb.received_voltage_lanes(tx_voltage_v, &distances)?;
        // Condition derating mirrors the quiet path: scale each lane
        // before the harvester sees it (`×1.0` no-op when healthy).
        let condition = &self.condition;
        for (i, ((_, capsule), v_lane)) in self.capsules.iter_mut().zip(v_lanes).enumerate() {
            let v_rx = v_lane * condition.derate(i);
            let slot = timeline.slot();
            let p = timeline.advance();
            capsule.harvest_under_observed(v_rx, 1.0, &p, slot, rec);
            if capsule.is_operational() {
                report.powered_ids.push(capsule.id);
            }
        }
        rec.count(
            "survey.powered",
            report.powered_ids.len() as u64,
            timeline.slot(),
        );
        rec.span_close("phase.charge", 0, timeline.slot());

        // Phase 2: fault-aware inventory (serial — shared medium).
        let mut powered: Vec<EcoCapsule> = self
            .capsules
            .iter()
            .filter(|(_, c)| c.is_operational())
            .map(|(_, c)| c.clone())
            .collect();
        let q = (powered.len().max(1) as f64).log2().ceil() as u8 + 1;
        let cfg = RobustConfig {
            q0: q,
            c: 0.3,
            max_rounds: 40,
            policy: *policy,
        };
        let mut inventory_rng = StdRng::seed_from_u64(exec::seed::derive(base_seed, 0));
        rec.span_open("phase.inventory", 0, timeline.slot());
        report.inventoried_ids = self
            .session
            .inventory_robust(
                &mut powered,
                &self.environment,
                &cfg,
                &mut timeline,
                rec,
                &mut inventory_rng,
            )
            .found;
        rec.count(
            "survey.inventoried",
            report.inventoried_ids.len() as u64,
            timeline.slot(),
        );
        rec.span_close("phase.inventory", 0, timeline.slot());

        // Phase 3: retried sensor reads on disjoint timeline slices,
        // each sized to the policy's worst case (see
        // `RetryPolicy::worst_case_capsule_read_slots` for the slot
        // accounting). Each task records into its own buffer; buffers
        // are replayed into the session recorder in capsule order, so
        // the event stream is bit-identical for every worker count.
        let budget = policy.max_attempts.max(1);
        let slots_per_capsule = policy.worst_case_capsule_read_slots();
        let read_base_slot = timeline.slot();
        let session = &self.session;
        let environment = &self.environment;
        let inventoried = &report.inventoried_ids;
        let surveyed: Vec<(EcoCapsule, Vec<(u32, SensorKind, f64)>, u32, Vec<Event>)> = pool
            .par_map(&powered, |task, capsule| {
                let mut capsule = capsule.clone();
                let mut readings = Vec::new();
                let mut attempts = 0u32;
                let mut task_rec = MemoryRecorder::new();
                if inventoried.contains(&capsule.id) {
                    let mut read_rng = StdRng::seed_from_u64(exec::seed::derive(
                        base_seed,
                        1 + u64::from(capsule.id),
                    ));
                    let mut slice = Timeline::starting_at(
                        plan,
                        read_base_slot + task as u64 * slots_per_capsule,
                    );
                    task_rec.span_open("phase.read", capsule.id, slice.slot());
                    attempts += session.ensure_session_with_retry(
                        &mut capsule,
                        environment,
                        &cfg,
                        &mut slice,
                        &mut task_rec,
                        &mut read_rng,
                    );
                    for kind in [
                        SensorKind::Temperature,
                        SensorKind::Humidity,
                        SensorKind::Strain,
                    ] {
                        let (value, spent) = session.read_sensor_with_retry(
                            &mut capsule,
                            kind,
                            environment,
                            policy,
                            &mut slice,
                            &mut task_rec,
                            &mut read_rng,
                        );
                        attempts += spent;
                        if let Some(value) = value {
                            readings.push((capsule.id, kind, value));
                        }
                    }
                    task_rec.span_close("phase.read", capsule.id, slice.slot());
                }
                (capsule, readings, attempts, task_rec.into_events())
            });
        let mut attempts_by_id: Vec<(u32, u32)> = Vec::new();
        for (done, readings, attempts, events) in surveyed {
            for ev in &events {
                rec.record(ev);
            }
            report.readings.extend(readings);
            attempts_by_id.push((done.id, attempts));
            if let Some((_, c)) = self.capsules.iter_mut().find(|(_, c)| c.id == done.id) {
                *c = done;
            }
        }

        self.classify_outcomes(&mut report, 3 * budget);
        // Replace the uniform failed-read attempt estimate with what each
        // capsule actually spent.
        for (id, outcome) in report.outcomes.iter_mut() {
            if let CapsuleOutcome::DecodeFailed { attempts } = outcome {
                if let Some((_, spent)) = attempts_by_id.iter().find(|(aid, _)| aid == id) {
                    *attempts = *spent;
                }
            }
        }
        let end_slot = read_base_slot + powered.len() as u64 * slots_per_capsule;
        rec.count("survey.readings", report.readings.len() as u64, end_slot);
        rec.span_close("survey", 0, end_slot);
        Ok(report)
    }
}

/// Fig 17: maximum uplink throughput per concrete grade. The denser
/// UHPC/UHPFRC matrices raise the link SNR (strength gain → more dB at
/// the same drive), buying ~2 kbps over NC.
pub fn throughput_for_grade(grade: ConcreteGrade) -> f64 {
    let gain_db = 20.0 * grade.mix().strength_gain().log10();
    // NC base: 17 dB at 1 kbps, 18 kHz modulation band (see reader::rx).
    max_throughput_for(17.0 + gain_db)
}

fn max_throughput_for(base_db_at_1k: f64) -> f64 {
    max_throughput_bps(base_db_at_1k, 18.0e3, 0.0)
}

/// The Fig 16 triple: EcoCapsule / PAB / U²B SNR at one bitrate.
pub fn fig16_point(bitrate_bps: f64) -> (f64, f64, f64) {
    (
        reader::rx::ecocapsule_snr_vs_bitrate_db(bitrate_bps),
        baselines::pab::pab_snr_vs_bitrate_db(bitrate_bps),
        baselines::u2b::u2b_snr_vs_bitrate_db(bitrate_bps),
    )
}

/// Fig 22: synthesizes the "received and demodulated backscatter
/// signal" waveform — CBW only until `t_start_s`, then the node's
/// impedance switch toggling at `switch_hz` (0.5 ms edges in the paper).
/// Returns `(time_s, envelope_mv)` pairs at the capture rate.
pub fn fig22_waveform(t_start_s: f64, switch_hz: f64, duration_s: f64) -> Vec<(f64, f64)> {
    assert!(
        t_start_s >= 0.0 && switch_hz > 0.0 && duration_s > t_start_s,
        "invalid waveform spec"
    );
    let fs = 1.0e6;
    let carrier = 230e3;
    let n = (duration_s * fs) as usize;
    let mut raw = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 / fs;
        let m = if t < t_start_s {
            0.1
        } else {
            // Square switching between absorptive and reflective.
            let phase = ((t - t_start_s) * switch_hz).fract();
            if phase < 0.5 {
                1.0
            } else {
                0.1
            }
        };
        // Leak 400 mV + backscatter 60 mV, as in the figure's scale.
        raw.push((400.0 + 60.0 * m) * (2.0 * std::f64::consts::PI * carrier * t).sin());
    }
    let env = dsp::envelope::diode_envelope(&raw, 30e-6, fs);
    env.iter()
        .enumerate()
        .step_by(20)
        .map(|(i, &v)| (i as f64 / fs, v))
        .collect()
}

/// `snr_vs_bitrate_db` re-export so scenario callers need one import.
pub use reader::rx::ecocapsule_snr_vs_bitrate_db;

/// Generic curve re-export.
pub fn custom_snr_curve(bitrate_bps: f64, base_db: f64, band_bps: f64) -> f64 {
    snr_vs_bitrate_db(bitrate_bps, base_db, band_bps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn survey_powers_inventories_and_reads() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut wall = SelfSensingWall::common_wall(&[0.5, 1.0]);
        let report = SurveyOptions::new()
            .tx_voltage(200.0)
            .run(&mut wall, &mut rng)
            .unwrap();
        assert_eq!(report.powered_ids, vec![1000, 1001]);
        let mut inv = report.inventoried_ids.clone();
        inv.sort_unstable();
        assert_eq!(inv, vec![1000, 1001]);
        // 3 readings per capsule.
        assert_eq!(report.readings.len(), 6);
        let temp = report
            .readings
            .iter()
            .find(|(id, k, _)| *id == 1000 && *k == SensorKind::Temperature)
            .unwrap()
            .2;
        assert!((temp - 25.0).abs() < 0.1, "temperature read {temp}");
    }

    #[test]
    fn pristine_condition_is_a_bitwise_noop() {
        // The whole golden-fixture story rides on this: building under
        // WallCondition::pristine() must reproduce common_wall exactly.
        let survey = |wall: &mut SelfSensingWall| {
            let mut rng = StdRng::seed_from_u64(42);
            SurveyOptions::new()
                .tx_voltage(150.0)
                .run(wall, &mut rng)
                .unwrap()
        };
        let plain = survey(&mut SelfSensingWall::common_wall(&[0.5, 1.2, 2.0]));
        let under = survey(
            &mut SelfSensingWall::common_wall_under(&[0.5, 1.2, 2.0], &WallCondition::pristine())
                .unwrap(),
        );
        assert_eq!(plain.digest(), under.digest());
        for ((_, _, a), (_, _, b)) in plain.readings.iter().zip(under.readings.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn condition_environment_reaches_the_sensors() {
        let condition = WallCondition {
            temperature_c: 31.0,
            humidity_percent: 82.0,
            strain: 240e-6,
            ..WallCondition::pristine()
        };
        let mut wall = SelfSensingWall::common_wall_under(&[0.5], &condition).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let report = SurveyOptions::new().run(&mut wall, &mut rng).unwrap();
        let read = |kind: SensorKind| {
            report
                .readings
                .iter()
                .find(|(_, k, _)| *k == kind)
                .map(|(_, _, v)| *v)
                .expect("reading present")
        };
        assert!((read(SensorKind::Temperature) - 31.0).abs() < 0.1);
        assert!((read(SensorKind::Humidity) - 82.0).abs() < 0.5);
        assert!((read(SensorKind::Strain) - 240e-6).abs() < 1e-6);
    }

    #[test]
    fn crack_attenuation_darkens_far_capsules() {
        // At 50 V a 1.0 m capsule is comfortably in range on a pristine
        // wall (Fig 12: ~1.3 m)…
        let mut rng = StdRng::seed_from_u64(8);
        let mut pristine = SelfSensingWall::common_wall(&[1.0]);
        let report = SurveyOptions::new()
            .tx_voltage(50.0)
            .run(&mut pristine, &mut rng)
            .unwrap();
        assert_eq!(report.powered_ids, vec![1000]);
        // …but a crack on the path scatters the charge below threshold.
        let cracked = WallCondition {
            crack_alpha_np_m: 1.5,
            ..WallCondition::pristine()
        };
        let mut wall = SelfSensingWall::common_wall_under(&[1.0], &cracked).unwrap();
        let report = SurveyOptions::new()
            .tx_voltage(50.0)
            .run(&mut wall, &mut rng)
            .unwrap();
        assert!(report.powered_ids.is_empty());
        assert_eq!(report.outcome_of(1000), Some(CapsuleOutcome::Unpowered));
    }

    #[test]
    fn capsule_derating_ages_and_kills_individually() {
        let condition = WallCondition {
            // Capsule 0 dead, capsule 1 heavily aged, capsule 2 healthy
            // (past the vector's end).
            capsule_derating: vec![0.0, 0.02],
            ..WallCondition::pristine()
        };
        let mut wall = SelfSensingWall::common_wall_under(&[0.5, 0.6, 0.7], &condition).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let report = SurveyOptions::new()
            .tx_voltage(200.0)
            .run(&mut wall, &mut rng)
            .unwrap();
        assert_eq!(report.outcome_of(1000), Some(CapsuleOutcome::Unpowered));
        assert_eq!(report.outcome_of(1001), Some(CapsuleOutcome::Unpowered));
        assert_eq!(
            report.outcome_of(1002),
            Some(CapsuleOutcome::Read { readings: 3 })
        );
    }

    #[test]
    fn degraded_stiffness_shifts_stress_conversion() {
        let degraded = WallCondition {
            stiffness_factor: 0.7,
            ..WallCondition::pristine()
        };
        let wall = SelfSensingWall::common_wall_under(&[0.5], &degraded).unwrap();
        let pristine = SelfSensingWall::common_wall(&[0.5]);
        assert!(wall.environment.concrete_e_pa < pristine.environment.concrete_e_pa);
        assert!(
            wall.link_budget().unwrap().carrier_hz < pristine.link_budget().unwrap().carrier_hz,
            "softened matrix must drag the resonant carrier down"
        );
    }

    #[test]
    fn invalid_conditions_are_rejected() {
        let bads = [
            WallCondition {
                stiffness_factor: 0.0,
                ..WallCondition::pristine()
            },
            WallCondition {
                stiffness_factor: f64::NAN,
                ..WallCondition::pristine()
            },
            WallCondition {
                crack_alpha_np_m: -0.1,
                ..WallCondition::pristine()
            },
            WallCondition {
                temperature_c: f64::INFINITY,
                ..WallCondition::pristine()
            },
            WallCondition {
                strain: f64::NAN,
                ..WallCondition::pristine()
            },
            WallCondition {
                capsule_derating: vec![1.2],
                ..WallCondition::pristine()
            },
            WallCondition {
                capsule_derating: vec![f64::NAN],
                ..WallCondition::pristine()
            },
        ];
        for bad in bads {
            assert!(
                SelfSensingWall::common_wall_under(&[0.5], &bad).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn condition_digest_words_cover_every_field() {
        let base = WallCondition::pristine();
        let variants = [
            WallCondition {
                stiffness_factor: 0.9,
                ..base.clone()
            },
            WallCondition {
                crack_alpha_np_m: 0.2,
                ..base.clone()
            },
            WallCondition {
                temperature_c: 26.0,
                ..base.clone()
            },
            WallCondition {
                humidity_percent: 71.0,
                ..base.clone()
            },
            WallCondition {
                strain: 1e-6,
                ..base.clone()
            },
            WallCondition {
                capsule_derating: vec![1.0],
                ..base.clone()
            },
        ];
        let d0 = faults::fnv1a64(base.digest_words());
        for v in variants {
            assert_ne!(faults::fnv1a64(v.digest_words()), d0, "{v:?}");
        }
    }

    #[test]
    fn survey_is_bit_identical_across_worker_counts() {
        let reference = {
            let mut rng = StdRng::seed_from_u64(77);
            let mut wall = SelfSensingWall::common_wall(&[0.5, 1.0, 1.5]);
            SurveyOptions::new()
                .tx_voltage(200.0)
                .run(&mut wall, &mut rng)
                .unwrap()
        };
        assert!(
            !reference.readings.is_empty(),
            "reference survey must actually read sensors"
        );
        for workers in [2, 3, exec::Pool::max_parallel().workers()] {
            let mut rng = StdRng::seed_from_u64(77);
            let mut wall = SelfSensingWall::common_wall(&[0.5, 1.0, 1.5]);
            let report = SurveyOptions::new()
                .tx_voltage(200.0)
                .pool(Pool::new(workers))
                .run(&mut wall, &mut rng)
                .unwrap();
            assert_eq!(report.powered_ids, reference.powered_ids);
            assert_eq!(report.inventoried_ids, reference.inventoried_ids);
            assert_eq!(report.readings.len(), reference.readings.len());
            for ((id_a, kind_a, val_a), (id_b, kind_b, val_b)) in
                report.readings.iter().zip(reference.readings.iter())
            {
                assert_eq!(id_a, id_b, "workers={workers}");
                assert_eq!(kind_a, kind_b, "workers={workers}");
                assert_eq!(
                    val_a.to_bits(),
                    val_b.to_bits(),
                    "readings must be bit-identical (workers={workers})"
                );
            }
        }
    }

    #[test]
    fn slot_demand_scales_with_capsules_and_fault_posture() {
        let quiet = SurveyOptions::new();
        assert!(
            quiet.slot_demand(0) >= 1,
            "empty wall still costs a quantum"
        );
        let mut last = 0;
        for n in 1..=8 {
            let d = SurveyOptions::new().slot_demand(n);
            assert!(d > last, "demand must grow with capsule count");
            last = d;
        }
        // A faulted posture can only cost more: its per-capsule read
        // window (worst-case retries) dominates the quiet window.
        let plan = FaultPlan::quiet();
        let faulted = SurveyOptions::new()
            .fault_plan(&plan)
            .retry_policy(RetryPolicy::paper_default());
        assert!(faulted.slot_demand(3) > SurveyOptions::new().slot_demand(3));
    }

    #[test]
    fn recording_does_not_change_the_survey() {
        let silent = {
            let mut rng = StdRng::seed_from_u64(5);
            let mut wall = SelfSensingWall::common_wall(&[0.5, 1.0]);
            SurveyOptions::new()
                .tx_voltage(150.0)
                .run(&mut wall, &mut rng)
                .unwrap()
                .digest()
        };
        let mut rec = MemoryRecorder::new();
        let recorded = {
            let mut rng = StdRng::seed_from_u64(5);
            let mut wall = SelfSensingWall::common_wall(&[0.5, 1.0]);
            SurveyOptions::new()
                .tx_voltage(150.0)
                .recorder(&mut rec)
                .run(&mut wall, &mut rng)
                .unwrap()
                .digest()
        };
        assert_eq!(silent, recorded, "recording must draw zero randomness");
        assert!(!rec.is_empty(), "the survey must emit events");
        assert_eq!(rec.unmatched_closes(), 0);
        assert_eq!(rec.counter_total("survey.powered"), 2);
        assert_eq!(rec.counter_total("survey.inventoried"), 2);
        assert_eq!(rec.counter_total("survey.readings"), 6);
        // Slot-clock timestamps are monotone nondecreasing across the
        // merged stream.
        let slots: Vec<u64> = rec.events().iter().map(|e| e.slot()).collect();
        assert!(slots.windows(2).all(|w| w[0] <= w[1]), "{slots:?}");
    }

    #[test]
    fn quiet_trace_is_invariant_under_worker_count() {
        let trace = |workers: usize| {
            let mut rng = StdRng::seed_from_u64(77);
            let mut wall = SelfSensingWall::common_wall(&[0.5, 1.0, 1.5]);
            let mut rec = MemoryRecorder::new();
            let pool = if workers <= 1 {
                Pool::serial()
            } else {
                Pool::new(workers)
            };
            SurveyOptions::new()
                .tx_voltage(200.0)
                .pool(pool)
                .recorder(&mut rec)
                .run(&mut wall, &mut rng)
                .unwrap();
            rec.to_jsonl()
        };
        let reference = trace(1);
        for workers in [2, exec::Pool::max_parallel().workers()] {
            assert_eq!(trace(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn survey_with_classifies_every_capsule() {
        let mut rng = StdRng::seed_from_u64(1);
        // 0.5 m reads; 4.0 m stays dark at 50 V.
        let mut wall = SelfSensingWall::common_wall(&[0.5, 4.0]);
        let report = SurveyOptions::new()
            .tx_voltage(50.0)
            .run(&mut wall, &mut rng)
            .unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(
            report.outcome_of(1000),
            Some(CapsuleOutcome::Read { readings: 3 })
        );
        assert_eq!(report.outcome_of(1001), Some(CapsuleOutcome::Unpowered));
    }

    #[test]
    fn survey_under_quiet_plan_matches_plain_survey_outcomes() {
        let mut rng_a = StdRng::seed_from_u64(13);
        let mut wall_a = SelfSensingWall::common_wall(&[0.5, 1.0]);
        let plain = SurveyOptions::new()
            .tx_voltage(200.0)
            .run(&mut wall_a, &mut rng_a)
            .unwrap();

        let mut rng_b = StdRng::seed_from_u64(13);
        let mut wall_b = SelfSensingWall::common_wall(&[0.5, 1.0]);
        let quiet = FaultPlan::quiet();
        let faulted = SurveyOptions::new()
            .tx_voltage(200.0)
            .fault_plan(&quiet)
            .retry_policy(RetryPolicy::none())
            .run(&mut wall_b, &mut rng_b)
            .unwrap();
        assert_eq!(faulted.powered_ids, plain.powered_ids);
        assert_eq!(faulted.readings.len(), plain.readings.len());
        assert!(faulted
            .outcomes
            .iter()
            .all(|(_, o)| matches!(o, CapsuleOutcome::Read { .. })));
    }

    #[test]
    fn survey_under_is_bit_identical_across_worker_counts() {
        let plan = FaultPlan::generate(99, &faults::FaultIntensity::moderate(4000));
        let run = |pool: &Pool| {
            let mut rng = StdRng::seed_from_u64(21);
            let mut wall = SelfSensingWall::common_wall(&[0.5, 1.0, 1.5]);
            SurveyOptions::new()
                .tx_voltage(200.0)
                .fault_plan(&plan)
                .retry_policy(RetryPolicy::paper_default())
                .pool(*pool)
                .run(&mut wall, &mut rng)
                .unwrap()
                .digest()
        };
        let reference = run(&Pool::serial());
        for workers in [2, exec::Pool::max_parallel().workers()] {
            assert_eq!(run(&Pool::new(workers)), reference, "workers={workers}");
        }
    }

    #[test]
    fn charging_brownout_reports_unpowered() {
        use faults::{FaultKind, FaultWindow};
        // Slot 0 is capsule 1000's charge slot; brown it out.
        let plan = FaultPlan::from_windows(
            0,
            10_000,
            vec![FaultWindow {
                kind: FaultKind::Brownout,
                start_slot: 0,
                len_slots: 1,
                magnitude: 0.0,
            }],
        );
        let mut rng = StdRng::seed_from_u64(4);
        let mut wall = SelfSensingWall::common_wall(&[0.5, 1.0]);
        let report = SurveyOptions::new()
            .tx_voltage(200.0)
            .fault_plan(&plan)
            .retry_policy(RetryPolicy::paper_default())
            .run(&mut wall, &mut rng)
            .unwrap();
        assert_eq!(report.outcome_of(1000), Some(CapsuleOutcome::Unpowered));
        assert_eq!(
            report.outcome_of(1001),
            Some(CapsuleOutcome::Read { readings: 3 }),
            "the fault is a window, not a verdict on the whole wall"
        );
    }

    #[test]
    fn far_capsules_stay_dark_at_low_voltage() {
        let mut rng = StdRng::seed_from_u64(2);
        // 0.5 m powers up at 50 V; 4 m does not (Fig 12: ~1.3 m at 50 V).
        let mut wall = SelfSensingWall::common_wall(&[0.5, 4.0]);
        let report = SurveyOptions::new()
            .tx_voltage(50.0)
            .run(&mut wall, &mut rng)
            .unwrap();
        assert_eq!(report.powered_ids, vec![1000]);
        assert_eq!(report.inventoried_ids, vec![1000]);
    }

    #[test]
    fn raising_voltage_extends_coverage() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut wall_lo = SelfSensingWall::common_wall(&[3.0]);
        assert!(SurveyOptions::new()
            .tx_voltage(50.0)
            .run(&mut wall_lo, &mut rng)
            .unwrap()
            .powered_ids
            .is_empty());
        let mut wall_hi = SelfSensingWall::common_wall(&[3.0]);
        assert_eq!(
            SurveyOptions::new()
                .tx_voltage(250.0)
                .run(&mut wall_hi, &mut rng)
                .unwrap()
                .powered_ids,
            vec![1000]
        );
    }

    #[test]
    fn fig17_throughput_ordering() {
        let nc = throughput_for_grade(ConcreteGrade::Nc);
        let uhpc = throughput_for_grade(ConcreteGrade::Uhpc);
        let uhpfrc = throughput_for_grade(ConcreteGrade::Uhpfrc);
        assert!(nc >= 12.5e3, "NC {nc}");
        assert!(uhpc > nc, "UHPC {uhpc} vs NC {nc}");
        assert!(uhpfrc >= uhpc, "UHPFRC {uhpfrc}");
        // "about 2 kbps higher" — allow 1–4 kbps.
        assert!((1e3..4.5e3).contains(&(uhpc - nc)), "gap {}", uhpc - nc);
    }

    #[test]
    fn fig22_waveform_shape() {
        let w = fig22_waveform(4e-3, 1000.0, 10e-3);
        // Before 4 ms: flat CBW envelope; after: two alternating levels.
        let before: Vec<f64> = w
            .iter()
            .filter(|(t, _)| *t > 1e-3 && *t < 3.5e-3)
            .map(|(_, v)| *v)
            .collect();
        let spread_before = before.iter().cloned().fold(f64::MIN, f64::max)
            - before.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread_before < 12.0, "lead should be flat: {spread_before}");
        let after: Vec<f64> = w
            .iter()
            .filter(|(t, _)| *t > 5e-3)
            .map(|(_, v)| *v)
            .collect();
        let hi = after.iter().cloned().fold(f64::MIN, f64::max);
        let lo = after.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            hi - lo > 30.0,
            "switching must modulate the envelope: {hi}-{lo}"
        );
    }

    #[test]
    fn fig16_point_matches_component_models() {
        let (eco, pab, u2b) = fig16_point(2e3);
        assert!(eco > pab, "EcoCapsule above PAB at 2 kbps");
        assert!(eco > u2b, "EcoCapsule above U²B at 2 kbps");
    }
}
