//! The campaign driver: months of simulated service compressed into
//! scheduled survey epochs.
//!
//! Each epoch the engine (1) advances every wall's [`StructureState`]
//! one epoch under its [`DamageScenario`] script, (2) builds the
//! epoch's [`fleet::WallSpec`]s — the evolved condition plus a derived
//! per-epoch survey seed — and runs them through
//! [`fleet::FleetOptions::run`], and (3) streams every wall's
//! [`WallFeatures`] through the
//! [`CampaignGrader`], collecting grades and detections into the
//! [`CampaignReport`].
//!
//! Determinism contract: seeds derive as [`evolve_seed`] /
//! [`survey_seed`] from the campaign seed — one stream per (purpose,
//! epoch, wall) — and each epoch's fleet inherits the options' pool, so
//! the campaign digest is bit-identical for any worker count and across
//! any checkpoint/resume split at an epoch boundary.

use dsp::{EcoError, EcoResult};
use exec::seed::{derive, derive2};
use fleet::{FleetOptions, WallSpec};

use crate::grade::{CampaignGrader, DetectionEvent, GradeConfig, WallFeatures};
use crate::report::{CampaignReport, EpochRecord, WallEpoch};
use crate::scenario::DamageScenario;
use crate::state::StructureState;

/// Seed for the structure-evolution draws of `(epoch, wall)`.
#[must_use]
pub fn evolve_seed(campaign_seed: u64, epoch: u64, wall: u64) -> u64 {
    derive2(derive(campaign_seed, 0), epoch, wall)
}

/// Seed for the survey of `(epoch, wall)`, folded with the wall's own
/// base seed so two walls with identical geometry still survey on
/// independent streams.
#[must_use]
pub fn survey_seed(campaign_seed: u64, epoch: u64, wall: u64, base_seed: u64) -> u64 {
    derive(derive2(derive(campaign_seed, 1), epoch, wall), base_seed)
}

/// One wall of the campaign: its fleet spec as built, plus the lifetime
/// script it will follow.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignWallSpec {
    /// The wall as built (condition/seed fields are overridden each
    /// epoch by the engine).
    pub base: WallSpec,
    /// The lifetime script.
    pub scenario: DamageScenario,
}

impl CampaignWallSpec {
    /// Pairs a wall with its lifetime script.
    #[must_use]
    pub fn new(base: WallSpec, scenario: DamageScenario) -> Self {
        CampaignWallSpec { base, scenario }
    }

    /// Stable digest words over the base spec and the scenario.
    #[must_use]
    pub fn config_words(&self) -> Vec<u64> {
        let mut words = self.base.config_words();
        words.push(u64::MAX);
        words.extend(self.scenario.config_words());
        words
    }
}

/// Campaign-level knobs: the schedule, the seed, and the fleet/grading
/// configuration underneath.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Survey epochs to run (≥ 1).
    pub epochs: u64,
    /// Simulated days between epochs (≥ 1); only bookkeeping — it maps
    /// epochs onto the calendar in reports and benches.
    pub days_per_epoch: u64,
    /// Campaign seed: every evolution and survey stream derives from it.
    pub seed: u64,
    /// Fleet scheduling options for each epoch's survey round.
    pub fleet: FleetOptions,
    /// Drift-grading configuration.
    pub grading: GradeConfig,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            epochs: 12,
            days_per_epoch: 30,
            seed: 0,
            fleet: FleetOptions::default(),
            grading: GradeConfig::default(),
        }
    }
}

impl CampaignOptions {
    /// Twelve monthly epochs, serial fleet, default grading, seed 0.
    #[must_use]
    pub fn new() -> Self {
        CampaignOptions::default()
    }

    /// Replaces the epoch count.
    #[must_use]
    pub fn epochs(mut self, epochs: u64) -> Self {
        self.epochs = epochs;
        self
    }

    /// Replaces the days-per-epoch spacing.
    #[must_use]
    pub fn days_per_epoch(mut self, days_per_epoch: u64) -> Self {
        self.days_per_epoch = days_per_epoch;
        self
    }

    /// Replaces the campaign seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the per-epoch fleet options.
    #[must_use]
    pub fn fleet(mut self, fleet: FleetOptions) -> Self {
        self.fleet = fleet;
        self
    }

    /// Replaces the grading configuration.
    #[must_use]
    pub fn grading(mut self, grading: GradeConfig) -> Self {
        self.grading = grading;
        self
    }

    /// Checks the schedule is non-degenerate and the nested fleet and
    /// grading options validate.
    #[must_use]
    pub fn validate(&self) -> EcoResult<()> {
        if self.epochs == 0 {
            return Err(EcoError::Protocol {
                what: "campaign needs at least one epoch",
            });
        }
        if self.days_per_epoch == 0 {
            return Err(EcoError::Protocol {
                what: "campaign needs at least one day per epoch",
            });
        }
        self.fleet.validate()?;
        self.grading.validate()
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

    /// Runs a whole campaign over `specs` start to finish — the one-call
    /// entry point, mirroring [`fleet::FleetOptions::run`] one layer up.
    #[must_use]
    pub fn run(self, specs: Vec<CampaignWallSpec>) -> EcoResult<CampaignReport> {
        Campaign::new(specs, self)?.run_to_completion()
    }
}

/// Digest pinning the static campaign configuration: the schedule,
/// seed, slot budget, grading knobs and every wall's spec + scenario,
/// `u64::MAX`-separated. The fleet pool is deliberately excluded — the
/// digest must not depend on worker count.
#[must_use]
pub fn config_digest(specs: &[CampaignWallSpec], options: &CampaignOptions) -> u64 {
    let mut words = vec![
        options.epochs,
        options.days_per_epoch,
        options.seed,
        options.fleet.budget.quantum_slots,
        options.fleet.budget.round_budget_slots,
        u64::from(options.fleet.budget.aging_rounds),
    ];
    words.extend(options.grading.config_words());
    words.push(specs.len() as u64);
    for spec in specs {
        words.push(u64::MAX);
        words.extend(spec.config_words());
    }
    faults::fnv1a64(words)
}

/// A lifetime-scale monitoring campaign in flight.
#[derive(Debug, Clone)]
pub struct Campaign {
    specs: Vec<CampaignWallSpec>,
    options: CampaignOptions,
    states: Vec<StructureState>,
    grader: CampaignGrader,
    records: Vec<EpochRecord>,
    detections: Vec<DetectionEvent>,
}

impl Campaign {
    /// A fresh campaign over `specs` with every wall as built. Errors
    /// on degenerate options, an invalid scenario, or duplicate wall
    /// names (grading is keyed by name).
    #[must_use]
    pub fn new(specs: Vec<CampaignWallSpec>, options: CampaignOptions) -> EcoResult<Campaign> {
        options.validate()?;
        for spec in &specs {
            spec.scenario.validate()?;
        }
        let names: Vec<String> = specs.iter().map(|s| s.base.name.clone()).collect();
        let grader = CampaignGrader::new(options.grading, &names)?;
        let states = specs
            .iter()
            .map(|s| StructureState::pristine(s.base.standoffs_m.len()))
            .collect();
        Ok(Campaign {
            specs,
            options,
            states,
            grader,
            records: Vec::new(),
            detections: Vec::new(),
        })
    }

    /// Epochs completed so far.
    #[must_use]
    pub fn epochs_run(&self) -> u64 {
        self.records.len() as u64
    }

    /// True once the configured number of epochs has run.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.epochs_run() >= self.options.epochs
    }

    /// The evolving structure states, in spec order.
    #[must_use]
    pub fn states(&self) -> &[StructureState] {
        &self.states
    }

    /// The campaign wall specs, in spec order.
    #[must_use]
    pub fn specs(&self) -> &[CampaignWallSpec] {
        &self.specs
    }

    /// The grading front (checkpointing reads its per-wall state).
    #[must_use]
    pub fn grader(&self) -> &CampaignGrader {
        &self.grader
    }

    /// Epoch records completed so far.
    #[must_use]
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Detections fired so far.
    #[must_use]
    pub fn detections(&self) -> &[DetectionEvent] {
        &self.detections
    }

    /// The epoch's fleet specs: each wall's base spec under its evolved
    /// condition with its derived survey seed.
    fn epoch_specs(&self, epoch: u64) -> Vec<WallSpec> {
        self.specs
            .iter()
            .zip(&self.states)
            .enumerate()
            .map(|(i, (spec, state))| {
                spec.base
                    .clone()
                    .seed(survey_seed(
                        self.options.seed,
                        epoch,
                        i as u64,
                        spec.base.seed,
                    ))
                    .condition(state.condition())
            })
            .collect()
    }

    /// Runs one epoch: evolve every wall, survey the fleet, grade every
    /// wall. Errors if the campaign is already complete, or on a survey
    /// failure (a scenario that degrades a wall into an invalid link
    /// budget).
    #[must_use]
    pub fn run_epoch(&mut self) -> EcoResult<()> {
        if self.is_done() {
            return Err(EcoError::Protocol {
                what: "campaign already ran every epoch",
            });
        }
        let epoch = self.epochs_run();
        let day = epoch * self.options.days_per_epoch;
        for (i, (spec, state)) in self.specs.iter().zip(&mut self.states).enumerate() {
            state.step(
                &spec.scenario,
                evolve_seed(self.options.seed, epoch, i as u64),
            );
        }
        let fleet_report = self.options.fleet.run(self.epoch_specs(epoch))?;
        let mut walls = Vec::with_capacity(self.specs.len());
        for (spec, result) in self.specs.iter().zip(&fleet_report.walls) {
            let features = WallFeatures::of(result, spec.base.standoffs_m.len());
            let assessment = self.grader.observe(&result.name, epoch, &features)?;
            if let Some(feature) = assessment.fired {
                self.detections.push(DetectionEvent {
                    wall: result.name.clone(),
                    epoch,
                    day,
                    feature,
                    score: assessment.score,
                });
            }
            walls.push(WallEpoch {
                name: result.name.clone(),
                result_digest: result.digest(),
                features,
                score: assessment.score,
                grade: assessment.grade,
            });
        }
        self.records.push(EpochRecord {
            epoch,
            day,
            fleet_digest: fleet_report.digest(),
            walls,
        });
        Ok(())
    }

    /// Runs every remaining epoch and returns the report.
    #[must_use]
    pub fn run_to_completion(mut self) -> EcoResult<CampaignReport> {
        while !self.is_done() {
            self.run_epoch()?;
        }
        Ok(CampaignReport {
            epochs: self.options.epochs,
            days_per_epoch: self.options.days_per_epoch,
            records: self.records,
            detections: self.detections,
        })
    }

    /// The report of the epochs completed so far (clones — the campaign
    /// can keep running).
    #[must_use]
    pub fn partial_report(&self) -> CampaignReport {
        CampaignReport {
            epochs: self.options.epochs,
            days_per_epoch: self.options.days_per_epoch,
            records: self.records.clone(),
            detections: self.detections.clone(),
        }
    }

    /// Builds a campaign mid-flight from checkpointed state; used by
    /// [`crate::CampaignCheckpoint`] resume, which has already verified
    /// the config digest.
    pub(crate) fn restore(
        specs: Vec<CampaignWallSpec>,
        options: CampaignOptions,
        states: Vec<StructureState>,
        grader: CampaignGrader,
        records: Vec<EpochRecord>,
        detections: Vec<DetectionEvent>,
    ) -> Campaign {
        Campaign {
            specs,
            options,
            states,
            grader,
            records,
            detections,
        }
    }

    /// Read access to the options for checkpointing.
    #[must_use]
    pub fn options(&self) -> &CampaignOptions {
        &self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_specs() -> Vec<CampaignWallSpec> {
        vec![
            CampaignWallSpec::new(
                WallSpec::new("quiet", vec![0.5]).seed(3),
                DamageScenario::quiet(),
            ),
            CampaignWallSpec::new(
                WallSpec::new("bare", vec![]).seed(4),
                DamageScenario::frozen(),
            ),
        ]
    }

    fn tiny_options() -> CampaignOptions {
        CampaignOptions::new().epochs(3).seed(9)
    }

    #[test]
    fn campaigns_are_a_pure_function_of_config() {
        let a = tiny_options().run(tiny_specs()).unwrap();
        let b = tiny_options().run(tiny_specs()).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
        assert_eq!(a.records.len(), 3);
        assert_eq!(a.records[1].day, 30);
    }

    #[test]
    fn seeds_change_the_surveys_but_not_the_schedule() {
        let a = tiny_options().run(tiny_specs()).unwrap();
        let b = tiny_options().seed(10).run(tiny_specs()).unwrap();
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.records.len(), b.records.len());
    }

    #[test]
    fn epoch_and_wall_streams_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for epoch in 0..8 {
            for wall in 0..8 {
                assert!(seen.insert(evolve_seed(1, epoch, wall)));
                assert!(seen.insert(survey_seed(1, epoch, wall, 0)));
            }
        }
        assert_ne!(survey_seed(1, 0, 0, 5), survey_seed(1, 0, 0, 6));
    }

    #[test]
    fn running_past_the_end_is_an_error() {
        let mut campaign = Campaign::new(tiny_specs(), tiny_options()).unwrap();
        while !campaign.is_done() {
            campaign.run_epoch().unwrap();
        }
        assert!(campaign.run_epoch().is_err());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(Campaign::new(tiny_specs(), tiny_options().epochs(0)).is_err());
        assert!(Campaign::new(tiny_specs(), tiny_options().days_per_epoch(0)).is_err());
        assert!(tiny_options().build().is_ok());
        assert!(tiny_options().epochs(0).build().is_err());
        assert!(tiny_options()
            .fleet(FleetOptions::new().quantum_slots(0))
            .build()
            .is_err());
        let twin = vec![
            CampaignWallSpec::new(WallSpec::new("w", vec![]), DamageScenario::frozen()),
            CampaignWallSpec::new(WallSpec::new("w", vec![]), DamageScenario::frozen()),
        ];
        assert!(
            Campaign::new(twin, tiny_options()).is_err(),
            "duplicate names"
        );
        let invalid = vec![CampaignWallSpec::new(
            WallSpec::new("w", vec![]),
            DamageScenario::quiet().with_severity(-1.0),
        )];
        assert!(Campaign::new(invalid, tiny_options()).is_err());
    }

    #[test]
    fn config_digest_sees_schedule_walls_and_scenarios() {
        let specs = tiny_specs();
        let options = tiny_options();
        let d0 = config_digest(&specs, &options);
        assert_ne!(config_digest(&specs, &options.clone().epochs(4)), d0);
        assert_ne!(config_digest(&specs, &options.clone().seed(1)), d0);
        assert_ne!(
            config_digest(&specs, &options.clone().days_per_epoch(7)),
            d0
        );
        let mut reseeded = tiny_specs();
        reseeded[0].base.seed = 99;
        assert_ne!(config_digest(&reseeded, &options), d0);
        let mut rescripted = tiny_specs();
        rescripted[1].scenario = DamageScenario::crack_onset(1);
        assert_ne!(config_digest(&rescripted, &options), d0);
        assert_ne!(config_digest(&specs[..1].to_vec(), &options), d0);
    }
}
