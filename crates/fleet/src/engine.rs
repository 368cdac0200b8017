//! The fleet engine: drives the scheduler round by round, shards due
//! walls across the pool, and assembles the [`FleetReport`].

use dsp::{EcoError, EcoResult};
use exec::Pool;

use crate::checkpoint::{FleetCheckpoint, WallEntry};
use crate::report::{FleetReport, WallResult};
use crate::scheduler::{Scheduler, SlotBudget};
use crate::spec::WallSpec;

/// Fleet run configuration, mirroring
/// [`ecocapsule::scenario::SurveyOptions`] one layer up: a pool to shard
/// wall surveys across and the scheduler's slot budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOptions {
    /// Pool the due walls of each round are sharded across. The digest
    /// is worker-count-invariant; the wall clock is not.
    pub pool: Pool,
    /// Slot budget and fairness knobs for the scheduler.
    pub budget: SlotBudget,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            pool: Pool::serial(),
            budget: SlotBudget::default(),
        }
    }
}

impl FleetOptions {
    /// Serial pool, default budget.
    #[must_use]
    pub fn new() -> Self {
        FleetOptions::default()
    }

    /// Replaces the pool.
    #[must_use]
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Replaces the per-wall slot quantum.
    #[must_use]
    pub fn quantum_slots(mut self, quantum_slots: u64) -> Self {
        self.budget.quantum_slots = quantum_slots;
        self
    }

    /// Replaces the per-round slot budget.
    #[must_use]
    pub fn round_budget_slots(mut self, round_budget_slots: u64) -> Self {
        self.budget.round_budget_slots = round_budget_slots;
        self
    }

    /// Replaces the aging threshold.
    #[must_use]
    pub fn aging_rounds(mut self, aging_rounds: u32) -> Self {
        self.budget.aging_rounds = aging_rounds;
        self
    }

    /// Checks the options describe a non-degenerate run (every slot
    /// budget knob at least one).
    #[must_use]
    pub fn validate(&self) -> EcoResult<()> {
        self.budget.validate()
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

    /// Runs `specs` to completion under these options — the one-call
    /// entry point, mirroring `SurveyOptions::run` one layer up.
    #[must_use]
    pub fn run(&self, specs: Vec<WallSpec>) -> EcoResult<FleetReport> {
        self.validate()?;
        Fleet::new(specs, self).run_to_completion()
    }
}

/// A fleet run in progress: the specs, the scheduler, and the results
/// collected so far. Step it with [`Fleet::run_round`], snapshot it with
/// [`Fleet::checkpoint`], or drive it to the end with
/// [`Fleet::run_to_completion`].
#[derive(Debug)]
pub struct Fleet {
    specs: Vec<WallSpec>,
    pool: Pool,
    scheduler: Scheduler,
    results: Vec<Option<WallResult>>,
}

impl Fleet {
    /// A fresh fleet over `specs` with everything pending.
    #[must_use]
    pub fn new(specs: Vec<WallSpec>, options: &FleetOptions) -> Self {
        let demands: Vec<u64> = specs.iter().map(WallSpec::slot_demand).collect();
        let results = vec![None; specs.len()];
        Fleet {
            specs,
            pool: options.pool,
            scheduler: Scheduler::new(&demands, options.budget),
            results,
        }
    }

    /// True once every wall has completed its survey.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.scheduler.is_done() && self.results.iter().all(Option::is_some)
    }

    /// Scheduling rounds executed so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.scheduler.round()
    }

    /// The scheduler (its grant log is what the fairness properties
    /// audit).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Executes one scheduling round: grants slots, then surveys every
    /// wall that became due, sharded across the pool. Returns how many
    /// walls completed this round (0 is normal mid-run — a round may
    /// only accumulate credit).
    #[must_use]
    pub fn run_round(&mut self) -> EcoResult<usize> {
        let due = self.scheduler.plan_round();
        if due.is_empty() {
            return Ok(0);
        }
        let round = self.scheduler.round();
        let surveyed = self
            .pool
            .par_map(&due, |_, &wall| self.specs[wall].survey());
        for (&wall, outcome) in due.iter().zip(surveyed) {
            let (report, rec) = outcome?;
            let spec = &self.specs[wall];
            self.results[wall] = Some(WallResult {
                name: spec.name.clone(),
                round_completed: round,
                granted_slots: self.scheduler.granted_slots(wall),
                report,
                counters: rec
                    .counter_totals()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
                histograms: rec
                    .histograms()
                    .map(|(k, h)| (k.to_string(), h.clone()))
                    .collect(),
                trace_jsonl: rec.to_jsonl(),
            });
        }
        Ok(due.len())
    }

    /// Drives the fleet until every wall has completed, then assembles
    /// the report (walls in spec order).
    #[must_use]
    pub fn run_to_completion(mut self) -> EcoResult<FleetReport> {
        while !self.scheduler.is_done() {
            self.run_round()?;
        }
        let walls = self
            .results
            .into_iter()
            .map(|r| {
                r.ok_or(EcoError::Protocol {
                    what: "fleet scheduler finished with an unsurveyed wall",
                })
            })
            .collect::<EcoResult<Vec<WallResult>>>()?;
        Ok(FleetReport {
            walls,
            rounds: self.scheduler.round(),
        })
    }

    /// Snapshots the run at the current round boundary.
    #[must_use]
    pub fn checkpoint(&self) -> EcoResult<FleetCheckpoint> {
        let walls = self
            .results
            .iter()
            .enumerate()
            .map(|(i, r)| match r {
                Some(result) => Ok(WallEntry::Done(result.clone())),
                None => {
                    let (credit_slots, age_rounds, done) =
                        self.scheduler.wall_state(i).ok_or(EcoError::Protocol {
                            what: "fleet scheduler lost a wall",
                        })?;
                    if done {
                        return Err(EcoError::Protocol {
                            what: "fleet checkpoint taken mid-round",
                        });
                    }
                    Ok(WallEntry::Pending {
                        credit_slots,
                        age_rounds,
                    })
                }
            })
            .collect::<EcoResult<Vec<WallEntry>>>()?;
        Ok(FleetCheckpoint {
            config_digest: config_digest(&self.specs, self.scheduler.budget()),
            round: self.scheduler.round(),
            walls,
            queue: self.scheduler.queue().collect(),
            grants: self.scheduler.grants().to_vec(),
        })
    }

    /// Rebuilds a fleet from a checkpoint. The offered `specs` and
    /// `options.budget` must digest-match the configuration the
    /// checkpoint was taken under; `options.pool` is free to differ (the
    /// digest is worker-count-invariant).
    #[must_use]
    pub fn resume(
        specs: Vec<WallSpec>,
        options: &FleetOptions,
        checkpoint: &FleetCheckpoint,
    ) -> EcoResult<Fleet> {
        if checkpoint.walls.len() != specs.len() {
            return Err(EcoError::Protocol {
                what: "fleet checkpoint wall count mismatch",
            });
        }
        if checkpoint.config_digest != config_digest(&specs, &options.budget) {
            return Err(EcoError::Protocol {
                what: "fleet checkpoint config digest mismatch",
            });
        }
        let demands: Vec<u64> = specs.iter().map(WallSpec::slot_demand).collect();
        let mut states = Vec::with_capacity(specs.len());
        let mut results = Vec::with_capacity(specs.len());
        for wall in &checkpoint.walls {
            match wall {
                WallEntry::Pending {
                    credit_slots,
                    age_rounds,
                } => {
                    states.push((*credit_slots, *age_rounds, false));
                    results.push(None);
                }
                WallEntry::Done(result) => {
                    states.push((result.granted_slots, 0, true));
                    results.push(Some(result.clone()));
                }
            }
        }
        Ok(Fleet {
            specs,
            pool: options.pool,
            scheduler: Scheduler::restore(
                &demands,
                options.budget,
                &states,
                checkpoint.queue.clone(),
                checkpoint.round,
                checkpoint.grants.clone(),
            ),
            results,
        })
    }
}

/// Digest pinning the static fleet configuration: every spec's
/// [`WallSpec`] fields plus the slot budget, `u64::MAX`-separated.
fn config_digest(specs: &[WallSpec], budget: &SlotBudget) -> u64 {
    let mut words = vec![specs.len() as u64];
    for spec in specs {
        words.push(u64::MAX);
        words.extend(spec.config_words());
    }
    words.push(u64::MAX);
    words.extend(budget.config_words());
    faults::fnv1a64(words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{FaultIntensity, FaultPlan};

    /// `n` zero-capsule walls with varied seeds/postures: surveys are
    /// near-free, so scheduler/checkpoint mechanics can be exercised
    /// densely. Real survey content rides in [`live_specs`].
    fn bare_specs(n: usize) -> Vec<WallSpec> {
        (0..n)
            .map(|i| {
                let spec = WallSpec::new(format!("bare-{i}"), vec![]).seed(1000 + i as u64);
                if i % 2 == 1 {
                    spec.fault_plan(FaultPlan::generate(i as u64, &FaultIntensity::mild(200)))
                } else {
                    spec
                }
            })
            .collect()
    }

    /// A small heterogeneous fleet with real capsules: one quiet wall,
    /// one faulted wall, three zero-capsule walls.
    fn live_specs() -> Vec<WallSpec> {
        let mut specs = bare_specs(3);
        specs.push(WallSpec::new("live", vec![0.5]).seed(7));
        specs.push(
            WallSpec::new("noisy", vec![0.5])
                .seed(8)
                .fault_plan(FaultPlan::generate(3, &FaultIntensity::mild(200))),
        );
        specs
    }

    #[test]
    fn serial_and_parallel_runs_are_digest_identical() {
        let serial = FleetOptions::new().run(live_specs()).unwrap();
        let parallel = FleetOptions::new()
            .pool(Pool::new(4))
            .run(live_specs())
            .unwrap();
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(
            serial.merged_trace_jsonl(),
            parallel.merged_trace_jsonl(),
            "traces are byte-identical, not just digest-identical"
        );
        assert_eq!(serial.walls.len(), 5);
        assert!(serial.rounds > 0);
        let live = serial.walls.iter().find(|w| w.name == "live").unwrap();
        assert!(!live.report.readings.is_empty(), "live wall really read");
    }

    #[test]
    fn results_come_back_in_spec_order() {
        // Wall 0 is larger and finishes later; spec order must hold
        // anyway.
        let specs = vec![
            WallSpec::new("big", vec![0.5]).seed(1),
            WallSpec::new("small", vec![]).seed(2),
        ];
        let report = FleetOptions::new().quantum_slots(8).run(specs).unwrap();
        assert_eq!(report.walls[0].name, "big");
        assert_eq!(report.walls[1].name, "small");
        assert!(report.walls[0].round_completed > report.walls[1].round_completed);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        // Tight budget over eight bare walls: completion spreads across
        // many rounds, so every split lands at a distinct frontier.
        let options = FleetOptions::new().quantum_slots(3).round_budget_slots(7);
        let baseline = options.run(bare_specs(8)).unwrap();
        assert!(baseline.rounds > 3, "budget too loose to test splits");

        for split in [0, 1, 2, baseline.rounds] {
            let mut fleet = Fleet::new(bare_specs(8), &options);
            for _ in 0..split {
                if !fleet.is_done() {
                    fleet.run_round().unwrap();
                }
            }
            let bytes = fleet.checkpoint().unwrap().to_bytes();
            let checkpoint = FleetCheckpoint::from_bytes(&bytes).unwrap();
            let resumed = Fleet::resume(bare_specs(8), &options, &checkpoint)
                .unwrap()
                .run_to_completion()
                .unwrap();
            assert_eq!(
                resumed.digest(),
                baseline.digest(),
                "split at round {split}"
            );
            assert_eq!(resumed.rounds, baseline.rounds);
        }
    }

    #[test]
    fn resume_rejects_a_mismatched_config() {
        let options = FleetOptions::new();
        let fleet = Fleet::new(bare_specs(3), &options);
        let checkpoint = fleet.checkpoint().unwrap();

        let mut tampered = bare_specs(3);
        tampered[0].seed += 1;
        assert!(Fleet::resume(tampered, &options, &checkpoint).is_err());

        let fewer = bare_specs(2);
        assert!(Fleet::resume(fewer, &options, &checkpoint).is_err());

        let wrong_budget = FleetOptions::new().quantum_slots(999);
        assert!(Fleet::resume(bare_specs(3), &wrong_budget, &checkpoint).is_err());
    }

    #[test]
    fn empty_fleet_completes_immediately() {
        let report = FleetOptions::new().run(Vec::new()).unwrap();
        assert!(report.walls.is_empty());
        assert_eq!(report.rounds, 0);
        assert_ne!(report.digest(), 0);
    }

    #[test]
    fn build_rejects_degenerate_budgets_and_run_refuses_them() {
        assert!(FleetOptions::new().build().is_ok());
        assert!(FleetOptions::new().quantum_slots(0).build().is_err());
        assert!(FleetOptions::new().round_budget_slots(0).build().is_err());
        assert!(FleetOptions::new().aging_rounds(0).build().is_err());
        assert!(FleetOptions::new()
            .quantum_slots(0)
            .run(bare_specs(1))
            .is_err());
    }
}
