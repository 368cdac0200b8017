//! # ecocapsule
//!
//! A full-system reproduction of *Empowering Smart Buildings with
//! Self-Sensing Concrete for Structural Health Monitoring* (SIGCOMM'22):
//! battery-free piezoelectric backscatter nodes ("EcoCapsules") mixed
//! into concrete, charged and read through elastic waves.
//!
//! This facade crate re-exports every layer and adds end-to-end
//! [`scenario`] builders:
//!
//! ```
//! use ecocapsule::scenario::{SelfSensingWall, SurveyOptions};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // A 20 cm NC wall with three capsules at 0.5/1.0/1.5 m from the reader.
//! let mut wall = SelfSensingWall::common_wall(&[0.5, 1.0, 1.5]);
//! let report = SurveyOptions::new()
//!     .tx_voltage(200.0)
//!     .run(&mut wall, &mut rng)
//!     .expect("valid survey");
//! assert_eq!(report.powered_ids.len(), 3);
//! ```
//!
//! Layer map (bottom-up): [`dsp`] → [`elastic`] → [`concrete`], [`phy`]
//! → [`channel`], [`node`], [`protocol`] → [`reader`], [`baselines`] →
//! [`shm`] → here. The side-car [`exec`] crate supplies the deterministic
//! worker pool that [`scenario::SurveyOptions::pool`] and the bench
//! sweep grids fan out on, and the zero-dependency [`obs`] crate
//! supplies the event-stream observability layer every survey can
//! record into ([`scenario::SurveyOptions::recorder`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use baselines;
pub use channel;
pub use concrete;
pub use dsp;
pub use elastic;
pub use exec;
pub use faults;
pub use node;
pub use obs;
pub use phy;
pub use protocol;
pub use reader;
pub use shm;

// The shared workspace error type. It is defined in `dsp` (the root of
// the crate graph, so every layer can return it) and re-exported here
// as the canonical public name.
pub use dsp::{EcoError, EcoResult};

pub mod scenario;

/// Convenience re-exports of the types most applications touch.
pub mod prelude {
    pub use crate::scenario::{
        CapsuleOutcome, SelfSensingWall, SurveyOptions, SurveyReport, WallCondition,
    };
    pub use channel::linkbudget::LinkBudget;
    pub use concrete::{ConcreteGrade, Structure};
    pub use dsp::batch::Engine;
    pub use exec::Pool;
    pub use faults::{FaultIntensity, FaultPlan, Timeline};
    pub use node::capsule::{EcoCapsule, Environment};
    pub use obs::{Event, ExportRecorder, MemoryRecorder, NullRecorder, Recorder, SlotClock};
    pub use protocol::frame::SensorKind;
    pub use reader::app::ReaderSession;
    pub use reader::robust::{RetryPolicy, RobustConfig};
    pub use shm::footbridge::Footbridge;
    pub use shm::health::{HealthLevel, Region};
    pub use shm::pilot::{Channel, PilotStudy};
}
