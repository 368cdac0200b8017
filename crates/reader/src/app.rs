//! The reader application: waveform-level transactions against simulated
//! EcoCapsules.
//!
//! Every exchange round-trips through the real signal path — command →
//! PIE/FSK waveform → node envelope detector → protocol engine →
//! FM0 backscatter waveform (with CBW self-interference and noise) →
//! carrier estimation → ML decoding — so protocol-level results inherit
//! every PHY imperfection.

use crate::rx::{Capture, Receiver, RxError};
use crate::tx::Transmitter;
use channel::uplink::{faulted_noise_sigma, synthesize_uplink_with, UplinkConfig};
use dsp::batch::Engine;
use node::capsule::{EcoCapsule, Environment};
use obs::{Recorder, SlotClock};
use protocol::frame::{Command, Reply, SensorKind};
use rand::Rng;

/// Downlink waveforms are pure functions of (PIE segments, FSK scheme,
/// carrier, sample rate); a survey re-broadcasts the same handful of
/// commands (Query, QueryRep, Ack, ReadSensor) to every capsule and
/// every retry slot, so the batched engine memoizes the post-suppression
/// waveform on the exact parameter bits. 32 entries comfortably covers
/// the command vocabulary; distinct RN16s in Ack keys miss and are
/// computed uncached beyond the cap.
static DOWNLINK_WAVES: dsp::batch::WaveMemo = dsp::batch::WaveMemo::new(32);

/// A reader session against one or more in-concrete capsules.
///
/// A session is a *configuration* value, not a connection: its methods
/// take `&self` and thread all randomness through caller-supplied RNGs.
/// That makes one session safely shareable across the `exec::Pool`
/// workers of a parallel survey (`SurveyOptions::pool`), where
/// every worker transacts against its own capsule clone with a seed
/// derived from the capsule id.
#[derive(Debug, Clone)]
pub struct ReaderSession {
    /// Transmit chain.
    pub tx: Transmitter,
    /// Receive chain.
    pub rx: Receiver,
    /// Uplink channel parameters.
    pub uplink: UplinkConfig,
    /// TX drive voltage (V).
    pub tx_voltage_v: f64,
    /// Uplink bitrate (bps).
    pub uplink_bitrate: f64,
    /// RX noise sigma (V) added to captures.
    pub noise_sigma: f64,
    /// Hot-path engine for waveform synthesis and decoding. Batched by
    /// default; results are bit-identical under either engine (DESIGN.md
    /// §8), so this only selects how fast transactions run.
    pub engine: Engine,
}

impl ReaderSession {
    /// A paper-default session: 100 V drive, 1 kbps uplink, light noise.
    pub fn paper_default() -> Self {
        let fs = 1.0e6;
        ReaderSession {
            tx: Transmitter::paper_default(fs),
            rx: Receiver::new(1000.0),
            uplink: UplinkConfig {
                delay_s: 0.0,
                ..UplinkConfig::paper_default()
            },
            tx_voltage_v: 100.0,
            uplink_bitrate: 1000.0,
            noise_sigma: 0.002,
            engine: Engine::default(),
        }
    }

    /// Synthesizes the post-concrete downlink waveform for `segments`:
    /// phase-continuous FSK drive synthesis followed by the ≈4:1
    /// off-resonance suppression of low edges.
    fn synthesize_downlink(&self, segments: &[phy::pie::Segment]) -> Vec<f64> {
        let mut wave = phy::modulation::synthesize_drive(
            segments,
            phy::modulation::DownlinkScheme::FskInOokOut {
                off_hz: self.tx.off_hz,
            },
            self.tx.carrier_hz,
            self.tx.fs_hz,
        );
        // Concrete off-resonance suppression of low edges (≈4:1).
        let mut idx = 0usize;
        for seg in segments {
            let n = (seg.duration_s * self.tx.fs_hz).round() as usize;
            for _ in 0..n {
                if !seg.high && idx < wave.len() {
                    wave[idx] *= 0.25;
                }
                idx += 1;
            }
        }
        wave
    }

    /// One full command/reply transaction against `capsule`:
    /// 1. the command waveform is synthesized and "transmitted",
    /// 2. the capsule demodulates and executes it,
    /// 3. if it replies, the backscatter waveform is synthesized with
    ///    self-interference and noise and decoded by the RX chain.
    ///
    /// Returns `Ok(None)` when the node (correctly) stays silent.
    #[must_use]
    pub fn transact<R: Rng>(
        &self,
        capsule: &mut EcoCapsule,
        cmd: &Command,
        env: &Environment,
        rng: &mut R,
    ) -> Result<Option<Reply>, RxError> {
        self.transact_perturbed(capsule, cmd, env, &faults::Perturbation::none(), rng)
    }

    /// [`ReaderSession::transact`] under an injected fault state. A
    /// brownout (`p.outage`) suppresses the exchange entirely — the node
    /// has no charge to listen with, but its protocol state survives on
    /// the storage capacitor, so a later retry can still reach it. The
    /// other perturbation axes reshape the channel: clock drift skews the
    /// node's PIE timer, a velocity shift rescales the propagation delay,
    /// a multipath burst multiplies the CBW leak, and an SNR dip scales
    /// the capture noise.
    ///
    /// With [`faults::Perturbation::none`] this is bit-identical to the
    /// unfaulted path (all hooks are exact multiplications by 1.0 /
    /// additions of 0.0), which is what lets `transact` delegate here.
    #[must_use]
    pub fn transact_perturbed<R: Rng>(
        &self,
        capsule: &mut EcoCapsule,
        cmd: &Command,
        env: &Environment,
        p: &faults::Perturbation,
        rng: &mut R,
    ) -> Result<Option<Reply>, RxError> {
        if p.outage {
            return Ok(None);
        }
        capsule.apply_fault(p);
        // Downlink. The node-side demodulation operates on the ideal
        // post-concrete waveform: FSK low edges arrive suppressed. The
        // batched engine memoizes the waveform on its exact parameter
        // bits (a survey repeats the same commands per capsule/slot);
        // the scalar engine synthesizes every time. Same bits either way.
        let segments = self.tx.pie.encode(&cmd.encode());
        let wave = if self.engine.is_batched() {
            let mut key = Vec::with_capacity(3 + 2 * segments.len());
            key.push(self.tx.carrier_hz.to_bits());
            key.push(self.tx.fs_hz.to_bits());
            key.push(self.tx.off_hz.to_bits());
            for seg in &segments {
                key.push(seg.duration_s.to_bits());
                key.push(u64::from(seg.high));
            }
            DOWNLINK_WAVES.get_or_compute(&key, || self.synthesize_downlink(&segments))
        } else {
            std::sync::Arc::new(self.synthesize_downlink(&segments))
        };
        let decoded_cmd = capsule.demodulate_downlink(&wave, self.tx.fs_hz);
        let Some(decoded_cmd) = decoded_cmd else {
            return Ok(None);
        };
        let Some(reply) = capsule.execute(&decoded_cmd, env, rng) else {
            return Ok(None);
        };

        // Uplink, through the faulted channel.
        let bits = capsule.backscatter_bits(&reply);
        let (samples, _) = synthesize_uplink_with(
            &self.uplink.under_fault(p),
            &bits,
            self.uplink_bitrate,
            1e-3,
            faulted_noise_sigma(self.noise_sigma, p),
            rng,
            self.engine,
        );
        let capture = Capture {
            samples,
            fs_hz: self.uplink.fs_hz,
        };
        self.rx.decode_reply_with(&capture, self.engine).map(Some)
    }

    /// Inventories `capsules` with waveform-level rounds: Query/QueryRep
    /// slots, singleton ACKs, collision slots discarded. Returns IDs in
    /// discovery order.
    pub fn inventory<R: Rng>(
        &self,
        capsules: &mut [EcoCapsule],
        env: &Environment,
        q: u8,
        max_rounds: usize,
        rng: &mut R,
    ) -> Vec<u32> {
        let mut clock = SlotClock::new(0);
        self.inventory_observed(
            capsules,
            env,
            q,
            max_rounds,
            &mut clock,
            &mut obs::NullRecorder,
            rng,
        )
    }

    /// [`ReaderSession::inventory`] with observability: each arbitration
    /// slot ticks the caller's virtual [`SlotClock`], and round spans,
    /// idle/collision slot counts, and identified/lost-ACK counters are
    /// reported to `rec`. RNG use is bit-identical to the unobserved
    /// path — recording draws nothing.
    pub fn inventory_observed<R: Rng>(
        &self,
        capsules: &mut [EcoCapsule],
        env: &Environment,
        q: u8,
        max_rounds: usize,
        clock: &mut SlotClock,
        rec: &mut dyn Recorder,
        rng: &mut R,
    ) -> Vec<u32> {
        let mut found: Vec<u32> = Vec::new();
        for round_idx in 0..max_rounds {
            rec.span_open("inventory.round", round_idx as u32, clock.now());
            rec.observe("inventory.q", u64::from(q), clock.now());
            let slots = 1u32 << q;
            for slot in 0..slots {
                let cmd = if slot == 0 {
                    Command::Query { q, session: 0 }
                } else {
                    Command::QueryRep
                };
                let slot_stamp = clock.tick();
                // Each capsule hears the command; collect who would reply.
                let mut responders: Vec<(usize, u16)> = Vec::new();
                for (i, c) in capsules.iter_mut().enumerate() {
                    if !c.is_operational() {
                        continue;
                    }
                    if let Some(Reply::Rn16 { rn16 }) = c.execute(&cmd, env, rng) {
                        responders.push((i, rn16));
                    }
                }
                if responders.len() != 1 {
                    // Empty or collision slot: unresolvable replies are
                    // dropped; colliding nodes back off on the next ACK.
                    if responders.len() > 1 {
                        rec.count("inventory.collision_slots", 1, slot_stamp);
                        for (i, _) in &responders {
                            let _ = capsules[*i].execute(&Command::Ack { rn16: 0 }, env, rng);
                        }
                    } else {
                        rec.count("inventory.idle_slots", 1, slot_stamp);
                    }
                    continue;
                }
                let (idx, rn16) = responders[0];
                // Waveform-level ACK → NodeId reply; one more slot.
                let ack_slot = clock.tick();
                rec.span_open("txn.ack", capsules[idx].id, ack_slot);
                if let Ok(Some(Reply::NodeId { id })) =
                    self.transact(&mut capsules[idx], &Command::Ack { rn16 }, env, rng)
                {
                    if !found.contains(&id) {
                        found.push(id);
                    }
                    rec.count("inventory.identified", 1, ack_slot);
                } else {
                    rec.count("inventory.lost_acks", 1, ack_slot);
                }
                rec.span_close("txn.ack", capsules[idx].id, clock.now());
            }
            rec.span_close("inventory.round", round_idx as u32, clock.now());
            if found.len() == capsules.len() {
                break;
            }
        }
        found
    }

    /// Re-opens the read session on a capsule that inventory identified
    /// but left outside `Acknowledged`. A node ACKed in an early round
    /// is re-arbitrated by every later round's Query — if it then drew a
    /// late slot or collided, it ends the inventory in `Arbitrate` or
    /// `Ready`, and [`ReaderSession::read_sensor`] would meet silence.
    /// This issues targeted `Query { q: 0 }` / `Ack` exchanges (q = 0
    /// means one slot, so the lone addressee always replies) until the
    /// node serves reads again, up to `max_attempts` exchanges.
    ///
    /// A no-op (zero RNG draws) when the session is already open, so
    /// calling it unconditionally before reads cannot change the result
    /// of a survey that never displaced anyone. Returns whether the
    /// session is open.
    pub fn ensure_session<R: Rng>(
        &self,
        capsule: &mut EcoCapsule,
        env: &Environment,
        max_attempts: u32,
        rng: &mut R,
    ) -> bool {
        let mut clock = SlotClock::new(0);
        self.ensure_session_observed(
            capsule,
            env,
            max_attempts,
            &mut clock,
            &mut obs::NullRecorder,
            rng,
        )
    }

    /// [`ReaderSession::ensure_session`] with observability: each
    /// Query/Ack exchange ticks the caller's [`SlotClock`] under a
    /// `txn.acquire` span. Records nothing (and draws no RNG) when the
    /// session is already open.
    pub fn ensure_session_observed<R: Rng>(
        &self,
        capsule: &mut EcoCapsule,
        env: &Environment,
        max_attempts: u32,
        clock: &mut SlotClock,
        rec: &mut dyn Recorder,
        rng: &mut R,
    ) -> bool {
        use protocol::inventory::NodeState;
        if capsule.protocol.state == NodeState::Acknowledged {
            return true;
        }
        rec.span_open("txn.acquire", capsule.id, clock.now());
        for _ in 0..max_attempts {
            clock.tick();
            if let Ok(Some(Reply::Rn16 { rn16 })) =
                self.transact(capsule, &Command::Query { q: 0, session: 0 }, env, rng)
            {
                clock.tick();
                let _ = self.transact(capsule, &Command::Ack { rn16 }, env, rng);
            }
            if capsule.protocol.state == NodeState::Acknowledged {
                rec.count("session.reacquired", 1, clock.now());
                rec.span_close("txn.acquire", capsule.id, clock.now());
                return true;
            }
        }
        rec.count("retry.exhausted", 1, clock.now());
        rec.span_close("txn.acquire", capsule.id, clock.now());
        false
    }

    /// Reads one sensor from an acknowledged capsule, returning the
    /// decoded physical value.
    #[must_use]
    pub fn read_sensor<R: Rng>(
        &self,
        capsule: &mut EcoCapsule,
        kind: SensorKind,
        env: &Environment,
        rng: &mut R,
    ) -> Result<Option<f64>, RxError> {
        let reply = self.transact(capsule, &Command::ReadSensor { kind }, env, rng)?;
        Ok(reply.and_then(|r| match r {
            Reply::SensorData { kind, raw } => Some(decode_physical(kind, raw, capsule, env)),
            _ => None,
        }))
    }

    /// [`ReaderSession::read_sensor`] with observability: the read
    /// consumes one virtual slot under a `txn.read` span, and delivery /
    /// silence / decode failure are counted.
    #[must_use]
    pub fn read_sensor_observed<R: Rng>(
        &self,
        capsule: &mut EcoCapsule,
        kind: SensorKind,
        env: &Environment,
        clock: &mut SlotClock,
        rec: &mut dyn Recorder,
        rng: &mut R,
    ) -> Result<Option<f64>, RxError> {
        let slot = clock.tick();
        rec.span_open("txn.read", capsule.id, slot);
        let out = self.read_sensor(capsule, kind, env, rng);
        match &out {
            Ok(Some(_)) => rec.count("read.delivered", 1, slot),
            Ok(None) => rec.count("read.silent", 1, slot),
            Err(_) => rec.count("read.decode_errors", 1, slot),
        }
        rec.span_close("txn.read", capsule.id, clock.now());
        out
    }
}

/// Decodes a raw sensor word into physical units.
pub fn decode_physical(kind: SensorKind, raw: u16, capsule: &EcoCapsule, env: &Environment) -> f64 {
    use node::sensors::Aht10;
    match kind {
        SensorKind::Temperature => Aht10::decode_temperature(raw),
        SensorKind::Humidity => Aht10::decode_humidity(raw),
        SensorKind::Strain => capsule.strain_gauge.decode(raw),
        SensorKind::Acceleration => capsule.accelerometer.decode(raw),
        SensorKind::Stress => {
            let strain = capsule.strain_gauge.decode(raw);
            capsule.strain_gauge.stress_pa(strain, env.concrete_e_pa) / 1e6 // MPa
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn powered(id: u32) -> EcoCapsule {
        let mut c = EcoCapsule::new(id);
        c.harvest(2.0, 0.1);
        c
    }

    #[test]
    fn end_to_end_ack_transaction() {
        let session = ReaderSession::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let env = Environment::default();
        let mut capsule = powered(0xAB);
        // Query until the capsule picks slot 0.
        let rn16 = loop {
            match session
                .transact(
                    &mut capsule,
                    &Command::Query { q: 0, session: 0 },
                    &env,
                    &mut rng,
                )
                .unwrap()
            {
                Some(Reply::Rn16 { rn16 }) => break rn16,
                _ => continue,
            }
        };
        let id = session
            .transact(&mut capsule, &Command::Ack { rn16 }, &env, &mut rng)
            .unwrap();
        assert_eq!(id, Some(Reply::NodeId { id: 0xAB }));
    }

    #[test]
    fn end_to_end_sensor_read() {
        let session = ReaderSession::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        let env = Environment {
            temperature_c: 28.5,
            ..Environment::default()
        };
        let mut capsule = powered(5);
        // Acknowledge first.
        let rn16 = loop {
            if let Some(Reply::Rn16 { rn16 }) = session
                .transact(
                    &mut capsule,
                    &Command::Query { q: 0, session: 0 },
                    &env,
                    &mut rng,
                )
                .unwrap()
            {
                break rn16;
            }
        };
        session
            .transact(&mut capsule, &Command::Ack { rn16 }, &env, &mut rng)
            .unwrap();
        let t = session
            .read_sensor(&mut capsule, SensorKind::Temperature, &env, &mut rng)
            .unwrap()
            .expect("acknowledged node answers reads");
        assert!((t - 28.5).abs() < 0.05, "read {t} °C");
    }

    #[test]
    fn ensure_session_recovers_reads_after_a_displacing_query() {
        use protocol::inventory::NodeState;
        let session = ReaderSession::paper_default();
        let mut rng = StdRng::seed_from_u64(6);
        let env = Environment::default();
        let mut capsule = powered(0xCD);
        assert!(session.ensure_session(&mut capsule, &env, 3, &mut rng));
        assert_eq!(capsule.protocol.state, NodeState::Acknowledged);
        // A fresh Query — the start of another inventory round —
        // re-arbitrates the node out of its open session.
        let _ = capsule.execute(&Command::Query { q: 3, session: 0 }, &env, &mut rng);
        assert_ne!(capsule.protocol.state, NodeState::Acknowledged);
        assert!(session.ensure_session(&mut capsule, &env, 3, &mut rng));
        let value = session
            .read_sensor(&mut capsule, SensorKind::Temperature, &env, &mut rng)
            .unwrap();
        assert!(value.is_some(), "the reopened session serves reads");
    }

    #[test]
    fn engines_transact_bit_identically() {
        use rand::Rng as _;
        let mut scalar_session = ReaderSession::paper_default();
        scalar_session.engine = Engine::Scalar;
        let batched_session = ReaderSession::paper_default();
        assert!(
            batched_session.engine.is_batched(),
            "batched is the default"
        );
        let env = Environment::default();
        for seed in [1u64, 2, 9] {
            let mut ca = powered(0x42);
            let mut cb = powered(0x42);
            let mut ra = StdRng::seed_from_u64(seed);
            let mut rb = StdRng::seed_from_u64(seed);
            // Drive the same command schedule through both engines: the
            // replies and the RNG stream positions must stay in lockstep.
            let schedule = [
                Command::Query { q: 0, session: 0 },
                Command::Query { q: 0, session: 0 },
                Command::ReadSensor {
                    kind: SensorKind::Temperature,
                },
            ];
            for cmd in &schedule {
                let a = scalar_session.transact(&mut ca, cmd, &env, &mut ra);
                let b = batched_session.transact(&mut cb, cmd, &env, &mut rb);
                assert_eq!(a, b, "seed {seed}, cmd {cmd:?}");
                if let Ok(Some(Reply::Rn16 { rn16 })) = a {
                    let a2 =
                        scalar_session.transact(&mut ca, &Command::Ack { rn16 }, &env, &mut ra);
                    let b2 =
                        batched_session.transact(&mut cb, &Command::Ack { rn16 }, &env, &mut rb);
                    assert_eq!(a2, b2, "seed {seed}, ack");
                }
            }
            let na: u64 = ra.gen();
            let nb: u64 = rb.gen();
            assert_eq!(na, nb, "rng stream diverged at seed {seed}");
        }
    }

    #[test]
    fn dead_capsule_stays_silent() {
        let session = ReaderSession::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let env = Environment::default();
        let mut capsule = EcoCapsule::new(9); // never harvested
        let out = session
            .transact(
                &mut capsule,
                &Command::Query { q: 0, session: 0 },
                &env,
                &mut rng,
            )
            .unwrap();
        assert_eq!(out, None);
    }

    #[test]
    fn waveform_level_inventory_finds_all() {
        let session = ReaderSession::paper_default();
        let mut rng = StdRng::seed_from_u64(4);
        let env = Environment::default();
        let mut capsules: Vec<EcoCapsule> = (0..3).map(|i| powered(100 + i)).collect();
        let found = session.inventory(&mut capsules, &env, 2, 30, &mut rng);
        let mut sorted = found.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![100, 101, 102]);
    }
}
