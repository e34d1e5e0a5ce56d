//! Deterministic storage fault injection: [`FaultBackend`] wraps any real
//! [`PageBackend`] and injects failures from a seeded schedule.
//!
//! The schedule is a pure function of the explicit [`FaultSpec::seed`] and a
//! per-operation counter — never a clock, never OS randomness — so a faulty
//! run is exactly reproducible and, because every injected transient fault
//! is retried successfully by the store, *byte-identical in its results* to
//! the clean run. That property is what the `fault_storm` bench experiment
//! hard-asserts.
//!
//! Injected faults by profile:
//!
//! * [`FaultProfile::Transient`] — before delegating to the inner backend,
//!   an operation may fail with a transient [`PageIoError`] (a flaky read,
//!   or a short write that moved nothing). No bytes are accounted and the
//!   inner backend is untouched, so the store's one retry performs the one
//!   real transfer and every byte-level invariant survives. The schedule
//!   never injects two consecutive faults (`FaultBackend::just_failed`
//!   guard), so a retry budget of two attempts already guarantees progress.
//!   Some operations are additionally charged virtual latency ticks —
//!   recorded in [`FaultStats::injected_latency_ticks`], never slept.
//! * [`FaultProfile::CorruptFrame`] — reads of one chosen frame succeed but
//!   deliver a flipped bit, simulating bit-rot on the medium. The store's
//!   checksum verification turns that into a structured
//!   [`Corrupt`](crate::FaultKind::Corrupt) error and quarantines the frame.
//!
//! The wrapper reports the *inner* backend's [`StorageBackend`] kind, so
//! backend-parity assertions see straight through it.
//!
//! # Environment knobs
//!
//! [`FaultSpec::from_env`] reads `CIJ_FAULT_PROFILE`
//! (`off` | `transient` | `corrupt:<frame>`) and `CIJ_FAULT_SEED` (a `u64`).
//! [`PageStoreConfig::default`](crate::PageStoreConfig) consults it, so
//! `CIJ_FAULT_PROFILE=transient cargo test` runs the whole suite under
//! injected faults — the CI robustness pass.

use crate::backend::{BackendIo, IoClass, PageBackend, StorageBackend};
use crate::error::{IoOp, PageIoError};

/// Counters of injected faults and store-side recovery actions, surfaced by
/// [`PageStore::fault_stats`](crate::PageStore::fault_stats) alongside
/// [`BackendIo`].
///
/// The injection tallies (`injected_*`) come from the [`FaultBackend`]; the
/// recovery tallies (`retries`, `recoveries`, `write_retries`,
/// `quarantined_frames`) are filled in by the store that drives it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient read errors injected before the real transfer.
    pub injected_read_faults: u64,
    /// Transient write errors (including simulated short writes) injected
    /// before the real transfer.
    pub injected_write_faults: u64,
    /// Reads that delivered a deliberately flipped bit
    /// ([`FaultProfile::CorruptFrame`]).
    pub injected_bit_flips: u64,
    /// Virtual latency ticks charged to slow operations (recorded, never
    /// slept).
    pub injected_latency_ticks: u64,
    /// Read attempts the store repeated after a transient error.
    pub retries: u64,
    /// Reads that succeeded after at least one retry.
    pub recoveries: u64,
    /// Write attempts the store repeated after a transient error.
    pub write_retries: u64,
    /// Frames quarantined after a checksum failure.
    pub quarantined_frames: u64,
}

/// Which fault schedule a [`FaultBackend`] runs — see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultProfile {
    /// No injection; the wrapper is a transparent pass-through.
    #[default]
    Off,
    /// Seeded transient read/write faults plus virtual latency.
    Transient,
    /// Every read of the given frame index delivers one flipped bit.
    CorruptFrame(u32),
}

/// A complete, copyable description of a fault schedule: profile + seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub profile: FaultProfile,
    /// Seed of the deterministic schedule (ignored by
    /// [`FaultProfile::CorruptFrame`], which is unconditional).
    pub seed: u64,
}

/// Seed used when `CIJ_FAULT_SEED` is not set.
pub const DEFAULT_FAULT_SEED: u64 = 0xC1F0_0D5E_ED42_1008;

impl FaultSpec {
    /// A transient-fault schedule with the given seed.
    pub fn transient(seed: u64) -> Self {
        FaultSpec {
            profile: FaultProfile::Transient,
            seed,
        }
    }

    /// A bit-rot schedule corrupting every read of `frame`.
    pub fn corrupt_frame(frame: u32) -> Self {
        FaultSpec {
            profile: FaultProfile::CorruptFrame(frame),
            seed: 0,
        }
    }

    /// Reads `CIJ_FAULT_PROFILE` / `CIJ_FAULT_SEED`; `None` when the
    /// profile is unset, empty or `off`.
    ///
    /// # Panics
    ///
    /// Panics on an unparseable profile or seed — a misconfigured
    /// robustness run should fail loudly, not silently run clean.
    pub fn from_env() -> Option<Self> {
        let profile = std::env::var("CIJ_FAULT_PROFILE").unwrap_or_default();
        let profile = profile.trim().to_ascii_lowercase();
        let seed = match std::env::var("CIJ_FAULT_SEED") {
            Ok(raw) => raw
                .trim()
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("CIJ_FAULT_SEED {raw:?}: {e}")),
            Err(_) => DEFAULT_FAULT_SEED,
        };
        match profile.as_str() {
            "" | "off" | "none" => None,
            "transient" => Some(FaultSpec::transient(seed)),
            other => match other.strip_prefix("corrupt:") {
                Some(frame) => {
                    let frame = frame
                        .trim()
                        .parse::<u32>()
                        .unwrap_or_else(|e| panic!("CIJ_FAULT_PROFILE {other:?}: {e}"));
                    Some(FaultSpec::corrupt_frame(frame))
                }
                None => panic!(
                    "CIJ_FAULT_PROFILE {other:?}: expected \"off\", \"transient\" or \"corrupt:<frame>\""
                ),
            },
        }
    }
}

/// SplitMix64 step: the seeded hash behind the fault schedule. Pure,
/// platform-independent, dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One injected fault in sixteen scheduled opportunities.
const FAULT_PERIOD: u64 = 16;

/// The fault-injecting wrapper backend — see the [module docs](self).
#[derive(Debug)]
pub struct FaultBackend {
    inner: Box<dyn PageBackend>,
    spec: FaultSpec,
    /// Distinct op counters keep the read and write schedules independent.
    read_ops: u64,
    write_ops: u64,
    /// Set after an injected fault, cleared by the next clean operation —
    /// guarantees no two consecutive injections, so bounded retry always
    /// converges.
    just_failed: bool,
    stats: FaultStats,
}

impl FaultBackend {
    /// Wraps `inner` under the given fault schedule.
    pub fn new(inner: Box<dyn PageBackend>, spec: FaultSpec) -> Self {
        FaultBackend {
            inner,
            spec,
            read_ops: 0,
            write_ops: 0,
            just_failed: false,
            stats: FaultStats::default(),
        }
    }

    /// The schedule hash for the current operation.
    fn roll(&self, tag: u64, counter: u64) -> u64 {
        splitmix64(self.spec.seed ^ tag.wrapping_mul(0x517C_C1B7_2722_0A95) ^ counter)
    }

    /// Whether the transient schedule fires for this roll (respecting the
    /// no-consecutive-faults guard).
    fn transient_fires(&self, roll: u64) -> bool {
        self.spec.profile == FaultProfile::Transient
            && !self.just_failed
            && roll.is_multiple_of(FAULT_PERIOD)
    }

    /// Charges virtual latency for slow-but-successful operations.
    fn charge_latency(&mut self, roll: u64) {
        if self.spec.profile == FaultProfile::Transient && roll % 31 == 1 {
            self.stats.injected_latency_ticks += 1 + (roll >> 8) % 8;
        }
    }
}

impl PageBackend for FaultBackend {
    fn kind(&self) -> StorageBackend {
        // Transparent: parity checks and store bookkeeping see the real
        // backend kind.
        self.inner.kind()
    }

    fn frame_size(&self) -> usize {
        self.inner.frame_size()
    }

    fn allocate(&mut self) -> u32 {
        self.inner.allocate()
    }

    fn read(&mut self, index: u32, frame: &mut [u8], class: IoClass) -> Result<(), PageIoError> {
        self.read_ops += 1;
        let roll = self.roll(1, self.read_ops);
        if self.transient_fires(roll) {
            self.just_failed = true;
            self.stats.injected_read_faults += 1;
            return Err(PageIoError::transient(
                IoOp::Read,
                Some(index),
                "injected transient read fault",
            ));
        }
        self.just_failed = false;
        self.charge_latency(roll);
        self.inner.read(index, frame, class)?;
        if let FaultProfile::CorruptFrame(bad) = self.spec.profile {
            if bad == index && !frame.is_empty() {
                frame[frame.len() / 2] ^= 0x40;
                self.stats.injected_bit_flips += 1;
            }
        }
        Ok(())
    }

    fn write(&mut self, index: u32, frame: &[u8], class: IoClass) -> Result<(), PageIoError> {
        self.write_ops += 1;
        let roll = self.roll(2, self.write_ops);
        if self.transient_fires(roll) {
            self.just_failed = true;
            self.stats.injected_write_faults += 1;
            // Alternate between a plain flaky write and a simulated short
            // write; both are transient (nothing reached the medium).
            let detail = if roll & 0x100 == 0 {
                format!("injected short write (0 of {} bytes)", frame.len())
            } else {
                "injected transient write fault".to_string()
            };
            return Err(PageIoError::transient(IoOp::Write, Some(index), detail));
        }
        self.just_failed = false;
        self.charge_latency(roll);
        self.inner.write(index, frame, class)
    }

    fn free(&mut self, index: u32) {
        self.inner.free(index);
    }

    fn flush(&mut self) -> Result<(), PageIoError> {
        self.inner.flush()
    }

    fn io(&self) -> BackendIo {
        self.inner.io()
    }

    fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    fn clone_backend(&self) -> Box<dyn PageBackend> {
        Box::new(FaultBackend {
            inner: self.inner.clone_backend(),
            spec: self.spec,
            read_ops: self.read_ops,
            write_ops: self.write_ops,
            just_failed: self.just_failed,
            stats: self.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::HeapBackend;

    fn transient_over_heap(seed: u64) -> FaultBackend {
        FaultBackend::new(Box::new(HeapBackend::new(16)), FaultSpec::transient(seed))
    }

    /// Drives the same allocate/write/read workload through a backend,
    /// retrying every transient error, and returns (payload checksum,
    /// stats).
    fn drive(b: &mut FaultBackend) -> (u64, FaultStats) {
        let mut digest = 0u64;
        let mut out = [0u8; 16];
        for i in 0..200u32 {
            assert_eq!(b.allocate(), i);
            let frame = [(i % 251) as u8; 16];
            while b.write(i, &frame, IoClass::Metered).is_err() {}
            while b.read(i, &mut out, IoClass::Metered).is_err() {}
            assert_eq!(out, frame, "frame {i} corrupted by a transient fault");
            digest = digest
                .wrapping_mul(31)
                .wrapping_add(crate::frame::fnv1a64(&out));
        }
        (digest, b.fault_stats())
    }

    #[test]
    fn transient_schedule_is_deterministic_and_recoverable() {
        let (d1, s1) = drive(&mut transient_over_heap(42));
        let (d2, s2) = drive(&mut transient_over_heap(42));
        assert_eq!(d1, d2, "same seed, same data");
        assert_eq!(s1, s2, "same seed, same schedule");
        assert!(
            s1.injected_read_faults > 0 && s1.injected_write_faults > 0,
            "schedule actually fired: {s1:?}"
        );
        let (_, other) = drive(&mut transient_over_heap(43));
        assert_ne!(s1, other, "different seed, different schedule");
    }

    #[test]
    fn no_two_consecutive_faults_so_one_retry_always_recovers() {
        let mut b = transient_over_heap(7);
        let frame = [3u8; 16];
        let mut out = [0u8; 16];
        for i in 0..500u32 {
            b.allocate();
            if b.write(i, &frame, IoClass::Metered).is_err() {
                b.write(i, &frame, IoClass::Metered)
                    .expect("second write attempt after an injected fault");
            }
            if b.read(i, &mut out, IoClass::Metered).is_err() {
                b.read(i, &mut out, IoClass::Metered)
                    .expect("second read attempt after an injected fault");
            }
        }
    }

    #[test]
    fn injected_faults_move_no_bytes() {
        let mut b = transient_over_heap(42);
        let (_, stats) = drive(&mut b);
        let io = b.io();
        // Exactly one real transfer per logical op: 200 writes, 200 reads.
        assert_eq!(io.bytes_written, 200 * 16);
        assert_eq!(io.bytes_read, 200 * 16);
        assert!(stats.injected_read_faults + stats.injected_write_faults > 0);
    }

    #[test]
    fn corrupt_profile_flips_one_bit_of_the_target_frame_only() {
        let mut b = FaultBackend::new(Box::new(HeapBackend::new(16)), FaultSpec::corrupt_frame(1));
        let frame = [0u8; 16];
        let mut out = [7u8; 16];
        for i in 0..3u32 {
            b.allocate();
            b.write(i, &frame, IoClass::Metered).unwrap();
        }
        b.read(0, &mut out, IoClass::Metered).unwrap();
        assert_eq!(out, frame, "frame 0 must be intact");
        b.read(1, &mut out, IoClass::Metered).unwrap();
        assert_eq!(out[8], 0x40, "frame 1 carries the flipped bit");
        assert_eq!(b.fault_stats().injected_bit_flips, 1);
        b.read(2, &mut out, IoClass::Metered).unwrap();
        assert_eq!(out, frame, "frame 2 must be intact");
    }

    #[test]
    fn off_profile_is_a_transparent_pass_through() {
        let mut b = FaultBackend::new(
            Box::new(HeapBackend::new(8)),
            FaultSpec {
                profile: FaultProfile::Off,
                seed: 9,
            },
        );
        assert_eq!(b.kind(), StorageBackend::Heap);
        let mut out = [0u8; 8];
        for i in 0..300u32 {
            b.allocate();
            b.write(i, &[1u8; 8], IoClass::Unmetered).unwrap();
            b.read(i, &mut out, IoClass::Unmetered).unwrap();
        }
        assert_eq!(b.fault_stats(), FaultStats::default());
    }

    #[test]
    fn clone_carries_the_schedule_position() {
        let mut b = transient_over_heap(42);
        drive(&mut b);
        let copy = b.clone_backend();
        assert_eq!(copy.fault_stats(), b.fault_stats());
        assert_eq!(copy.kind(), StorageBackend::Heap);
    }
}
