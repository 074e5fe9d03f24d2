//! Deterministic fault injection for elastic multi-device topologies:
//! [`FaultPlan`], [`FaultEvent`] and [`RecoveryReport`].
//!
//! A [`FaultPlan`] is a schedule of device losses pinned to kernel-matrix
//! *pass* numbers (one pass = one full sweep of the row tiles, i.e. one fit
//! iteration's streaming phase). The plan is attached to a
//! [`crate::ShardedExecutor`] via
//! [`crate::ShardedExecutor::with_fault_plan`]; the row-sharded kernel
//! sources drain due events at every pass boundary through
//! [`crate::Executor::poll_fault`] and resume in place: the lost device's
//! rows move to the survivors and the fit continues.
//!
//! Everything here is deterministic: the same plan against the same fit
//! produces the same event sequence.

/// What happened to a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Device `device` (topology index) dropped out of the pool.
    DeviceLost {
        /// Index of the lost device in the executor's topology.
        device: usize,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The kernel-matrix pass at (the start of) which the event fires.
    pub at_pass: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of device losses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule the loss of topology device `device` at the start of pass
    /// `at_pass` (pass 0 is the first tile sweep).
    pub fn lose(mut self, device: usize, at_pass: usize) -> Self {
        self.events.push(FaultEvent {
            at_pass,
            kind: FaultKind::DeviceLost { device },
        });
        self
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events sorted by pass (stable, so same-pass events
    /// keep scheduling order).
    pub(crate) fn resolve(mut self) -> Vec<FaultEvent> {
        self.events.sort_by_key(|e| e.at_pass);
        self.events
    }
}

/// Modeled accounting of elastic-recovery work, accumulated on the executor
/// (via [`crate::Executor::note_recovery`]) and surfaced on clustering
/// results. All counters are cumulative across every fit the executor ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Devices lost.
    pub devices_lost: usize,
    /// Kernel-matrix rows re-partitioned onto surviving devices.
    pub rows_migrated: u64,
    /// Bytes of device-resident state re-uploaded to the survivors (CSR
    /// shard slices; dense points and Nyström factors are replicated and
    /// need no re-upload).
    pub bytes_reuploaded: u64,
    /// Resident tiles that must be recomputed on their new owners.
    pub replayed_tiles: usize,
    /// Bytes of those replayed resident tiles.
    pub replayed_bytes: u64,
    /// Modeled seconds charged during the re-shard steps themselves
    /// (migration transfers; the replayed tiles are charged in the following
    /// passes and are *not* double-counted here).
    pub reshard_seconds: f64,
}

impl RecoveryReport {
    /// `true` when no device was lost.
    pub fn is_empty(&self) -> bool {
        self.devices_lost == 0
    }

    /// Fold `other` into this report (all counters add).
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.devices_lost += other.devices_lost;
        self.rows_migrated += other.rows_migrated;
        self.bytes_reuploaded += other.bytes_reuploaded;
        self.replayed_tiles += other.replayed_tiles;
        self.replayed_bytes += other.replayed_bytes;
        self.reshard_seconds += other.reshard_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_and_resolve_sorts_by_pass() {
        let plan = FaultPlan::new().lose(1, 3).lose(2, 1).lose(0, 1);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.resolve(),
            vec![
                FaultEvent {
                    at_pass: 1,
                    kind: FaultKind::DeviceLost { device: 2 },
                },
                FaultEvent {
                    at_pass: 1,
                    kind: FaultKind::DeviceLost { device: 0 },
                },
                FaultEvent {
                    at_pass: 3,
                    kind: FaultKind::DeviceLost { device: 1 },
                },
            ]
        );
    }

    #[test]
    fn recovery_report_merges_and_detects_emptiness() {
        let mut report = RecoveryReport::default();
        assert!(report.is_empty());
        let step = RecoveryReport {
            devices_lost: 1,
            rows_migrated: 100,
            bytes_reuploaded: 64,
            replayed_tiles: 2,
            replayed_bytes: 800,
            reshard_seconds: 0.5,
        };
        report.merge(&step);
        report.merge(&step);
        assert!(!report.is_empty());
        assert_eq!(report.devices_lost, 2);
        assert_eq!(report.rows_migrated, 200);
        assert_eq!(report.bytes_reuploaded, 128);
        assert_eq!(report.replayed_tiles, 4);
        assert_eq!(report.replayed_bytes, 1600);
        assert!((report.reshard_seconds - 1.0).abs() < 1e-15);
    }
}
