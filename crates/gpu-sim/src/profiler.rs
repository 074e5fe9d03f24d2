//! Thread-safe trace collector.
//!
//! The profiler is shared between the executor and any code that wants to
//! inspect intermediate state (e.g. the experiment harness reading the phase
//! breakdown after every trial). It is a thin mutex around an [`OpTrace`],
//! plus the modeled device-memory residency counters the tiling planner and
//! the memory-capacity experiments read.

use crate::cost::EngineSeconds;
use crate::trace::{OpRecord, OpTrace};
use std::sync::{Arc, Mutex, MutexGuard};

/// Modeled device-memory residency: how many bytes the tracked allocations
/// currently occupy and the high-water mark they reached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MemStats {
    resident: u64,
    peak: u64,
}

/// Shared, thread-safe collector of [`OpRecord`]s and modeled memory
/// residency.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    trace: Arc<Mutex<OpTrace>>,
    mem: Arc<Mutex<MemStats>>,
}

impl Profiler {
    /// Create an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty profiler whose residency counter starts at `resident` bytes —
    /// used by forked executors so a fork's peak accounts for the shared
    /// allocations (points, kernel matrix) that are still on the device.
    pub fn with_resident(resident: u64) -> Self {
        let p = Self::default();
        *p.lock_mem() = MemStats {
            resident,
            peak: resident,
        };
        p
    }

    fn lock(&self) -> MutexGuard<'_, OpTrace> {
        // A panic while holding the lock cannot leave the trace in an
        // inconsistent state (every critical section is a single push/read),
        // so poisoning is safe to ignore.
        self.trace
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_mem(&self) -> MutexGuard<'_, MemStats> {
        self.mem
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Record a modeled device allocation of `bytes` bytes.
    pub fn track_alloc(&self, bytes: u64) {
        let mut mem = self.lock_mem();
        mem.resident = mem.resident.saturating_add(bytes);
        mem.peak = mem.peak.max(mem.resident);
    }

    /// Record a modeled device free of `bytes` bytes.
    pub fn track_free(&self, bytes: u64) {
        let mut mem = self.lock_mem();
        mem.resident = mem.resident.saturating_sub(bytes);
    }

    /// Bytes currently resident under the modeled allocations.
    pub fn resident_bytes(&self) -> u64 {
        self.lock_mem().resident
    }

    /// High-water mark of the modeled residency.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.lock_mem().peak
    }

    /// Raise the peak to at least `peak` (used when merging a forked
    /// executor's residency history back into the shared one).
    pub fn merge_peak(&self, peak: u64) {
        let mut mem = self.lock_mem();
        mem.peak = mem.peak.max(peak);
    }

    /// Append a record.
    pub fn record(&self, record: OpRecord) {
        self.lock().push(record);
    }

    /// Append every record of `trace` (used to merge a forked executor's
    /// trace back into a shared one — see [`crate::Executor::absorb`]).
    pub fn extend(&self, trace: &OpTrace) {
        self.lock().extend(trace);
    }

    /// Snapshot of the trace collected so far.
    pub fn snapshot(&self) -> OpTrace {
        self.lock().clone()
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Engine-split modeled seconds of the records from index `mark` onward,
    /// aggregated under the lock so segment measurement (the per-tile
    /// produce/consume split of the streaming model) never clones the trace.
    pub fn engine_split_since(&self, mark: usize) -> EngineSeconds {
        self.lock().engine_split_since(mark)
    }

    /// Total modeled device time collected so far, in seconds.
    pub fn total_modeled_seconds(&self) -> f64 {
        self.lock().total_modeled_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{OpClass, OpCost};
    use crate::trace::Phase;

    fn sample_record(t: f64) -> OpRecord {
        OpRecord {
            name: "x".into(),
            phase: Phase::Other,
            class: OpClass::Other,
            cost: OpCost::new(1, 1, 0),
            modeled_seconds: t,
            host_seconds: t,
        }
    }

    #[test]
    fn record_and_snapshot() {
        let p = Profiler::new();
        assert!(p.is_empty());
        p.record(sample_record(1.0));
        p.record(sample_record(2.0));
        assert_eq!(p.len(), 2);
        assert!((p.total_modeled_seconds() - 3.0).abs() < 1e-12);
        let snap = p.snapshot();
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn residency_tracks_peak_not_just_current() {
        let p = Profiler::new();
        p.track_alloc(100);
        p.track_alloc(50);
        assert_eq!(p.resident_bytes(), 150);
        assert_eq!(p.peak_resident_bytes(), 150);
        p.track_free(120);
        assert_eq!(p.resident_bytes(), 30);
        assert_eq!(p.peak_resident_bytes(), 150);
        p.track_alloc(40);
        assert_eq!(p.resident_bytes(), 70);
        assert_eq!(p.peak_resident_bytes(), 150);
        // Freeing more than resident saturates at zero instead of wrapping.
        p.track_free(1_000);
        assert_eq!(p.resident_bytes(), 0);
    }

    #[test]
    fn with_resident_seeds_baseline_and_merge_peak_raises() {
        let p = Profiler::with_resident(200);
        assert_eq!(p.resident_bytes(), 200);
        assert_eq!(p.peak_resident_bytes(), 200);
        p.track_alloc(25);
        assert_eq!(p.peak_resident_bytes(), 225);
        let shared = Profiler::with_resident(200);
        shared.merge_peak(p.peak_resident_bytes());
        assert_eq!(shared.peak_resident_bytes(), 225);
        shared.merge_peak(10); // lower peaks never shrink the mark
        assert_eq!(shared.peak_resident_bytes(), 225);
    }

    #[test]
    fn clones_share_state() {
        let p = Profiler::new();
        let q = p.clone();
        p.record(sample_record(1.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn concurrent_recording() {
        let p = Profiler::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        p.record(sample_record(0.001));
                    }
                });
            }
        });
        assert_eq!(p.len(), 400);
    }
}
