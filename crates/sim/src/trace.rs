//! The CPU/GPU interaction trace.
//!
//! The §7.2 validation experiments log "all the GPU registers on each
//! CPU/GPU interaction" plus memory snapshots, then diff the logs across
//! runs. [`TraceBus`] is that log: the driver, the recorder, and the
//! replayer all publish [`TraceEvent`]s into it.
//!
//! The bus also exposes the *state-changing event* view from §3.2: register
//! writes, register reads whose value differs from the previous read of the
//! same register, reads with side effects, and interrupts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::time::SimTime;

/// One logged CPU/GPU interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// CPU read a register and observed `val`. `side_effect` marks reads
    /// that themselves change GPU state (e.g. reading an IRQ-acknowledge
    /// register on some parts).
    RegRead {
        /// Register offset within the device's MMIO window.
        reg: u32,
        /// Observed value.
        val: u32,
        /// Whether the read changes GPU state.
        side_effect: bool,
    },
    /// CPU wrote `val` to a register.
    RegWrite {
        /// Register offset within the device's MMIO window.
        reg: u32,
        /// Written value.
        val: u32,
    },
    /// The GPU raised an interrupt on `line`.
    Irq {
        /// IRQ line identifier.
        line: u32,
    },
    /// A hash of GPU-visible memory, snapshotted around job boundaries.
    MemSnapshot {
        /// FNV-1a hash of the snapshotted region(s).
        hash: u64,
        /// Free-form label ("pre-job-3", "post-irq-7").
        label: String,
    },
    /// Free-form marker (phase boundaries etc.).
    Marker(String),
}

/// A timestamped [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the interaction happened on the virtual timeline.
    pub at: SimTime,
    /// The interaction itself.
    pub event: TraceEvent,
}

#[derive(Debug, Default)]
struct BusInner {
    /// Written only under the `records` lock and read without it, so a
    /// disabled bus costs `publish` one load, not a lock round trip. It
    /// publishes no other data: `publish` checks it again under the lock.
    enabled: AtomicBool,
    records: Mutex<Vec<TraceRecord>>,
}

/// A shared, cloneable event log.
///
/// Disabled by default so production paths pay nothing; validation harnesses
/// call [`TraceBus::enable`].
///
/// # Example
///
/// ```
/// use gr_sim::{SimTime, TraceBus, TraceEvent};
///
/// let bus = TraceBus::new();
/// bus.enable();
/// bus.publish(SimTime::ZERO, TraceEvent::RegWrite { reg: 0x24, val: 1 });
/// assert_eq!(bus.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBus {
    inner: Arc<BusInner>,
}

impl TraceBus {
    /// Creates a disabled bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts retaining published events.
    pub fn enable(&self) {
        self.set_enabled(true);
    }

    /// Stops retaining events (already-retained events stay).
    pub fn disable(&self) {
        self.set_enabled(false);
    }

    fn set_enabled(&self, on: bool) {
        let _records = self.inner.records.lock();
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether events are currently retained.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Publishes `event` at instant `at` (no-op while disabled).
    pub fn publish(&self, at: SimTime, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        // Checked again under the lock, so no event lands after
        // `disable` returns.
        let mut records = self.inner.records.lock();
        if self.is_enabled() {
            records.push(TraceRecord { at, event });
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.records.lock().len()
    }

    /// `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out all retained records.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.inner.records.lock().clone()
    }

    /// Drops all retained records.
    pub fn clear(&self) {
        self.inner.records.lock().clear();
    }

    /// Extracts the *state-changing* event sequence per §3.2 of the paper:
    /// register writes; register reads returning a value different from the
    /// most recent read of the same register; reads with side effects;
    /// interrupts. Timestamps and repeated-poll reads are dropped, which is
    /// exactly the equivalence the replayer asserts correctness over.
    pub fn state_changing_events(&self) -> Vec<TraceEvent> {
        let records = self.snapshot();
        let mut last_read: HashMap<u32, u32> = HashMap::new();
        let mut out = Vec::new();
        for r in records {
            match &r.event {
                TraceEvent::RegRead {
                    reg,
                    val,
                    side_effect,
                } => {
                    let changed = last_read.insert(*reg, *val) != Some(*val);
                    if changed || *side_effect {
                        out.push(r.event.clone());
                    }
                }
                TraceEvent::RegWrite { .. }
                | TraceEvent::Irq { .. }
                | TraceEvent::MemSnapshot { .. } => out.push(r.event.clone()),
                TraceEvent::Marker(_) => {}
            }
        }
        out
    }
}

/// FNV-1a hash of a byte slice — used for memory snapshots in traces so the
/// validation diff compares hashes instead of multi-MB dumps.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr(reg: u32, val: u32) -> TraceEvent {
        TraceEvent::RegRead {
            reg,
            val,
            side_effect: false,
        }
    }

    #[test]
    fn disabled_bus_retains_nothing() {
        let bus = TraceBus::new();
        bus.publish(SimTime::ZERO, TraceEvent::Marker("x".into()));
        assert!(bus.is_empty());
        bus.enable();
        assert!(bus.is_enabled());
        bus.publish(SimTime::ZERO, TraceEvent::Marker("y".into()));
        assert_eq!(bus.len(), 1);
        bus.disable();
        bus.publish(SimTime::ZERO, TraceEvent::Marker("z".into()));
        assert_eq!(bus.len(), 1);
    }

    #[test]
    fn polling_collapses_in_state_view() {
        let bus = TraceBus::new();
        bus.enable();
        let t = SimTime::ZERO;
        // Poll STATUS (reg 8) five times at 0, then it flips to 1.
        for _ in 0..5 {
            bus.publish(t, rr(8, 0));
        }
        bus.publish(t, rr(8, 1));
        bus.publish(t, TraceEvent::Irq { line: 1 });
        let sc = bus.state_changing_events();
        assert_eq!(
            sc,
            vec![rr(8, 0), rr(8, 1), TraceEvent::Irq { line: 1 }],
            "first read + changed read + irq"
        );
    }

    #[test]
    fn side_effect_reads_always_count() {
        let bus = TraceBus::new();
        bus.enable();
        let ev = TraceEvent::RegRead {
            reg: 4,
            val: 0,
            side_effect: true,
        };
        bus.publish(SimTime::ZERO, ev.clone());
        bus.publish(SimTime::ZERO, ev.clone());
        assert_eq!(bus.state_changing_events().len(), 2);
    }

    #[test]
    fn markers_are_excluded_from_state_view() {
        let bus = TraceBus::new();
        bus.enable();
        bus.publish(SimTime::ZERO, TraceEvent::Marker("phase".into()));
        bus.publish(SimTime::ZERO, TraceEvent::RegWrite { reg: 1, val: 2 });
        let sc = bus.state_changing_events();
        assert_eq!(sc, vec![TraceEvent::RegWrite { reg: 1, val: 2 }]);
        bus.clear();
        assert!(bus.is_empty());
    }

    #[test]
    fn fnv_distinguishes_content() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
