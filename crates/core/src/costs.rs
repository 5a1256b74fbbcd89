//! Modeled replayer costs — why GR startup is "register accesses and GPU
//! memory copy" instead of seconds of stack initialization.

use gr_sim::SimDuration;

/// Interpreter dispatch per action.
pub const ACTION_DISPATCH: SimDuration = SimDuration::from_nanos(300);

/// Interpreter dispatch per action on a pre-resolved batch suffix
/// (`replay_batch`): bounds checks, dead-upload lookups, and payload
/// validation were done once when the batch started, so warm re-runs are
/// a branch-light sweep over resolved actions. The difference to
/// [`ACTION_DISPATCH`] is charged once per suffix action at batch start.
pub const ACTION_DISPATCH_WARM: SimDuration = SimDuration::from_nanos(100);

/// Bookkeeping charge for a prologue action elided by cross-batch warm
/// residency: the replayer still walks the resolved action list and
/// consults the dirty log, but performs no register access or transfer.
pub const ACTION_RESIDENT_SKIP: SimDuration = SimDuration::from_nanos(20);

/// Throughput of the residency compare fallback (checking a dump's backing
/// memory byte for byte against the loaded dump when the dirty log
/// overflowed), bytes/sec. Faster than an upload — it reads DRAM once and
/// compares — but far from free, which is why the log is the primary
/// proof.
pub const HASH_BW: f64 = 8.0e9;

/// Static verification per action (§5.1).
pub const VERIFY_PER_ACTION: SimDuration = SimDuration::from_nanos(150);

/// Reading the recording from storage (eMMC-class flash), bytes/sec.
pub const STORAGE_BW: f64 = 120e6;

/// GRZ decompression throughput, bytes/sec.
pub const DECOMPRESS_BW: f64 = 300e6;

/// Copying dumps into GPU memory, bytes/sec.
pub const UPLOAD_BW: f64 = 2.0e9;

/// Rebuilding one PTE.
pub const MAP_PER_PAGE: SimDuration = SimDuration::from_nanos(500);

/// Interrupt-context switch (enter or eret).
pub const IRQ_CTX_SWITCH: SimDuration = SimDuration::from_nanos(800);

/// Checkpoint copy bandwidth (GPU memory + registers → host), bytes/sec.
pub const CHECKPOINT_BW: f64 = 0.4e9;

/// Duration of moving `bytes` at `bw` bytes/sec.
pub fn xfer(bytes: u64, bw: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_times_scale() {
        assert_eq!(xfer(120_000_000, STORAGE_BW), SimDuration::from_secs(1));
        assert!(xfer(1 << 20, UPLOAD_BW) < SimDuration::from_millis(1));
    }
}
