//! Static verification of security properties (§5.1).
//!
//! Before any action executes, the replayer proves: no illegal register
//! access by the CPU (whitelist of architecturally-defined offsets); no
//! illegal memory access by the GPU (every Upload/IO target lies inside
//! memory the replayer itself maps); bounded physical memory (a cap on
//! peak mapped pages). A fabricated recording can hang the GPU but cannot
//! break these guarantees.

use std::collections::HashSet;

use gr_recording::{Action, Recording};
use gr_soc::PAGE_SIZE;

use crate::error::ReplayError;
use crate::iface::NanoIface;

/// What the verifier proved about a recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Actions checked.
    pub actions: usize,
    /// Peak simultaneously-mapped pages.
    pub peak_pages: u64,
    /// Distinct registers touched.
    pub registers_touched: usize,
    /// Indices of `Upload` actions proven dead: their whole dump range is
    /// overwritten by a later `CopyToGpu` before any register write could
    /// have started a job, so the uploaded bytes are never observed.
    pub dead_uploads: Vec<usize>,
    /// First action index of the per-input replay suffix, when the
    /// recording supports warm batched replay (see
    /// [`crate::Replayer::replay_batch`]): the prologue `[0, split)` is
    /// input-independent (no `CopyToGpu`/`CopyFromGpu`, no job waits) and
    /// the suffix `[split, end)` never mutates the address space (no
    /// map/unmap/table-base switch), so the prologue can run once per warm
    /// machine and the suffix once per batch element.
    pub batch_split: Option<usize>,
    /// The memory ranges backing each prologue `Upload` action (empty
    /// when `batch_split` is `None`). Cross-batch warm residency consults
    /// these against the dirty log to decide which uploads can be elided
    /// on an unchanged machine; register bring-up and `MapGpuMem` carry
    /// no annotation because a resident batch elides them unconditionally
    /// (they are warm and idempotent — the maps rewrite nothing).
    pub prologue_ranges: Vec<PrologueRange>,
    /// `true` when the prologue's shape additionally admits cross-batch
    /// residency: every prologue action from the first `Upload` onward is
    /// itself an `Upload`. Elided register actions cannot observe memory,
    /// and before the first upload resident memory equals post-suffix
    /// memory in cold warm-batch replay too — so with this shape no
    /// observation point can distinguish a resident prologue from a full
    /// one mid-establishment, and later uploads always shadow earlier
    /// ones with nothing in between. Recordings that interleave register
    /// work with uploads fall back to the full per-batch prologue.
    pub residency_safe: bool,
}

/// The VA range a prologue upload establishes, annotated at verify time
/// for the residency state machine (see `DESIGN.md` §13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrologueRange {
    /// Action index within `[0, batch_split)`.
    pub index: usize,
    /// First GPU VA the upload touches.
    pub va: u64,
    /// Byte length of the range.
    pub len: u64,
    /// The dump the action uploads.
    pub upload: u32,
    /// `Upload` only: `true` when no *later* prologue upload overlaps this
    /// dump's range, so the post-prologue content of the range equals the
    /// dump bytes and comparing the range with the dump can stand in for
    /// the dirty log when it overflowed. Overlapped dumps must re-upload
    /// instead.
    pub hash_skippable: bool,
}

/// Annotates every `Upload` action in the prologue `[0, split)` with its
/// backing VA range (documented on [`VerifyReport::prologue_ranges`]).
fn annotate_prologue(rec: &Recording, split: usize) -> Vec<PrologueRange> {
    let mut out = Vec::new();
    for (i, ta) in rec.actions[..split].iter().enumerate() {
        let Action::Upload { dump_idx } = &ta.action else {
            continue;
        };
        let Some(dump) = rec.dumps.get(*dump_idx as usize) else {
            continue; // verify() proper rejects this recording
        };
        let (va, len) = (dump.va, dump.bytes.len() as u64);
        let hash_skippable = rec.actions[i + 1..split].iter().all(|later| {
            let Action::Upload { dump_idx: later_d } = &later.action else {
                return true;
            };
            let Some(ld) = rec.dumps.get(*later_d as usize) else {
                return true;
            };
            // Disjoint ranges keep the comparison meaningful.
            ld.va >= va + len || ld.va + ld.bytes.len() as u64 <= va
        });
        out.push(PrologueRange {
            index: i,
            va,
            len,
            upload: *dump_idx,
            hash_skippable,
        });
    }
    out
}

/// Residency shape check (documented on [`VerifyReport::residency_safe`]):
/// from the first prologue `Upload` onward, only `Upload` actions may
/// follow inside the prologue.
fn residency_safe(rec: &Recording, split: usize) -> bool {
    match rec.actions[..split]
        .iter()
        .position(|ta| matches!(ta.action, Action::Upload { .. }))
    {
        None => true,
        Some(first) => rec.actions[first..split]
            .iter()
            .all(|ta| matches!(ta.action, Action::Upload { .. })),
    }
}

/// Finds `Upload` actions whose dump range is fully overwritten by a later
/// `CopyToGpu` before any job could run (satisfying the elision rule the
/// report documents). The scan is conservative: any register write, IRQ
/// wait, output copy, or unmap between the upload and the covering input
/// copy keeps the upload live.
fn find_dead_uploads(rec: &Recording) -> Vec<usize> {
    let mut dead = Vec::new();
    for (i, ta) in rec.actions.iter().enumerate() {
        let Action::Upload { dump_idx } = &ta.action else {
            continue;
        };
        let Some(dump) = rec.dumps.get(*dump_idx as usize) else {
            continue; // verify() proper rejects this recording
        };
        let (dva, dlen) = (dump.va, dump.bytes.len() as u64);
        for later in &rec.actions[i + 1..] {
            match &later.action {
                Action::CopyToGpu { slot } => {
                    let Some(s) = rec.inputs.get(*slot as usize) else {
                        break;
                    };
                    if s.va <= dva && dva + dlen <= s.va + u64::from(s.len) {
                        dead.push(i);
                        break;
                    }
                }
                // Overwriting the same bytes again cannot resurrect them;
                // keep scanning. Everything else might observe the upload.
                Action::Upload { .. } => {}
                _ => break,
            }
        }
    }
    dead
}

/// Computes the warm-batch split point, if the recording's shape allows
/// prologue/suffix amortization (documented on `VerifyReport::batch_split`).
///
/// Besides address-space actions, the suffix must not *write* any
/// translation/reset hazard register (`NanoIface::is_batch_hazard_reg`):
/// a fabricated recording could otherwise retarget the page-table base
/// mid-suffix and diverge from sequential replay, which re-establishes
/// the base from the prologue on every element.
fn find_batch_split(rec: &Recording, iface: NanoIface) -> Option<usize> {
    let split = rec
        .actions
        .iter()
        .position(|ta| matches!(ta.action, Action::CopyToGpu { .. }))?;
    let prologue_clean = rec.actions[..split].iter().all(|ta| {
        !matches!(
            ta.action,
            Action::WaitIrq { .. } | Action::CopyFromGpu { .. }
        )
    });
    let suffix_clean = rec.actions[split..].iter().all(|ta| match &ta.action {
        Action::MapGpuMem { .. } | Action::UnmapGpuMem { .. } | Action::SetGpuPgtable => false,
        Action::RegWrite { reg, .. } => !iface.is_batch_hazard_reg(*reg),
        _ => true,
    });
    (prologue_clean && suffix_clean).then_some(split)
}

/// Verifies `rec` against the family interface and a physical-page cap.
///
/// # Errors
///
/// Returns [`ReplayError::Verify`] describing the first violated property.
pub fn verify(
    rec: &Recording,
    iface: NanoIface,
    max_pages: u64,
) -> Result<VerifyReport, ReplayError> {
    if NanoIface::from_name(&rec.meta.family) != Some(iface) {
        return Err(ReplayError::Verify(format!(
            "recording is for family '{}', replayer is {:?}",
            rec.meta.family, iface
        )));
    }
    let mut mapped_pages: HashSet<u64> = HashSet::new();
    let mut region_sizes: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut peak = 0u64;
    let mut regs = HashSet::new();
    let mut irq_depth = 0i32;
    let va_limit = iface.va_limit();

    let check_mapped = |mapped: &HashSet<u64>, va: u64, len: u64, what: &str| {
        let mut page = va & !(PAGE_SIZE as u64 - 1);
        let end = va + len.max(1);
        while page < end {
            if !mapped.contains(&page) {
                return Err(ReplayError::Verify(format!(
                    "{what} touches unmapped GPU memory at {page:#x}"
                )));
            }
            page += PAGE_SIZE as u64;
        }
        Ok(())
    };

    for (i, ta) in rec.actions.iter().enumerate() {
        if let Some(reg) = ta.action.touches_register() {
            if !iface.is_known_reg(reg) {
                return Err(ReplayError::Verify(format!(
                    "action {i}: illegal register access at offset {reg:#x}"
                )));
            }
            regs.insert(reg);
        }
        match &ta.action {
            Action::MapGpuMem { va, pte_flags } => {
                if pte_flags.is_empty() {
                    return Err(ReplayError::Verify(format!("action {i}: empty mapping")));
                }
                if va % PAGE_SIZE as u64 != 0
                    || *va + (pte_flags.len() * PAGE_SIZE) as u64 > va_limit
                {
                    return Err(ReplayError::Verify(format!(
                        "action {i}: mapping outside GPU address space at {va:#x}"
                    )));
                }
                if let Some(&existing) = region_sizes.get(va) {
                    if existing != pte_flags.len() {
                        return Err(ReplayError::Verify(format!(
                            "action {i}: conflicting re-map at {va:#x}"
                        )));
                    }
                } else {
                    region_sizes.insert(*va, pte_flags.len());
                    for p in 0..pte_flags.len() {
                        mapped_pages.insert(*va + (p * PAGE_SIZE) as u64);
                    }
                }
                peak = peak.max(mapped_pages.len() as u64);
                if peak > max_pages {
                    return Err(ReplayError::Verify(format!(
                        "action {i}: recording maps {peak} pages, cap is {max_pages}"
                    )));
                }
            }
            Action::UnmapGpuMem { va } => {
                let Some(pages) = region_sizes.remove(va) else {
                    return Err(ReplayError::Verify(format!(
                        "action {i}: unmap of unmapped {va:#x}"
                    )));
                };
                for p in 0..pages {
                    mapped_pages.remove(&(*va + (p * PAGE_SIZE) as u64));
                }
            }
            Action::Upload { dump_idx } => {
                let Some(dump) = rec.dumps.get(*dump_idx as usize) else {
                    return Err(ReplayError::Verify(format!(
                        "action {i}: dump index {dump_idx} out of range"
                    )));
                };
                check_mapped(&mapped_pages, dump.va, dump.bytes.len() as u64, "dump")?;
            }
            Action::CopyToGpu { slot } => {
                let Some(s) = rec.inputs.get(*slot as usize) else {
                    return Err(ReplayError::Verify(format!(
                        "action {i}: input slot {slot} out of range"
                    )));
                };
                check_mapped(&mapped_pages, s.va, u64::from(s.len), "input")?;
            }
            Action::CopyFromGpu { slot } => {
                let Some(s) = rec.outputs.get(*slot as usize) else {
                    return Err(ReplayError::Verify(format!(
                        "action {i}: output slot {slot} out of range"
                    )));
                };
                check_mapped(&mapped_pages, s.va, u64::from(s.len), "output")?;
            }
            Action::WaitIrq { line, .. } if *line > iface.max_irq_line() => {
                return Err(ReplayError::Verify(format!(
                    "action {i}: irq line {line} does not exist"
                )));
            }
            Action::IrqContext { enter } => {
                irq_depth += if *enter { 1 } else { -1 };
                if !(0..=1).contains(&irq_depth) {
                    return Err(ReplayError::Verify(format!(
                        "action {i}: unbalanced interrupt context"
                    )));
                }
            }
            _ => {}
        }
    }
    if irq_depth != 0 {
        return Err(ReplayError::Verify(
            "recording ends inside irq context".into(),
        ));
    }
    let batch_split = find_batch_split(rec, iface);
    Ok(VerifyReport {
        actions: rec.actions.len(),
        peak_pages: peak,
        registers_touched: regs.len(),
        dead_uploads: find_dead_uploads(rec),
        batch_split,
        prologue_ranges: batch_split.map_or_else(Vec::new, |s| annotate_prologue(rec, s)),
        residency_safe: batch_split.is_some_and(|s| residency_safe(rec, s)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_recording::{Dump, IoSlot, RecordingMeta, TimedAction};

    fn base_rec() -> Recording {
        let mut rec = Recording::new(RecordingMeta::new("mali", "G71", 1, "t"));
        rec.actions.push(TimedAction::immediate(Action::MapGpuMem {
            va: 0x10_0000,
            pte_flags: vec![0xF, 0xB],
        }));
        rec
    }

    #[test]
    fn accepts_well_formed_recordings() {
        let mut rec = base_rec();
        rec.dumps.push(Dump {
            va: 0x10_0000,
            bytes: vec![0; PAGE_SIZE],
        });
        rec.actions
            .push(TimedAction::immediate(Action::Upload { dump_idx: 0 }));
        rec.inputs.push(IoSlot {
            name: "in".into(),
            va: 0x10_1000,
            len: 64,
        });
        rec.actions
            .push(TimedAction::immediate(Action::CopyToGpu { slot: 0 }));
        rec.actions.push(TimedAction::immediate(Action::RegWrite {
            reg: gr_gpu::mali::regs::JS0_COMMAND,
            mask: u32::MAX,
            val: 1,
        }));
        let report = verify(&rec, NanoIface::Mali, 1024).unwrap();
        assert_eq!(report.peak_pages, 2);
        assert_eq!(report.registers_touched, 1);
        assert!(report.dead_uploads.is_empty(), "input does not cover dump");
        assert_eq!(report.batch_split, Some(2), "suffix starts at CopyToGpu");
    }

    #[test]
    fn detects_dead_uploads_covered_by_input_copy() {
        let mut rec = base_rec();
        // Dump fully inside the input slot's range, then the input copy.
        rec.dumps.push(Dump {
            va: 0x10_0000,
            bytes: vec![0xEE; 64],
        });
        rec.inputs.push(IoSlot {
            name: "in".into(),
            va: 0x10_0000,
            len: 128,
        });
        rec.actions
            .push(TimedAction::immediate(Action::Upload { dump_idx: 0 }));
        rec.actions
            .push(TimedAction::immediate(Action::CopyToGpu { slot: 0 }));
        let report = verify(&rec, NanoIface::Mali, 1024).unwrap();
        assert_eq!(report.dead_uploads, vec![1]);

        // A register write between upload and input copy (a potential job
        // kick) keeps the upload live.
        let mut rec2 = base_rec();
        rec2.dumps.push(Dump {
            va: 0x10_0000,
            bytes: vec![0xEE; 64],
        });
        rec2.inputs.push(IoSlot {
            name: "in".into(),
            va: 0x10_0000,
            len: 128,
        });
        rec2.actions
            .push(TimedAction::immediate(Action::Upload { dump_idx: 0 }));
        rec2.actions.push(TimedAction::immediate(Action::RegWrite {
            reg: gr_gpu::mali::regs::JS0_COMMAND,
            mask: u32::MAX,
            val: 1,
        }));
        rec2.actions
            .push(TimedAction::immediate(Action::CopyToGpu { slot: 0 }));
        let report2 = verify(&rec2, NanoIface::Mali, 1024).unwrap();
        assert!(report2.dead_uploads.is_empty(), "kick may observe the dump");
    }

    #[test]
    fn batch_split_requires_clean_prologue_and_suffix() {
        // No inputs at all: nothing to amortize per element.
        let rec = base_rec();
        assert_eq!(
            verify(&rec, NanoIface::Mali, 1024).unwrap().batch_split,
            None
        );

        // A map after the first input copy makes warm reuse unsound.
        let mut rec2 = base_rec();
        rec2.inputs.push(IoSlot {
            name: "in".into(),
            va: 0x10_0000,
            len: 64,
        });
        rec2.actions
            .push(TimedAction::immediate(Action::CopyToGpu { slot: 0 }));
        rec2.actions.push(TimedAction::immediate(Action::MapGpuMem {
            va: 0x20_0000,
            pte_flags: vec![0xB],
        }));
        assert_eq!(
            verify(&rec2, NanoIface::Mali, 1024).unwrap().batch_split,
            None
        );

        // A suffix write to a translation/reset hazard register (here the
        // page-table base) could hijack warm elements: unbatchable.
        let mut rec_hazard = base_rec();
        rec_hazard.inputs.push(IoSlot {
            name: "in".into(),
            va: 0x10_0000,
            len: 64,
        });
        rec_hazard
            .actions
            .push(TimedAction::immediate(Action::CopyToGpu { slot: 0 }));
        rec_hazard
            .actions
            .push(TimedAction::immediate(Action::RegWrite {
                reg: gr_gpu::mali::regs::AS0_TRANSTAB_LO,
                mask: u32::MAX,
                val: 0xDEAD_B000,
            }));
        assert_eq!(
            verify(&rec_hazard, NanoIface::Mali, 1024)
                .unwrap()
                .batch_split,
            None,
            "suffix table-base write must disqualify batching"
        );

        // A job wait before the input copy means jobs ran input-independent:
        // leave those recordings on the unamortized path.
        let mut rec3 = base_rec();
        rec3.inputs.push(IoSlot {
            name: "in".into(),
            va: 0x10_0000,
            len: 64,
        });
        rec3.actions.push(TimedAction::immediate(Action::WaitIrq {
            line: 0,
            timeout_ns: 1,
        }));
        rec3.actions
            .push(TimedAction::immediate(Action::CopyToGpu { slot: 0 }));
        assert_eq!(
            verify(&rec3, NanoIface::Mali, 1024).unwrap().batch_split,
            None
        );
    }

    #[test]
    fn prologue_ranges_annotate_uploads_and_maps() {
        let mut rec = base_rec();
        rec.dumps.push(Dump {
            va: 0x10_0000,
            bytes: vec![1; PAGE_SIZE],
        });
        // A second dump overlapping the first: the first loses hash
        // skippability (its post-prologue content is not its own bytes),
        // the second keeps it.
        rec.dumps.push(Dump {
            va: 0x10_0800,
            bytes: vec![2; 64],
        });
        rec.actions
            .push(TimedAction::immediate(Action::Upload { dump_idx: 0 }));
        rec.actions
            .push(TimedAction::immediate(Action::Upload { dump_idx: 1 }));
        rec.inputs.push(IoSlot {
            name: "in".into(),
            va: 0x10_1000,
            len: 64,
        });
        rec.actions
            .push(TimedAction::immediate(Action::CopyToGpu { slot: 0 }));
        let report = verify(&rec, NanoIface::Mali, 1024).unwrap();
        assert_eq!(report.batch_split, Some(3));
        assert!(report.residency_safe, "tail-consecutive uploads");
        assert_eq!(report.prologue_ranges.len(), 2);
        let up0 = &report.prologue_ranges[0];
        assert_eq!((up0.index, up0.va, up0.len), (1, 0x10_0000, 4096));
        assert_eq!(up0.upload, 0);
        assert!(!up0.hash_skippable, "overlapped by the later upload");
        let up1 = &report.prologue_ranges[1];
        assert_eq!(up1.upload, 1);
        assert!(up1.hash_skippable, "nothing later overlaps it");

        // Unbatchable recordings carry no annotations and no residency.
        let plain = base_rec();
        let plain_report = verify(&plain, NanoIface::Mali, 1024).unwrap();
        assert!(plain_report.prologue_ranges.is_empty());
        assert!(!plain_report.residency_safe);
    }

    #[test]
    fn register_work_after_an_upload_disables_residency() {
        // A register write between prologue uploads could be a job kick
        // observing the half-established memory image: such prologues
        // must fall back to the full per-batch prologue.
        let mut rec = base_rec();
        rec.dumps.push(Dump {
            va: 0x10_0000,
            bytes: vec![1; 64],
        });
        rec.actions
            .push(TimedAction::immediate(Action::Upload { dump_idx: 0 }));
        rec.actions.push(TimedAction::immediate(Action::RegWrite {
            reg: gr_gpu::mali::regs::JS0_COMMAND,
            mask: u32::MAX,
            val: 1,
        }));
        rec.actions
            .push(TimedAction::immediate(Action::Upload { dump_idx: 0 }));
        rec.inputs.push(IoSlot {
            name: "in".into(),
            va: 0x10_1000,
            len: 64,
        });
        rec.actions
            .push(TimedAction::immediate(Action::CopyToGpu { slot: 0 }));
        let report = verify(&rec, NanoIface::Mali, 1024).unwrap();
        assert!(report.batch_split.is_some(), "still batchable");
        assert!(
            !report.residency_safe,
            "register work between uploads must disable residency"
        );
    }

    #[test]
    fn rejects_illegal_register() {
        let mut rec = base_rec();
        rec.actions.push(TimedAction::immediate(Action::RegWrite {
            reg: 0x2FF8, // hole in the map
            mask: u32::MAX,
            val: 0xDEAD,
        }));
        let err = verify(&rec, NanoIface::Mali, 1024).unwrap_err();
        assert!(err.to_string().contains("illegal register"), "{err}");
    }

    #[test]
    fn rejects_unmapped_gpu_access() {
        let mut rec = base_rec();
        rec.dumps.push(Dump {
            va: 0x90_0000,
            bytes: vec![0; 16],
        });
        rec.actions
            .push(TimedAction::immediate(Action::Upload { dump_idx: 0 }));
        let err = verify(&rec, NanoIface::Mali, 1024).unwrap_err();
        assert!(err.to_string().contains("unmapped GPU memory"), "{err}");
    }

    #[test]
    fn enforces_memory_cap() {
        let mut rec = Recording::new(RecordingMeta::new("mali", "G71", 1, "t"));
        rec.actions.push(TimedAction::immediate(Action::MapGpuMem {
            va: 0,
            pte_flags: vec![0xB; 100],
        }));
        let err = verify(&rec, NanoIface::Mali, 10).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn rejects_family_mismatch_and_bad_irq() {
        let rec = base_rec();
        assert!(verify(&rec, NanoIface::V3d, 1024).is_err());
        let mut rec2 = base_rec();
        rec2.actions.push(TimedAction::immediate(Action::WaitIrq {
            line: 5,
            timeout_ns: 1,
        }));
        assert!(verify(&rec2, NanoIface::Mali, 1024).is_err());
    }

    #[test]
    fn rejects_unbalanced_irq_context() {
        let mut rec = base_rec();
        rec.actions
            .push(TimedAction::immediate(Action::IrqContext { enter: false }));
        assert!(verify(&rec, NanoIface::Mali, 1024).is_err());
        let mut rec2 = base_rec();
        rec2.actions
            .push(TimedAction::immediate(Action::IrqContext { enter: true }));
        assert!(
            verify(&rec2, NanoIface::Mali, 1024).is_err(),
            "ends inside irq ctx"
        );
    }

    #[test]
    fn rejects_out_of_space_mapping() {
        let mut rec = Recording::new(RecordingMeta::new("mali", "G71", 1, "t"));
        rec.actions.push(TimedAction::immediate(Action::MapGpuMem {
            va: NanoIface::Mali.va_limit(),
            pte_flags: vec![0xB],
        }));
        assert!(verify(&rec, NanoIface::Mali, 1024).is_err());
    }
}
