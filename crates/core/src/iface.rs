//! Family interface knowledge (paper Table 1).
//!
//! Everything the nano driver knows about a GPU family: which register
//! offsets exist (the §5.1 whitelist), which register points at the page
//! tables, how to insert physical addresses into opaque PTE flag bits,
//! which writes kick jobs, and how to reset. This is the "no more than 1K
//! SLoC per GPU family" knowledge the paper extracts from the open driver.

use gr_gpu::machine::Machine;
use gr_gpu::sku::GpuFamilyKind;
use gr_gpu::{mali, v3d};
use gr_soc::PAGE_SIZE;

use crate::error::ReplayError;

const MALI_PA_MASK: u64 = 0x0000_FFFF_FFFF_F000;
const MALI_L1_SHIFT: u32 = 21;
const MALI_L2_SHIFT: u32 = 12;
const MALI_IDX_MASK: u64 = 0x1FF;

/// Per-family knowledge table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NanoIface {
    /// Mali-like: two-level tables, three IRQ lines, JS job slot.
    Mali,
    /// v3d-like: flat table, one IRQ line, control-list window.
    V3d,
}

impl NanoIface {
    /// Selects the interface for a family.
    pub fn for_family(family: GpuFamilyKind) -> NanoIface {
        match family {
            GpuFamilyKind::Mali => NanoIface::Mali,
            GpuFamilyKind::V3d => NanoIface::V3d,
        }
    }

    /// Parses the family string a recording carries.
    pub fn from_name(name: &str) -> Option<NanoIface> {
        match name {
            "mali" => Some(NanoIface::Mali),
            "v3d" => Some(NanoIface::V3d),
            _ => None,
        }
    }

    /// §5.1 whitelist: is `reg` an architecturally defined register?
    pub fn is_known_reg(self, reg: u32) -> bool {
        match self {
            NanoIface::Mali => mali::regs::is_known_reg(reg),
            NanoIface::V3d => v3d::regs::is_known_reg(reg),
        }
    }

    /// Human-readable register name for error reports.
    pub fn reg_name(self, reg: u32) -> &'static str {
        match self {
            NanoIface::Mali => mali::regs::reg_name(reg),
            NanoIface::V3d => v3d::regs::reg_name(reg),
        }
    }

    /// Registers whose write starts a job (never blindly re-issued when
    /// restoring register state from a checkpoint).
    pub fn is_kick_reg(self, reg: u32) -> bool {
        match self {
            NanoIface::Mali => {
                reg == mali::regs::JS0_COMMAND || reg == mali::regs::JS0_COMMAND_NEXT
            }
            NanoIface::V3d => reg == v3d::regs::CT0EA_LO,
        }
    }

    /// Highest IRQ line the family uses.
    pub fn max_irq_line(self) -> u32 {
        match self {
            NanoIface::Mali => 2,
            NanoIface::V3d => 0,
        }
    }

    /// Implements the `SetGPUPgtable` action: points the GPU at the
    /// replayer's own table base.
    pub fn set_pgtable_base(self, machine: &Machine, root_pa: u64) {
        match self {
            NanoIface::Mali => {
                machine.gpu_write32(mali::regs::AS0_TRANSTAB_LO, root_pa as u32);
                machine.gpu_write32(mali::regs::AS0_TRANSTAB_HI, (root_pa >> 32) as u32);
            }
            NanoIface::V3d => {
                machine.gpu_write32(v3d::regs::MMU_PT_BASE_LO, root_pa as u32);
                machine.gpu_write32(v3d::regs::MMU_PT_BASE_HI, (root_pa >> 32) as u32);
            }
        }
    }

    /// Registers whose replayed *write* can retarget translation or reset
    /// device state: table base, MMU/address-space control, and global
    /// command registers. A batch suffix containing one is not warm-safe —
    /// sequential replay would re-establish the machine state from the
    /// prologue each time, a warm batch would not (see
    /// `VerifyReport::batch_split`).
    pub fn is_batch_hazard_reg(self, reg: u32) -> bool {
        match self {
            NanoIface::Mali => matches!(
                reg,
                mali::regs::GPU_COMMAND
                    | mali::regs::AS0_COMMAND
                    | mali::regs::AS0_TRANSTAB_LO
                    | mali::regs::AS0_TRANSTAB_HI
                    | mali::regs::AS0_TRANSCFG
            ),
            NanoIface::V3d => matches!(
                reg,
                v3d::regs::CTL_RESET
                    | v3d::regs::MMU_CTRL
                    | v3d::regs::MMU_PT_BASE_LO
                    | v3d::regs::MMU_PT_BASE_HI
            ),
        }
    }

    /// Issues the family's architectural TLB shootdown: Mali's
    /// `AS_CMD_FLUSH`, or a v3d `MMU_CTRL` write with the self-clearing
    /// TLB-clear bit. Required after an unmap so no stale translation can
    /// be served once the VA (or its backing frame) is recycled.
    pub fn tlb_shootdown(self, machine: &Machine) {
        match self {
            NanoIface::Mali => {
                machine.gpu_write32(mali::regs::AS0_COMMAND, mali::regs::AS_CMD_FLUSH);
            }
            NanoIface::V3d => {
                let ctrl = machine.gpu_read32(v3d::regs::MMU_CTRL);
                machine.gpu_write32(v3d::regs::MMU_CTRL, ctrl | v3d::regs::MMU_CTRL_TLB_CLEAR);
            }
        }
    }

    /// Issues a GPU soft reset and waits for it (the §5.4 recovery and
    /// §5.3 handoff primitive).
    pub fn soft_reset(self, machine: &Machine) -> Result<(), ReplayError> {
        let poll = |reg: u32, mask: u32, want: u32| -> Result<(), ReplayError> {
            let (v, _) = machine.poll_reg(
                reg,
                mask,
                want,
                gr_sim::SimDuration::from_micros(2),
                gr_sim::SimDuration::from_millis(50),
            );
            if v & mask == want {
                Ok(())
            } else {
                Err(ReplayError::Env("reset timeout".into()))
            }
        };
        match self {
            NanoIface::Mali => {
                machine.gpu_write32(mali::regs::GPU_COMMAND, mali::regs::GPU_CMD_SOFT_RESET);
                poll(
                    mali::regs::GPU_IRQ_RAWSTAT,
                    mali::regs::GPU_IRQ_RESET_COMPLETED,
                    mali::regs::GPU_IRQ_RESET_COMPLETED,
                )?;
                machine.gpu_write32(
                    mali::regs::GPU_IRQ_CLEAR,
                    mali::regs::GPU_IRQ_RESET_COMPLETED,
                );
            }
            NanoIface::V3d => {
                machine.gpu_write32(v3d::regs::CTL_RESET, 1);
                poll(v3d::regs::CT0CS, v3d::regs::CS_RESETTING, 0)?;
            }
        }
        Ok(())
    }

    /// Allocates the family's (empty) top-level page table, returning
    /// `(root_pa, frames_used)`.
    pub fn alloc_root(self, machine: &Machine) -> Result<(u64, Vec<u64>), ReplayError> {
        let mut frames = machine.frames().lock();
        match self {
            NanoIface::Mali => {
                let root = frames
                    .alloc_zeroed(machine.mem())
                    .map_err(|_| ReplayError::OutOfMemory)?
                    .ok_or(ReplayError::OutOfMemory)?;
                Ok((root, vec![root]))
            }
            NanoIface::V3d => {
                let base = frames
                    .alloc_contig(v3d::pgtable::PT_PAGES)
                    .ok_or(ReplayError::OutOfMemory)?;
                for i in 0..v3d::pgtable::PT_PAGES {
                    machine
                        .mem()
                        .zero_page(base + (i * PAGE_SIZE) as u64)
                        .map_err(|_| ReplayError::OutOfMemory)?;
                }
                let pages = (0..v3d::pgtable::PT_PAGES)
                    .map(|i| base + (i * PAGE_SIZE) as u64)
                    .collect();
                Ok((base, pages))
            }
        }
    }

    /// Writes a PTE mapping `va → pa` with the *opaque* recorded flag
    /// bits. The nano driver only knows where the PA field lives (Table 1
    /// "Pgtables" knowledge); the permission bits pass through untouched.
    ///
    /// For Mali this may allocate an L2 table frame, returned for
    /// bookkeeping.
    pub fn map_page_raw(
        self,
        machine: &Machine,
        root_pa: u64,
        va: u64,
        pa: u64,
        raw_flags: u16,
    ) -> Result<Option<u64>, ReplayError> {
        let mem = machine.mem();
        match self {
            NanoIface::Mali => {
                let l1_pa = root_pa + ((va >> MALI_L1_SHIFT) & MALI_IDX_MASK) * 8;
                let l1 = mem.read_u64(l1_pa).map_err(|_| ReplayError::OutOfMemory)?;
                let (l2_pa, new_frame) = if l1 & 1 != 0 {
                    (l1 & MALI_PA_MASK, None)
                } else {
                    let f = machine
                        .frames()
                        .lock()
                        .alloc_zeroed(mem)
                        .map_err(|_| ReplayError::OutOfMemory)?
                        .ok_or(ReplayError::OutOfMemory)?;
                    mem.write_u64(l1_pa, (f & MALI_PA_MASK) | 1)
                        .map_err(|_| ReplayError::OutOfMemory)?;
                    (f, Some(f))
                };
                let pte_pa = l2_pa + ((va >> MALI_L2_SHIFT) & MALI_IDX_MASK) * 8;
                mem.write_u64(pte_pa, (pa & MALI_PA_MASK) | u64::from(raw_flags))
                    .map_err(|_| ReplayError::OutOfMemory)?;
                Ok(new_frame)
            }
            NanoIface::V3d => {
                let pte_pa = root_pa + (va >> 12) * 4;
                let pte = (((pa >> 12) as u32) << 4) | u32::from(raw_flags & 0xF);
                mem.write_u32(pte_pa, pte)
                    .map_err(|_| ReplayError::OutOfMemory)?;
                Ok(None)
            }
        }
    }

    /// Clears the PTE at `va`.
    pub fn unmap_page_raw(self, machine: &Machine, root_pa: u64, va: u64) {
        let mem = machine.mem();
        match self {
            NanoIface::Mali => {
                if let Ok(l1) = mem.read_u64(root_pa + ((va >> MALI_L1_SHIFT) & MALI_IDX_MASK) * 8)
                {
                    if l1 & 1 != 0 {
                        let pte_pa =
                            (l1 & MALI_PA_MASK) + ((va >> MALI_L2_SHIFT) & MALI_IDX_MASK) * 8;
                        let _ = mem.write_u64(pte_pa, 0);
                    }
                }
            }
            NanoIface::V3d => {
                let _ = mem.write_u32(root_pa + (va >> 12) * 4, 0);
            }
        }
    }

    /// The VA-space limit of the family.
    pub fn va_limit(self) -> u64 {
        match self {
            NanoIface::Mali => mali::pgtable::VA_SPACE_SIZE,
            NanoIface::V3d => v3d::pgtable::VA_SPACE_SIZE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_gpu::sku::{MALI_G71, V3D_RPI4};

    #[test]
    fn whitelists_differ_by_family() {
        let m = NanoIface::Mali;
        let v = NanoIface::V3d;
        assert!(m.is_known_reg(mali::regs::JS0_COMMAND));
        assert!(!v.is_known_reg(mali::regs::JS0_COMMAND));
        assert!(v.is_known_reg(v3d::regs::CT0EA_LO));
        assert!(m.is_kick_reg(mali::regs::JS0_COMMAND));
        assert!(v.is_kick_reg(v3d::regs::CT0EA_LO));
        assert!(!m.is_kick_reg(mali::regs::GPU_IRQ_MASK));
        assert_eq!(NanoIface::from_name("mali"), Some(NanoIface::Mali));
        assert_eq!(NanoIface::from_name("v3d"), Some(NanoIface::V3d));
        assert_eq!(NanoIface::from_name("adreno"), None);
    }

    #[test]
    fn raw_mapping_preserves_opaque_flags_mali() {
        let machine = Machine::new(&MALI_G71, 1);
        let iface = NanoIface::Mali;
        let (root, _) = iface.alloc_root(&machine).unwrap();
        let frame = machine.frames().lock().alloc().unwrap();
        // Map with raw bits 0xF (whatever they mean) and read back through
        // the device's own walker in standard format.
        iface
            .map_page_raw(&machine, root, 0x40_0000, frame, 0xF)
            .unwrap();
        let (pa, flags) = gr_gpu::mali::pgtable::translate(
            machine.mem(),
            gr_gpu::PteFormat::MaliStandard,
            root,
            0x40_0000,
        )
        .unwrap();
        assert_eq!(pa, frame);
        assert!(flags.valid && flags.write && flags.exec && flags.cpu_mapped);
        iface.unmap_page_raw(&machine, root, 0x40_0000);
        assert!(gr_gpu::mali::pgtable::translate(
            machine.mem(),
            gr_gpu::PteFormat::MaliStandard,
            root,
            0x40_0000
        )
        .is_none());
    }

    #[test]
    fn raw_mapping_v3d() {
        let machine = Machine::new(&V3D_RPI4, 1);
        let iface = NanoIface::V3d;
        let (root, frames) = iface.alloc_root(&machine).unwrap();
        assert_eq!(frames.len(), v3d::pgtable::PT_PAGES);
        let frame = machine.frames().lock().alloc().unwrap();
        iface
            .map_page_raw(&machine, root, 0x9000, frame, 0x3)
            .unwrap();
        let (pa, fl) = gr_gpu::v3d::pgtable::translate(machine.mem(), root, 0x9000).unwrap();
        assert_eq!(pa, frame);
        assert!(fl.write);
    }

    #[test]
    fn soft_reset_completes_on_powered_machines() {
        let machine = Machine::new(&MALI_G71, 1);
        // Power the domains like an OS kernel would.
        for d in [
            gr_soc::pmc::PmcDomain::GpuCore,
            gr_soc::pmc::PmcDomain::GpuMem,
        ] {
            machine.pmc().write32(gr_soc::pmc::Pmc::pwr_ctrl_off(d), 1);
        }
        machine.advance(gr_soc::pmc::SETTLE_DELAY);
        NanoIface::Mali.soft_reset(&machine).unwrap();
    }
}
