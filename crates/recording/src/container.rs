//! The on-disk recording container.
//!
//! Layout (format v2): magic `GREC`, format version (`u32`), a 64-bit
//! checksum of the payload, then the payload: metadata, actions, I/O
//! slots, and the GRZ-compressed dump section. All integers are little
//! endian. [`Recording::to_bytes`]/[`Recording::from_bytes`] are the only
//! (de)serialization paths; the replayer's verifier re-checks every
//! structural invariant on load.
//!
//! The v2 checksum reads the payload as 32-byte blocks of four
//! little-endian `u64` words, one word per independent multiply-rotate
//! lane, then folds the lanes, the length and the tail bytes into one
//! value (`checksum` below). Format v1 had the same layout with a
//! byte-serial FNV-1a checksum; [`Recording::from_bytes`] refuses it with
//! [`ContainerError::BadVersion`].

use crate::action::{Action, TimedAction};
use crate::codec::{grz_compress, grz_decompress, grz_len, GrzError};
use crate::meta::{Dump, IoSlot, RecordingMeta};

const MAGIC: &[u8; 4] = b"GREC";
const VERSION: u32 = 2;

/// Cap on a recording's total uncompressed dump bytes (96 MiB).
/// [`Recording::from_bytes`] rejects a larger dump section before it
/// decompresses anything; the replayer derives its physical-page cap from
/// this value.
pub const MAX_DUMP_BYTES: usize = 96 << 20;

/// A complete recording: everything needed to reproduce a fixed sequence
/// of GPU jobs on new input.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Identity and accounting.
    pub meta: RecordingMeta,
    /// The replay action sequence.
    pub actions: Vec<TimedAction>,
    /// Captured memory regions referenced by `Action::Upload`.
    pub dumps: Vec<Dump>,
    /// Discovered input slots referenced by `Action::CopyToGpu`.
    pub inputs: Vec<IoSlot>,
    /// Discovered output slots referenced by `Action::CopyFromGpu`.
    pub outputs: Vec<IoSlot>,
}

/// Error decoding or validating a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Wrong magic / truncated header.
    BadHeader,
    /// Unsupported format version.
    BadVersion(u32),
    /// Payload checksum mismatch (corrupt or tampered recording).
    ChecksumMismatch,
    /// Payload ended mid-field.
    Truncated,
    /// Unknown action tag.
    BadAction(u8),
    /// Dump section failed to decompress.
    Dump(GrzError),
    /// A string field was not valid UTF-8.
    BadString,
    /// The dump section claims more than [`MAX_DUMP_BYTES`] uncompressed
    /// bytes.
    DumpTooLarge(usize),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadHeader => write!(f, "bad recording header"),
            ContainerError::BadVersion(v) => write!(f, "unsupported recording version {v}"),
            ContainerError::ChecksumMismatch => write!(f, "recording checksum mismatch"),
            ContainerError::Truncated => write!(f, "recording truncated"),
            ContainerError::BadAction(t) => write!(f, "unknown action tag {t}"),
            ContainerError::Dump(e) => write!(f, "dump section: {e}"),
            ContainerError::BadString => write!(f, "invalid utf-8 in recording"),
            ContainerError::DumpTooLarge(n) => {
                write!(
                    f,
                    "dump section of {n} bytes exceeds the {MAX_DUMP_BYTES}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for ContainerError {}

impl From<GrzError> for ContainerError {
    fn from(e: GrzError) -> Self {
        ContainerError::Dump(e)
    }
}

#[derive(Default)]
struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        let end = self.pos.checked_add(n).ok_or(ContainerError::Truncated)?;
        if end > self.buf.len() {
            return Err(ContainerError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ContainerError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ContainerError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }
    fn u32(&mut self) -> Result<u32, ContainerError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }
    fn u64(&mut self) -> Result<u64, ContainerError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }
    fn bool(&mut self) -> Result<bool, ContainerError> {
        Ok(self.u8()? != 0)
    }
    fn str(&mut self) -> Result<String, ContainerError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| ContainerError::BadString)
    }
    fn bytes(&mut self) -> Result<&'a [u8], ContainerError> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

impl Recording {
    /// Creates an empty recording with the given metadata.
    pub fn new(meta: RecordingMeta) -> Self {
        Recording {
            meta,
            actions: Vec::new(),
            dumps: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Total uncompressed dump bytes (Table 6's "RecSize unzip" driver).
    pub fn dump_bytes(&self) -> usize {
        self.dumps.iter().map(|d| d.bytes.len()).sum()
    }

    /// Serializes to the container format (dumps GRZ-compressed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = W::default();
        // Metadata.
        p.str(&self.meta.family);
        p.str(&self.meta.sku_name);
        p.u32(self.meta.gpu_id);
        p.str(&self.meta.label);
        p.u32(self.meta.job_count);
        p.u32(self.meta.regio_count);
        p.u64(self.meta.peak_mapped_pages);
        p.u64(self.meta.modeled_gpu_mem_bytes);
        // Actions.
        p.u32(self.actions.len() as u32);
        for ta in &self.actions {
            p.u64(ta.min_interval_ns);
            p.u8(ta.action.tag());
            match &ta.action {
                Action::RegReadOnce {
                    reg,
                    expect,
                    ignore,
                } => {
                    p.u32(*reg);
                    p.u32(*expect);
                    p.bool(*ignore);
                }
                Action::RegReadWait {
                    reg,
                    mask,
                    val,
                    timeout_ns,
                } => {
                    p.u32(*reg);
                    p.u32(*mask);
                    p.u32(*val);
                    p.u64(*timeout_ns);
                }
                Action::RegWrite { reg, mask, val } => {
                    p.u32(*reg);
                    p.u32(*mask);
                    p.u32(*val);
                }
                Action::SetGpuPgtable => {}
                Action::MapGpuMem { va, pte_flags } => {
                    p.u64(*va);
                    p.u32(pte_flags.len() as u32);
                    for f in pte_flags {
                        p.u16(*f);
                    }
                }
                Action::UnmapGpuMem { va } => p.u64(*va),
                Action::Upload { dump_idx } => p.u32(*dump_idx),
                Action::CopyToGpu { slot } => p.u32(*slot),
                Action::CopyFromGpu { slot } => p.u32(*slot),
                Action::WaitIrq { line, timeout_ns } => {
                    p.u32(*line);
                    p.u64(*timeout_ns);
                }
                Action::IrqContext { enter } => p.bool(*enter),
            }
        }
        // I/O slots.
        for slots in [&self.inputs, &self.outputs] {
            p.u32(slots.len() as u32);
            for s in slots {
                p.str(&s.name);
                p.u64(s.va);
                p.u32(s.len);
            }
        }
        // Dumps: VAs+lengths in the clear, payload compressed as one blob.
        p.u32(self.dumps.len() as u32);
        let mut payload = Vec::new();
        for d in &self.dumps {
            p.u64(d.va);
            p.u32(d.bytes.len() as u32);
            payload.extend_from_slice(&d.bytes);
        }
        p.bytes(&grz_compress(&payload));
        seal(&p.buf)
    }

    /// Parses a container, verifying checksum and structure.
    ///
    /// # Errors
    ///
    /// Returns [`ContainerError`] on any structural or integrity problem;
    /// a recording that fails here is rejected before the replayer's
    /// semantic verifier even runs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, ContainerError> {
        if bytes.len() < 16 || &bytes[0..4] != MAGIC {
            return Err(ContainerError::BadHeader);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("len"));
        if version != VERSION {
            return Err(ContainerError::BadVersion(version));
        }
        let stored = u64::from_le_bytes(bytes[8..16].try_into().expect("len"));
        let payload = &bytes[16..];
        if checksum(payload) != stored {
            return Err(ContainerError::ChecksumMismatch);
        }
        let mut r = R {
            buf: payload,
            pos: 0,
        };
        let mut meta = RecordingMeta::new("", "", 0, "");
        meta.family = r.str()?;
        meta.sku_name = r.str()?;
        meta.gpu_id = r.u32()?;
        meta.label = r.str()?;
        meta.job_count = r.u32()?;
        meta.regio_count = r.u32()?;
        meta.peak_mapped_pages = r.u64()?;
        meta.modeled_gpu_mem_bytes = r.u64()?;

        let n_actions = r.u32()? as usize;
        let mut actions = Vec::with_capacity(n_actions.min(1 << 20));
        for _ in 0..n_actions {
            let min_interval_ns = r.u64()?;
            let tag = r.u8()?;
            let action = match tag {
                1 => Action::RegReadOnce {
                    reg: r.u32()?,
                    expect: r.u32()?,
                    ignore: r.bool()?,
                },
                2 => Action::RegReadWait {
                    reg: r.u32()?,
                    mask: r.u32()?,
                    val: r.u32()?,
                    timeout_ns: r.u64()?,
                },
                3 => Action::RegWrite {
                    reg: r.u32()?,
                    mask: r.u32()?,
                    val: r.u32()?,
                },
                4 => Action::SetGpuPgtable,
                5 => {
                    let va = r.u64()?;
                    let n = r.u32()? as usize;
                    let mut pte_flags = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        pte_flags.push(r.u16()?);
                    }
                    Action::MapGpuMem { va, pte_flags }
                }
                6 => Action::UnmapGpuMem { va: r.u64()? },
                7 => Action::Upload { dump_idx: r.u32()? },
                8 => Action::CopyToGpu { slot: r.u32()? },
                9 => Action::CopyFromGpu { slot: r.u32()? },
                10 => Action::WaitIrq {
                    line: r.u32()?,
                    timeout_ns: r.u64()?,
                },
                11 => Action::IrqContext { enter: r.bool()? },
                other => return Err(ContainerError::BadAction(other)),
            };
            actions.push(TimedAction {
                action,
                min_interval_ns,
            });
        }

        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for slots in [&mut inputs, &mut outputs] {
            let n = r.u32()? as usize;
            for _ in 0..n {
                slots.push(IoSlot {
                    name: r.str()?,
                    va: r.u64()?,
                    len: r.u32()?,
                });
            }
        }

        let n_dumps = r.u32()? as usize;
        let mut headers = Vec::with_capacity(n_dumps.min(1 << 16));
        for _ in 0..n_dumps {
            headers.push((r.u64()?, r.u32()? as usize));
        }
        // Bound the dump section by its headers before decompressing it:
        // the stream's claimed length is attacker-chosen.
        let blob = r.bytes()?;
        let claimed = grz_len(blob)?;
        if claimed > MAX_DUMP_BYTES {
            return Err(ContainerError::DumpTooLarge(claimed));
        }
        let total: usize = headers.iter().map(|(_, l)| *l).sum();
        if total != claimed {
            return Err(ContainerError::Truncated);
        }
        let payload = grz_decompress(blob)?;
        let mut dumps = Vec::with_capacity(headers.len());
        let mut off = 0usize;
        for (va, len) in headers {
            dumps.push(Dump {
                va,
                bytes: payload[off..off + len].to_vec(),
            });
            off += len;
        }

        Ok(Recording {
            meta,
            actions,
            dumps,
            inputs,
            outputs,
        })
    }
}

/// Frames a payload: magic, version, payload checksum, payload.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// One lane step: `acc + word * P2`, rotated, times `P1`. With odd
/// multipliers the step is a bijection in `acc` and in `word`, so a change
/// to any single word always changes the final checksum.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The format-v2 payload checksum: four independent lanes over 32-byte
/// blocks (one `u64` word per lane, so the multiplies of different lanes
/// overlap instead of forming one serial chain), folded with the length,
/// then the tail: whole words, then single bytes, then a final avalanche.
/// An integrity check against corruption, not a MAC.
fn checksum(data: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    let mut h = lanes
        .into_iter()
        .fold((data.len() as u64).wrapping_mul(P3), round);
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = round(h, word(w));
    }
    for &b in words.remainder() {
        h = round(h, u64::from(b));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recording {
        let mut rec = Recording::new(RecordingMeta::new("mali", "G71", 0x6956_0010, "vecadd"));
        rec.meta.job_count = 2;
        rec.meta.regio_count = 40;
        rec.meta.peak_mapped_pages = 10;
        rec.meta.modeled_gpu_mem_bytes = 1 << 20;
        rec.actions = vec![
            TimedAction::immediate(Action::RegReadOnce {
                reg: 0,
                expect: 0x6956_0010,
                ignore: false,
            }),
            TimedAction::paced(
                Action::RegWrite {
                    reg: 0x18,
                    mask: u32::MAX,
                    val: 1,
                },
                1000,
            ),
            TimedAction::immediate(Action::RegReadWait {
                reg: 8,
                mask: 0x100,
                val: 0x100,
                timeout_ns: 1_000_000,
            }),
            TimedAction::immediate(Action::SetGpuPgtable),
            TimedAction::immediate(Action::MapGpuMem {
                va: 0x10_0000,
                pte_flags: vec![0xF, 0xB],
            }),
            TimedAction::immediate(Action::Upload { dump_idx: 0 }),
            TimedAction::immediate(Action::CopyToGpu { slot: 0 }),
            TimedAction::immediate(Action::WaitIrq {
                line: 0,
                timeout_ns: 10_000_000_000,
            }),
            TimedAction::immediate(Action::IrqContext { enter: true }),
            TimedAction::immediate(Action::RegWrite {
                reg: 0x2004,
                mask: u32::MAX,
                val: 1,
            }),
            TimedAction::immediate(Action::IrqContext { enter: false }),
            TimedAction::immediate(Action::CopyFromGpu { slot: 0 }),
            TimedAction::immediate(Action::UnmapGpuMem { va: 0x10_0000 }),
        ];
        rec.dumps = vec![
            Dump {
                va: 0x10_0000,
                bytes: vec![0xAB; 4096],
            },
            Dump {
                va: 0x10_1000,
                bytes: (0..=255u8).cycle().take(8192).collect(),
            },
        ];
        rec.inputs = vec![IoSlot {
            name: "input0".into(),
            va: 0x20_0000,
            len: 1024,
        }];
        rec.outputs = vec![IoSlot {
            name: "out0".into(),
            va: 0x20_1000,
            len: 40,
        }];
        rec
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let rec = sample();
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.dump_bytes(), 4096 + 8192);
    }

    #[test]
    fn compression_shrinks_redundant_dumps() {
        let rec = sample();
        let bytes = rec.to_bytes();
        assert!(
            bytes.len() < rec.dump_bytes(),
            "container ({}) should be smaller than raw dumps ({})",
            bytes.len(),
            rec.dump_bytes()
        );
    }

    #[test]
    fn tampering_is_detected() {
        let rec = sample();
        let mut bytes = rec.to_bytes();
        // Flip a payload byte: checksum must catch it.
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::ChecksumMismatch)
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().to_bytes();
        let payload_len = bytes.len() - 16;
        let blocks_end = 16 + payload_len / 32 * 32;
        assert_ne!(blocks_end, bytes.len(), "sample must have tail bytes");
        // Every offset modulo 32 (each lane and byte position within a
        // word), then every tail byte past the last whole block.
        let offsets = (16..16 + 32).chain(blocks_end..bytes.len());
        for off in offsets {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[off] ^= mask;
                assert_eq!(
                    Recording::from_bytes(&bad),
                    Err(ContainerError::ChecksumMismatch),
                    "flip {mask:#x} at {off}"
                );
            }
        }
    }

    #[test]
    fn checksum_covers_length_and_tail() {
        assert_ne!(checksum(b""), checksum(&[0]));
        assert_ne!(checksum(&[0; 32]), checksum(&[0; 33]));
        assert_ne!(checksum(&[0; 40]), checksum(&[0; 41]));
        let a: Vec<u8> = (0..100u8).collect();
        let mut b = a.clone();
        b.swap(0, 8); // same bytes, different lane
        assert_ne!(checksum(&a), checksum(&b));
    }

    #[test]
    fn v1_container_is_refused_by_version() {
        // A format-v1 container: same layout, byte-serial FNV-1a checksum.
        let v2 = sample().to_bytes();
        let payload = &v2[16..];
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&gr_sim::trace::fnv1a(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        assert_eq!(
            Recording::from_bytes(&v1),
            Err(ContainerError::BadVersion(1))
        );
        for cut in [16, 17, v1.len() - 1] {
            assert_eq!(
                Recording::from_bytes(&v1[..cut]),
                Err(ContainerError::BadVersion(1))
            );
        }
    }

    #[test]
    fn header_validation() {
        assert_eq!(Recording::from_bytes(b"xx"), Err(ContainerError::BadHeader));
        let rec = sample();
        let mut bytes = rec.to_bytes();
        bytes[4] = 9; // version
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::BadVersion(9))
        );
        bytes[0] = b'X';
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::BadHeader)
        );
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().to_bytes();
        // Any prefix must fail cleanly (checksum or truncation), never panic.
        for cut in (0..bytes.len()).step_by(97) {
            assert!(Recording::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    /// A checksum-valid container with no actions or slots whose dump
    /// section is `headers` (VA, length) and the GRZ stream `blob`.
    fn container_with_dumps(headers: &[(u64, u32)], blob: &[u8]) -> Vec<u8> {
        let mut p = W::default();
        p.str("v3d");
        p.str("v3d");
        p.u32(1); // gpu_id
        p.str("bomb");
        p.u32(0); // job_count
        p.u32(0); // regio_count
        p.u64(0); // peak_mapped_pages
        p.u64(0); // modeled_gpu_mem_bytes
        for _ in 0..3 {
            p.u32(0); // actions, inputs, outputs
        }
        p.u32(headers.len() as u32);
        for &(va, len) in headers {
            p.u64(va);
            p.u32(len);
        }
        p.bytes(blob);
        seal(&p.buf)
    }

    /// A GRZ stream claiming `claimed` output bytes: one literal, then
    /// `groups` groups of eight maximal matches (32 KiB out per 25 in).
    fn bomb_stream(claimed: u32, groups: usize) -> Vec<u8> {
        let mut z = b"GRZ1".to_vec();
        z.extend_from_slice(&claimed.to_le_bytes());
        z.extend_from_slice(&[0x00, 0xAA, 0, 0, 0, 0, 0, 0, 0]);
        let mut group = vec![0xFF];
        for _ in 0..8 {
            group.extend_from_slice(&[0x00, 0x0F, 0xFF]); // dist 1, len 4098
        }
        z.extend(group.repeat(groups));
        z
    }

    #[test]
    fn decompression_bomb_is_rejected_before_decompressing() {
        // 64 KiB of stream would expand to ~84 MB before failing; the cap
        // must refuse it from the header alone.
        let blob = bomb_stream(u32::MAX, 2600);
        let bytes = container_with_dumps(&[(0x10_0000, u32::MAX)], &blob);
        let t0 = std::time::Instant::now();
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::DumpTooLarge(u32::MAX as usize))
        );
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
        // Within the cap but disagreeing with the dump headers: also
        // refused before decompressing (decompressing would first fail
        // with `Dump(Truncated)`).
        let blob = bomb_stream(MAX_DUMP_BYTES as u32, 2600);
        let bytes = container_with_dumps(&[(0x10_0000, 4096)], &blob);
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::Truncated)
        );
        // Within the cap and agreeing: the stream is decompressed, and
        // the first match past the claimed 1 MiB stops it.
        let blob = bomb_stream(1 << 20, 2600);
        let bytes = container_with_dumps(&[(0x10_0000, 1 << 20)], &blob);
        assert_eq!(
            Recording::from_bytes(&bytes),
            Err(ContainerError::Dump(GrzError::LengthMismatch))
        );
    }

    #[test]
    fn empty_recording_roundtrips() {
        let rec = Recording::new(RecordingMeta::new("v3d", "v3d", 1, "empty"));
        let back = Recording::from_bytes(&rec.to_bytes()).unwrap();
        assert!(back.actions.is_empty());
        assert!(back.dumps.is_empty());
    }
}
