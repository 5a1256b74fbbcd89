//! The GPUReplay recording format.
//!
//! A recording encodes a fixed sequence of GPU jobs: the replay actions of
//! the paper's Table 2 ([`Action`]), the GPU memory dumps that hold the
//! proprietary job binaries, the discovered input/output addresses, and
//! metadata binding the recording to a GPU SKU. Recordings serialize to a
//! compact binary container ([`Recording::to_bytes`]) with GRZ (LZSS)
//! compression of the dump payload — standing in for the paper's zlib.
//!
//! # Example
//!
//! ```
//! use gr_recording::{Action, Recording, RecordingMeta, TimedAction};
//!
//! let mut rec = Recording::new(RecordingMeta::new("mali", "G71", 0x6956_0010, "demo"));
//! rec.actions.push(TimedAction::immediate(Action::RegWrite {
//!     reg: 0x18,
//!     mask: u32::MAX,
//!     val: 1,
//! }));
//! let bytes = rec.to_bytes();
//! let back = Recording::from_bytes(&bytes)?;
//! assert_eq!(back.actions.len(), 1);
//! # Ok::<(), gr_recording::ContainerError>(())
//! ```

pub mod action;
pub mod codec;
pub mod container;
pub mod meta;

pub use action::{Action, TimedAction};
pub use codec::{grz_compress, grz_decompress};
pub use container::{ContainerError, Recording, MAX_DUMP_BYTES};
pub use meta::{Dump, IoSlot, RecordingMeta};
