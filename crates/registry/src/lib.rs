//! # Sharded content-addressed mapping registry
//!
//! The registry answers fleet-level questions (*which machines share bank
//! function `(13, 16)`?*) over every mapping a campaign or an import has
//! recovered. Its in-memory core, [`MemRegistry`], is also a campaign's
//! mapping store: the reduce step rebuilds it from the merged journal and
//! writes it as `store.txt` ([`store`]). Around that core it serves many
//! campaigns and many concurrent readers:
//!
//! * **Content-addressed keys** ([`mem`]): a mapping's identity is its
//!   unique reduced row-echelon bank-function basis plus its row/column
//!   bits, fingerprinted with FNV-1a over a fixed codec
//!   ([`dram_model::fingerprint`]). Equivalent recoveries dedup to one
//!   entry no matter which basis a tool reported.
//! * **Function-level inverted index** ([`MemRegistry`]): per-address-bit
//!   bitmaps over dense entry ids — one for basis *support* and one for
//!   basis-row *lead* bits. A span query ANDs the bitmaps of the query's
//!   bits (plus the lead bitmap of its top bit) and verifies survivors
//!   with a branchless XOR-select over a transposed row-by-lead table,
//!   exact because the canonical basis is full Gauss-Jordan RREF; the old
//!   linear scan survives as a differential twin.
//! * **Append-only sharded segments** ([`disk`]): records are routed to
//!   `fingerprint % shards`, written as immutable segment files with a
//!   per-shard exact-lookup index, and published by an atomic
//!   (write-tmp-then-rename) manifest — the same discipline as the
//!   engine's `CheckpointStore`. A crash mid-import leaves orphan segment
//!   files the next open ignores and the next import overwrites.
//! * **Lock-free read path** ([`shared`]): the current state is an
//!   immutable [`Snapshot`] behind an `Arc`. Readers clone the `Arc` once
//!   and evaluate every query without taking the writer lock; writers
//!   build the next snapshot on the side and swap it in.
//! * **Text codecs** ([`segment`], [`store`]): segment files and
//!   `store.txt` share one section reader, and both refuse unknown keys and
//!   incomplete sections.
//! * **A line-oriented query protocol** ([`query`]) with byte-deterministic
//!   responses, serving `sharing` / `lookup` / `nearest` / `stats` for the
//!   `dramdig serve` front end.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;
use std::io;
use std::path::PathBuf;

pub mod disk;
pub mod mem;
pub mod query;
pub mod segment;
pub mod shared;
pub mod source;
pub mod store;

pub use disk::{AppendReport, DiskRegistry, DiskStats, Manifest, SegmentMeta};
pub use mem::{CanonicalKey, Entry, MemRegistry, NearestHit, QueryCost};
pub use query::{parse_request, respond, serve_text, Request};
pub use segment::Record;
pub use shared::{SharedRegistry, Snapshot};
pub use source::Source;

/// Errors from the registry's disk layer and codecs.
#[derive(Debug)]
pub enum RegistryError {
    /// An I/O operation failed on `path`.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// On-disk data failed to parse or an integrity check failed.
    Corrupt(String),
}

impl RegistryError {
    pub(crate) fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        RegistryError::Io {
            path: path.into(),
            source,
        }
    }

    pub(crate) fn corrupt(message: impl Into<String>) -> Self {
        RegistryError::Corrupt(message.into())
    }
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, source } => {
                write!(f, "registry i/o error on {}: {source}", path.display())
            }
            RegistryError::Corrupt(message) => write!(f, "registry corrupt: {message}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io { source, .. } => Some(source),
            RegistryError::Corrupt(_) => None,
        }
    }
}
