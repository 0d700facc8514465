//! Driver-level error and completion types.
//!
//! The instrumentation vocabulary ([`FrameInfo`], [`DriverEvent`],
//! [`EventHook`], [`DriverStats`]) lives in `shadow-obs` so that
//! observability consumers need not depend on the drivers; this module
//! re-exports it for existing callers.

pub use shadow_obs::{DriverEvent, DriverStats, EventHook, FrameInfo};

use shadow_proto::WireError;

/// Why an inbound frame could not be fed to the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedError {
    /// The frame was shorter than its header claimed.
    Incomplete,
    /// The frame failed to decode.
    Wire(WireError),
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Incomplete => write!(f, "incomplete frame"),
            FeedError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for FeedError {}

impl From<WireError> for FeedError {
    fn from(e: WireError) -> Self {
        FeedError::Wire(e)
    }
}
