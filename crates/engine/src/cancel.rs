//! Cooperative campaign cancellation.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag checked by the engine at chunk boundaries.
///
/// Cancellation is **cooperative**: calling [`cancel`](Self::cancel)
/// never interrupts a worker mid-chunk. Each worker finishes the chunk
/// it already claimed (draining the in-flight work keeps the set of
/// completed chunks an exact prefix of the queue), then stops claiming
/// new ones. The resumable campaign path
/// ([`Engine::run_streamed_resumable_with`](crate::Engine::run_streamed_resumable_with))
/// writes a final checkpoint after the drain, so a cancelled multi-hour
/// run loses at most the chunks that were in flight.
///
/// Tokens are cheap to clone (an `Arc<AtomicBool>`); clones observe the
/// same flag. A typical CLI wires a SIGINT/SIGTERM handler to a clone
/// while the engine polls another.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once [`cancel`](Self::cancel) has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

impl fmt::Display for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_cancelled() { "cancelled" } else { "running" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        a.cancel(); // idempotent
        assert!(a.is_cancelled());
        assert_eq!(a.to_string(), "cancelled");
    }

    #[test]
    fn token_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
    }
}
