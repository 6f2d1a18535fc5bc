//! Structured engine failures.
//!
//! A multi-hour campaign must not die to one bad chunk: every campaign
//! goes through the engine's one chunk loop, which contains worker
//! panics, and the entry points
//! ([`Engine::run_with_progress`](crate::Engine::run_with_progress),
//! [`Engine::try_run_streamed`](crate::Engine::try_run_streamed),
//! [`Engine::run_streamed_resumable_with`](crate::Engine::run_streamed_resumable_with))
//! report through [`EngineError`], so callers can retry, resume from a
//! checkpoint, or surface a precise diagnostic.

use std::error::Error;
use std::fmt;

use crate::resume::ResumeError;

/// Errors produced by the fault-tolerant campaign entry points.
///
/// The `Display` form is a single lower-case sentence per the Rust API
/// guidelines.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A worker panicked grading one chunk and the chunk kept panicking
    /// after every retry of its bounded budget.
    ///
    /// The engine contains worker panics: the panicked chunk's partial
    /// fold is discarded, the worker's scratch state is rebuilt, and the
    /// chunk is requeued — only when the *same chunk* exhausts its retry
    /// budget does the campaign stop, and then with this structured
    /// error rather than a propagated panic.
    WorkerPanic {
        /// Queue index of the chunk that kept panicking.
        chunk: usize,
        /// Total grading attempts the chunk received (1 + retries).
        attempts: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Loading or validating a campaign checkpoint failed.
    Resume(ResumeError),
    /// A streamed or resumable entry point was handed an MBU plan
    /// ([`FaultSource::Multi`](crate::FaultSource::Multi)); those grade
    /// only through [`Engine::run`](crate::Engine::run).
    MultiSource {
        /// Multi-bit faults in the rejected plan.
        faults: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanic { chunk, attempts, message } => write!(
                f,
                "worker panicked grading chunk {chunk} on all {attempts} attempts: {message}"
            ),
            EngineError::Resume(e) => e.fmt(f),
            EngineError::MultiSource { faults } => write!(
                f,
                "streamed runs grade single-fault sources, not {faults} multi-bit faults; \
                 grade MBU campaigns through Engine::run"
            ),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Resume(e) => Some(e),
            EngineError::WorkerPanic { .. } | EngineError::MultiSource { .. } => None,
        }
    }
}

impl From<ResumeError> for EngineError {
    fn from(e: ResumeError) -> Self {
        EngineError::Resume(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_carries_the_chunk() {
        let e = EngineError::WorkerPanic { chunk: 17, attempts: 3, message: "boom".into() };
        let text = e.to_string();
        assert!(text.contains("chunk 17"), "{text}");
        assert!(text.contains("3 attempts"), "{text}");
        assert!(text.contains("boom"), "{text}");
    }

    #[test]
    fn resume_errors_pass_through() {
        let e = EngineError::from(ResumeError::Corrupt { line: 4, msg: "bad cursor".into() });
        assert!(e.to_string().contains("line 4"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + Error>() {}
        assert_send_sync::<EngineError>();
    }
}
