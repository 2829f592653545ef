//! Cooperative cancellation for long-running scans.
//!
//! Serving a group-by query within a time budget (the paper's premise and
//! the server's contract) requires a way to *stop* an aggregation that has
//! already blown its budget. Rust threads cannot be killed, so the engine
//! cancels cooperatively: a [`CancelToken`] travels in
//! [`ExecOptions`](crate::cache::ExecOptions) and the chunked aggregation
//! loops poll it at [`CHUNK_ROWS`](relation::CHUNK_ROWS) boundaries (every 16Ki
//! rows). A fired token makes the executor return
//! [`EngineError::Cancelled`] instead of a result; a token that never fires
//! costs one relaxed atomic load plus one `Instant` read per chunk and
//! cannot change the computed answer.
//!
//! A token combines two independent trip conditions:
//!
//! * a **deadline** (`Instant`): fires once the wall clock passes it —
//!   per-request time budgets;
//! * a **shared flag** (`Arc<AtomicBool>`): fires when some other thread
//!   stores `true` — server drain force-cancelling every in-flight scan at
//!   the end of its grace period.
//!
//! Either, both, or neither may be present; an empty token never fires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{EngineError, Result};

/// A cooperative cancellation token: deadline, shared kill flag, or both.
///
/// Cheap to clone (an `Option<Instant>` copy plus an `Arc` bump) and
/// checked — not enforced — by the executor at chunk boundaries, so a scan
/// stops within one chunk (16Ki rows) of the token firing.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
    /// Test-only trip condition: polls left before the token fires.
    #[cfg(test)]
    fuse: Option<Arc<std::sync::atomic::AtomicUsize>>,
}

impl CancelToken {
    /// A token that never fires.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that fires once the wall clock reaches `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken::new().and_deadline(deadline)
    }

    /// A token that fires when `flag` is set to `true` (e.g. server drain).
    pub fn with_flag(flag: Arc<AtomicBool>) -> CancelToken {
        CancelToken::new().and_flag(flag)
    }

    /// Add (or replace) the deadline trip condition.
    pub fn and_deadline(mut self, deadline: Instant) -> CancelToken {
        self.deadline = Some(deadline);
        self
    }

    /// Add (or replace) the shared-flag trip condition.
    pub fn and_flag(mut self, flag: Arc<AtomicBool>) -> CancelToken {
        self.flag = Some(flag);
        self
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Has either trip condition fired?
    pub fn is_cancelled(&self) -> bool {
        #[cfg(test)]
        if let Some(polls) = &self.fuse {
            match polls.load(Ordering::Relaxed) {
                0 => return true,
                left => polls.store(left - 1, Ordering::Relaxed),
            }
        }
        if let Some(f) = &self.flag {
            if f.load(Ordering::Relaxed) {
                return true;
            }
        }
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// [`EngineError::Cancelled`] if a trip condition fired, else `Ok(())`
    /// — the form the chunk loops consume (`token.check()?`).
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(EngineError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// `token.check()?` through an `Option` — the executor's usual view, since
/// [`ExecOptions::cancel`](crate::cache::ExecOptions::cancel) is optional.
pub(crate) fn check(token: Option<&CancelToken>) -> Result<()> {
    match token {
        Some(t) => t.check(),
        None => Ok(()),
    }
}

#[cfg(test)]
impl CancelToken {
    /// A token that lets `polls` polls pass and fires on every later one —
    /// cancellation from *inside* a scan, without threads or clocks.
    pub(crate) fn firing_after(polls: usize) -> CancelToken {
        CancelToken {
            fuse: Some(Arc::new(polls.into())),
            ..CancelToken::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn empty_token_never_fires() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(check(None).is_ok());
    }

    #[test]
    fn past_deadline_fires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(EngineError::Cancelled));
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn flag_fires_when_stored() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = CancelToken::with_flag(flag.clone());
        assert!(!t.is_cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(t.is_cancelled());
    }

    #[test]
    fn combined_token_fires_on_either() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = CancelToken::with_flag(flag.clone())
            .and_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(t.is_cancelled());

        let t2 = CancelToken::with_flag(Arc::new(AtomicBool::new(false)))
            .and_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t2.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = CancelToken::with_flag(flag.clone());
        let c = t.clone();
        flag.store(true, Ordering::Relaxed);
        assert!(t.is_cancelled() && c.is_cancelled());
    }
}
