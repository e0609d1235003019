//! Typed errors for the fault domain.
//!
//! The runtime's default answer to a hard failure — a rank dying
//! mid-factorization, a wait expiring, a payload of the wrong shape — used
//! to be a panic or a 120-second hang. [`XmpiError`] makes the failure a
//! value instead: [`crate::Comm::try_recv_f64`] returns it in place, and
//! [`crate::run_ft`] surfaces per-rank outcomes as `Result<R, XmpiError>`
//! so a fault-tolerant driver can decide to recover rather than unwind the
//! whole process.

use std::fmt;

/// A communication failure observed by one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XmpiError {
    /// The peer (or this rank itself, in [`crate::run_ft`] results) is dead:
    /// it crashed under an injected [`crate::hooks::CrashFate`] and its
    /// mailbox will never produce or consume another message.
    RankDead {
        /// World rank of the dead peer.
        rank: usize,
    },
    /// A receive expired without a matching message becoming available.
    Timeout {
        /// World rank the receive was posted on.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Wait attempts made before giving up.
        attempts: u64,
        /// Unmatched messages sitting in the mailbox at expiry.
        pending: usize,
    },
    /// A payload arrived with the wrong element count — the shape contract
    /// between sender and receiver was violated (or the payload carried
    /// indices where elements were expected).
    Truncated {
        /// Elements the receiver required.
        expected: usize,
        /// Elements actually delivered.
        got: usize,
        /// World rank of the sender.
        src: usize,
        /// Message tag.
        tag: u64,
    },
    /// The world has been poisoned by some rank's crash: collective progress
    /// is impossible and every blocked operation unwinds. Distinguished from
    /// [`XmpiError::RankDead`] so survivors can tell "my peer died" from
    /// "somebody died and the world is tearing down".
    WorldPoisoned,
    /// A multi-process world could not be brought up: the launcher could
    /// not make a rank's sockets or fork its process, or a rank could not
    /// start its mesh. The launcher degrades to this typed error instead of
    /// hanging or panicking, so a fault-tolerant driver can give up
    /// cleanly.
    LaunchFailed {
        /// World rank that failed to come up.
        rank: usize,
    },
}

impl fmt::Display for XmpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            XmpiError::RankDead { rank } => write!(f, "world rank {rank} is dead"),
            XmpiError::Timeout {
                src,
                tag,
                attempts,
                pending,
            } => write!(
                f,
                "receive from world rank {src} tag {tag} timed out after {attempts} attempt(s); \
                 {pending} unmatched message(s) pending"
            ),
            XmpiError::Truncated {
                expected,
                got,
                src,
                tag,
            } => write!(
                f,
                "truncated payload from world rank {src} tag {tag}: \
                 expected {expected} element(s), got {got}"
            ),
            XmpiError::WorldPoisoned => write!(f, "world poisoned by a rank crash"),
            XmpiError::LaunchFailed { rank } => write!(f, "world rank {rank} failed to launch"),
        }
    }
}

impl std::error::Error for XmpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            XmpiError::RankDead { rank: 3 }.to_string(),
            "world rank 3 is dead"
        );
        let t = XmpiError::Timeout {
            src: 1,
            tag: 7,
            attempts: 2,
            pending: 5,
        };
        assert!(t.to_string().contains("tag 7"));
        assert!(t.to_string().contains("2 attempt"));
        let tr = XmpiError::Truncated {
            expected: 10,
            got: 8,
            src: 0,
            tag: 1,
        };
        assert!(tr.to_string().contains("expected 10"));
        assert!(XmpiError::WorldPoisoned.to_string().contains("poisoned"));
        let lf = XmpiError::LaunchFailed { rank: 2 };
        assert!(lf.to_string().contains("rank 2"));
    }

    #[test]
    fn implements_error_trait() {
        let e: Box<dyn std::error::Error> = Box::new(XmpiError::WorldPoisoned);
        assert!(!e.to_string().is_empty());
    }
}
