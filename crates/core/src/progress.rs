//! Progress lines for long runs.
//!
//! The experiment grid can run hundreds of simulations; users want a
//! live status line without the status ever contaminating the
//! machine-readable results on stdout. Workers (possibly many threads)
//! hold a [`Progress`] handle: [`Progress::stderr`] writes each report
//! as one line on **stderr** from the thread that makes it, and
//! [`Progress::disabled`] drops every report, letting library code
//! report unconditionally when nobody is listening.
//!
//! Each line is one `eprintln!`, which holds the stderr lock for the
//! whole line, so lines never interleave even when many workers report
//! at once.

use std::fmt::Display;

/// A handle workers report progress through: either writing to stderr
/// ([`Progress::stderr`]) or disabled (every report is a no-op).
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    enabled: bool,
}

impl Progress {
    /// A handle that drops every report (for tests and library callers
    /// that don't want status output).
    #[must_use]
    pub fn disabled() -> Self {
        Self { enabled: false }
    }

    /// A handle that writes every report to stderr, one line each.
    #[must_use]
    pub fn stderr() -> Self {
        Self { enabled: true }
    }

    /// Report a free-form status line.
    pub fn note(&self, msg: impl Display) {
        if self.enabled {
            eprintln!("{msg}");
        }
    }

    /// Report the start of work unit `index` (1-based) of `total`.
    pub fn started(&self, label: &str, index: usize, total: usize) {
        self.note(format_args!("[{index}/{total}] {label} ..."));
    }

    /// Report the completion of work unit `index` of `total`, which took
    /// `millis` milliseconds of wall-clock time.
    pub fn finished(&self, label: &str, index: usize, total: usize, millis: u64) {
        self.note(format_args!(
            "[{index}/{total}] {label} done in {millis} ms"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_drops_everything() {
        let p = Progress::disabled();
        p.note("nobody hears this");
        p.started("x", 1, 2);
        p.finished("x", 1, 2, 5);
    }
}
