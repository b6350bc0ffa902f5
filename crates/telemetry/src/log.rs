//! Leveled stderr logging.
//!
//! A tiny `log`-crate stand-in for the workspace's debug prints. The
//! active level is read once per process from the `GMLAKE_LOG`
//! environment variable (`off`, `error`, `warn`, `info`, `debug`,
//! `trace`; default `off`). `gmlake-core`'s BestFit S2/S3/S4 decision
//! prints appear at `debug`.
//!
//! ```
//! use gmlake_telemetry::log::{self, Level};
//!
//! if log::enabled(Level::Debug) {
//!     log::log(Level::Debug, "gmlake_core::bestfit", format_args!("S3 fallback"));
//! }
//! ```

use std::sync::OnceLock;

/// Log severity, most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or corrupting conditions.
    Error = 1,
    /// Suspicious but survivable conditions.
    Warn = 2,
    /// High-level lifecycle messages.
    Info = 3,
    /// Per-decision diagnostics (`gmlake-core`'s BestFit prints).
    Debug = 4,
    /// Per-operation firehose.
    Trace = 5,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// `GMLAKE_LOG` value → numeric level (0 = off). Unknown strings are off.
fn parse_level(s: &str) -> u8 {
    match s.trim().to_ascii_lowercase().as_str() {
        "error" => 1,
        "warn" | "warning" => 2,
        "info" => 3,
        "debug" => 4,
        "trace" => 5,
        _ => 0, // includes "off", "", and anything unrecognised
    }
}

fn active_level() -> u8 {
    static LEVEL: OnceLock<u8> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        std::env::var("GMLAKE_LOG")
            .map(|v| parse_level(&v))
            .unwrap_or(0)
    })
}

/// True when messages at `level` are emitted. One cached-atomic read
/// after the first call; callers may also cache the result themselves.
pub fn enabled(level: Level) -> bool {
    active_level() >= level as u8
}

/// Write one line to stderr if `level` is enabled:
/// `[LEVEL target] message`.
pub fn log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if enabled(level) {
        eprintln!("[{} {target}] {args}", level.as_str());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(parse_level("error"), 1);
        assert_eq!(parse_level("WARN"), 2);
        assert_eq!(parse_level(" info "), 3);
        assert_eq!(parse_level("debug"), 4);
        assert_eq!(parse_level("trace"), 5);
        assert_eq!(parse_level("off"), 0);
        assert_eq!(parse_level(""), 0);
        assert_eq!(parse_level("nonsense"), 0);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Debug < Level::Trace);
    }
}
