//! SIGTERM/SIGINT → atomic shutdown flag, with no external dependencies.
//!
//! The only async-signal-safe action the handler takes is a relaxed store
//! into a process-wide `AtomicBool`; the accept loop polls it. This is
//! the single place in the workspace that needs `unsafe` (the raw
//! `signal(2)` registration) — everything else stays forbidden.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

#[allow(unsafe_code)]
mod ffi {
    pub type SigHandler = extern "C" fn(i32);
    extern "C" {
        // POSIX signal(2). The return value (previous handler) is unused.
        pub fn signal(signum: i32, handler: SigHandler) -> usize;
    }
}

extern "C" fn on_signal(_signum: i32) {
    // Atomic store is on the async-signal-safe list; nothing else is
    // allowed here (no allocation, no locks, no I/O).
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Installs the SIGTERM/SIGINT handlers. Idempotent.
#[allow(unsafe_code)]
pub fn install_handlers() {
    unsafe {
        ffi::signal(SIGTERM, on_signal);
        ffi::signal(SIGINT, on_signal);
    }
}

/// `true` once a shutdown signal has been received.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}
