//! Minimal SIGTERM/SIGINT latch for graceful drain.
//!
//! The workspace forbids dependencies, so this is the one place that
//! touches the C signal API directly: a handler that sets an atomic flag,
//! installed once, polled by the serve loop. Everything else in the crate
//! is `unsafe`-free (the crate root is `deny(unsafe_code)`; only this
//! module opts back in, for the two FFI items below).

use std::sync::atomic::{AtomicBool, Ordering};

static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod ffi {
    #![allow(unsafe_code)]

    use super::SIGNALLED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` with a handler that only stores an atomic is
        // async-signal-safe; the handler stays valid for the process
        // lifetime (it is a static item).
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// Installs the SIGTERM/SIGINT handler (idempotent; no-op off Unix).
pub fn install() {
    #[cfg(unix)]
    ffi::install();
}

/// Whether a termination signal has arrived since [`install`].
pub fn requested() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}
