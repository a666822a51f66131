//! Big-stack scheduling for the recursive evaluator.
//!
//! ENT iteration is recursion-based and the evaluator is recursive, so
//! deep-but-legitimate programs need far more stack than a default thread
//! provides (the explicit `MAX_CALL_DEPTH` guard turns true runaway
//! recursion into `RtError::StackOverflow` long before a big stack is
//! exhausted). Earlier revisions funnelled every run through one hidden
//! global worker thread — a singleton that serialized the whole process
//! onto one core and needed an `unsafe` lifetime transmute to ship
//! borrowed programs across the channel. This module replaces it with a
//! sound, re-entrant primitive:
//!
//! * [`with_interp_stack`] runs a closure on a thread whose stack is at
//!   least the requested size, spawning a scoped worker when the current
//!   thread is not already such a worker. Scoped spawning borrows freely
//!   (no `'static`, no `unsafe`), and every call gets its own worker, so
//!   any number of threads may run interpreters concurrently.
//! * Callers that run *many* programs — `ent-serve`'s workers, the perf
//!   harness — wrap their whole loop in one `with_interp_stack` call:
//!   the worker is marked thread-local, nested calls (including every
//!   [`crate::run_lowered`] inside) detect the mark and run directly on
//!   the current thread, so the per-run cost is zero.
//! * A caller that starts its own threads — the batch engine's parallel
//!   pool — spawns each one with [`spawn_interp_scoped`]: the thread
//!   gets the big stack and the mark itself, so every worker costs one
//!   spawn per batch, not a plain thread plus a big-stack one.
//!
//! The default stack size is 512 MiB of (lazily committed) virtual
//! memory, overridable per run via [`crate::RuntimeConfig::stack_size`]
//! or process-wide via the `ENT_STACK_SIZE` environment variable
//! (plain bytes, or with a `k`/`m`/`g` suffix, e.g. `ENT_STACK_SIZE=256m`;
//! values are clamped to at least 1 MiB). Binaries reject a malformed
//! value at startup ([`check_env_settings`]).

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::OnceLock;
use std::thread::{Scope, ScopedJoinHandle};

/// The built-in interpreter stack size: 512 MiB, as the seed interpreter
/// hardcoded. Virtual memory only — pages are committed on first touch.
pub const BUILTIN_STACK_SIZE: usize = 512 * 1024 * 1024;

/// The floor applied to configured stack sizes; smaller values would make
/// the evaluator overflow the host stack before `MAX_CALL_DEPTH` fires.
pub(crate) const MIN_STACK_SIZE: usize = 1024 * 1024;

thread_local! {
    /// Where the current thread's stack ends when it is an interpreter
    /// worker ([`spawn_interp_scoped`]; nested runs recurse in place on
    /// it), else 0. Stacks grow down on every supported target, so this is
    /// the worker's first frame address minus its size: an estimate off
    /// by the few KiB its start-up frames and thread-local block take.
    pub(crate) static STACK_LOW: Cell<usize> = const { Cell::new(0) };
}

/// The address of a local in the caller's frame: where the native stack
/// is now.
#[inline(always)]
pub(crate) fn stack_address() -> usize {
    let probe = 0u8;
    std::ptr::addr_of!(probe) as usize
}

/// Parses a stack-size string: plain bytes, or a number with a `k`, `m`,
/// or `g` suffix (case-insensitive, powers of 1024).
///
/// # Example
///
/// ```
/// use ent_runtime::parse_stack_size;
/// assert_eq!(parse_stack_size("1048576"), Some(1024 * 1024));
/// assert_eq!(parse_stack_size("256m"), Some(256 * 1024 * 1024));
/// assert_eq!(parse_stack_size("1G"), Some(1024 * 1024 * 1024));
/// assert_eq!(parse_stack_size("watermelon"), None);
/// ```
#[must_use]
pub fn parse_stack_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: usize = digits.trim().parse().ok()?;
    n.checked_shl(shift)
}

/// `ENT_STACK_SIZE` as set: `Ok(None)` when unset or empty, `Err` naming
/// the variable and the values it accepts when its value does not parse.
fn env_stack_size() -> Result<Option<usize>, String> {
    let value = std::env::var_os("ENT_STACK_SIZE").unwrap_or_default();
    let value = value.to_string_lossy();
    let value = value.trim();
    if value.is_empty() {
        return Ok(None);
    }
    parse_stack_size(value).map(Some).ok_or_else(|| {
        format!(
            "malformed ENT_STACK_SIZE value `{value}` \
             (expected bytes, or a number with a k, m or g suffix)"
        )
    })
}

/// Checks `ENT_STACK_SIZE`, the one environment setting the runtime
/// reads. Binaries call this at startup and exit 1 on `Err`, so a
/// malformed value fails loudly instead of [`default_stack_size`]
/// falling back to the default.
///
/// # Errors
///
/// A message naming the variable and the values it accepts.
pub fn check_env_settings() -> Result<(), String> {
    env_stack_size().map(drop)
}

/// The process-wide default interpreter stack size: `ENT_STACK_SIZE` if
/// set (see [`parse_stack_size`]), else [`BUILTIN_STACK_SIZE`]. Read once
/// and cached. Binaries reject a malformed value at startup
/// ([`check_env_settings`]).
#[must_use]
pub fn default_stack_size() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        env_stack_size()
            .ok()
            .flatten()
            .unwrap_or(BUILTIN_STACK_SIZE)
            .max(MIN_STACK_SIZE)
    })
}

/// Runs `f` on a thread whose stack is at least `stack_size` bytes.
///
/// If the current thread is already an interpreter worker (a previous
/// `with_interp_stack` frame is on its stack), `f` runs directly — this
/// makes the primitive cheap to nest and lets pool workers amortize one
/// spawn over many runs. Otherwise a scoped worker thread is spawned,
/// `f` runs there while the caller blocks on the join, and panics are
/// re-raised on the calling thread. Fully re-entrant: concurrent callers
/// each get their own worker.
pub fn with_interp_stack<R, F>(stack_size: usize, f: F) -> R
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    if STACK_LOW.with(Cell::get) != 0 {
        return f();
    }
    std::thread::scope(|s| spawn_interp_scoped(s, stack_size, f).join())
        .unwrap_or_else(|panic| resume_unwind(panic))
}

/// Spawns an interpreter worker in scope `s`: a thread whose stack is at
/// least `stack_size` bytes, marked with where that stack ends so that
/// every [`with_interp_stack`] inside it runs in place. For pools that
/// start their own threads; the caller joins the handle.
///
/// # Panics
///
/// If the operating system refuses the thread.
pub fn spawn_interp_scoped<'scope, R, F>(
    s: &'scope Scope<'scope, '_>,
    stack_size: usize,
    f: F,
) -> ScopedJoinHandle<'scope, R>
where
    R: Send + 'scope,
    F: FnOnce() -> R + Send + 'scope,
{
    let stack_size = stack_size.max(MIN_STACK_SIZE);
    std::thread::Builder::new()
        .name("ent-interp".into())
        .stack_size(stack_size)
        .spawn_scoped(s, move || {
            STACK_LOW.with(|low| low.set(stack_address().saturating_sub(stack_size)));
            f()
        })
        .expect("spawning an interpreter worker thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_bytes_and_suffixes() {
        assert_eq!(parse_stack_size("4096"), Some(4096));
        assert_eq!(parse_stack_size(" 8k "), Some(8 * 1024));
        assert_eq!(parse_stack_size("3M"), Some(3 * 1024 * 1024));
        assert_eq!(parse_stack_size("2g"), Some(2 * 1024 * 1024 * 1024));
        assert_eq!(parse_stack_size(""), None);
        assert_eq!(parse_stack_size("m"), None);
        assert_eq!(parse_stack_size("-5"), None);
        assert_eq!(parse_stack_size("12.5m"), None);
    }

    #[test]
    fn nested_calls_reuse_the_worker() {
        let outer = with_interp_stack(MIN_STACK_SIZE, || {
            let outer_id = std::thread::current().id();
            let inner_id = with_interp_stack(BUILTIN_STACK_SIZE, || std::thread::current().id());
            (outer_id, inner_id)
        });
        assert_eq!(outer.0, outer.1, "nested call must not respawn");
    }

    #[test]
    fn a_spawned_worker_runs_nested_calls_in_place() {
        let (outer_id, inner_id) = std::thread::scope(|s| {
            spawn_interp_scoped(s, MIN_STACK_SIZE, || {
                let outer_id = std::thread::current().id();
                let inner_id =
                    with_interp_stack(BUILTIN_STACK_SIZE, || std::thread::current().id());
                (outer_id, inner_id)
            })
            .join()
            .expect("worker panicked")
        });
        assert_eq!(outer_id, inner_id, "a spawned worker must not respawn");
        assert_ne!(outer_id, std::thread::current().id());
    }

    #[test]
    fn workers_run_off_the_calling_thread() {
        let caller = std::thread::current().id();
        let worker = with_interp_stack(MIN_STACK_SIZE, || std::thread::current().id());
        assert_ne!(caller, worker);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            with_interp_stack(MIN_STACK_SIZE, || panic!("boom"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn concurrent_callers_each_get_a_worker() {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| s.spawn(move || with_interp_stack(MIN_STACK_SIZE, move || i * 2)))
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(h.join().unwrap(), i * 2);
            }
        });
    }
}
