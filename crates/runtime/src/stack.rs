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
//! * Callers that run *many* programs — the perf harness — wrap their
//!   whole loop in one `with_interp_stack` call:
//!   the worker is marked thread-local, nested calls (including every
//!   [`crate::run_lowered`] inside) detect the mark and run directly on
//!   the current thread, so the per-run cost is zero.
//! * A caller that starts its own threads — the batch engine's parallel
//!   pool — spawns each one with [`spawn_interp_scoped`]: the thread
//!   gets the big stack and the mark itself, so every worker costs one
//!   spawn per batch, not a plain thread plus a big-stack one.
//!   [`spawn_interp`] is its detached twin, for threads that outlive
//!   their spawner (`ent-serve`'s connection threads). A long-lived
//!   thread keeps every stack page its deepest run touched until it
//!   calls [`release_idle_stack`].
//!
//! The default stack size is 512 MiB of (lazily committed) virtual
//! memory, overridable per run via [`crate::RuntimeConfig::stack_size`]
//! or process-wide via the `ENT_STACK_SIZE` environment variable
//! (plain bytes, or with a `k`/`m`/`g` suffix, e.g. `ENT_STACK_SIZE=256m`;
//! values are clamped to at least 1 MiB). Binaries reject a malformed
//! value, and one the host cannot create, at startup
//! ([`check_env_settings`], [`check_interp_stack`]).

use std::cell::Cell;
use std::io;
use std::panic::resume_unwind;
use std::sync::OnceLock;
use std::thread::{Builder, JoinHandle, Scope, ScopedJoinHandle};

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
/// or `g` suffix (case-insensitive, powers of 1024). A size past
/// `usize::MAX` bytes is malformed, not wrapped.
///
/// # Example
///
/// ```
/// use ent_runtime::parse_stack_size;
/// assert_eq!(parse_stack_size("1048576"), Some(1024 * 1024));
/// assert_eq!(parse_stack_size("256m"), Some(256 * 1024 * 1024));
/// assert_eq!(parse_stack_size("1G"), Some(1024 * 1024 * 1024));
/// assert_eq!(parse_stack_size("watermelon"), None);
/// assert_eq!(parse_stack_size("17179869184g"), None); // 2^64 bytes
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
    n.checked_mul(1 << shift)
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

/// Checks that the host creates an interpreter thread on the
/// [`default_stack_size`] stack, by starting one that returns at once.
/// Binaries that run on such threads call this at startup, after
/// [`check_env_settings`], and exit 1 on `Err` instead of panicking at
/// their first run.
///
/// # Errors
///
/// A message naming the size and `ENT_STACK_SIZE`, with the host's error.
pub fn check_interp_stack() -> Result<(), String> {
    let stack = default_stack_size();
    match spawn_interp(stack, || ()) {
        Ok(probe) => {
            let _ = probe.join();
            Ok(())
        }
        Err(e) => Err(format!(
            "cannot create a {stack}-byte interpreter stack (ENT_STACK_SIZE): {e}"
        )),
    }
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
    try_with_interp_stack(stack_size, f).expect("spawning an interpreter worker thread")
}

/// [`with_interp_stack`], but a host that refuses the worker thread (for
/// example, one that cannot reserve a stack that large) is an error, not
/// a panic.
///
/// # Errors
///
/// If the operating system refuses the thread.
pub fn try_with_interp_stack<R, F>(stack_size: usize, f: F) -> io::Result<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    if STACK_LOW.with(Cell::get) != 0 {
        return Ok(f());
    }
    let (builder, stack_size) = interp_builder(stack_size);
    std::thread::scope(|s| {
        let worker = builder.spawn_scoped(s, move || enter_interp(stack_size, f))?;
        Ok(worker.join().unwrap_or_else(|panic| resume_unwind(panic)))
    })
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
    let (builder, stack_size) = interp_builder(stack_size);
    builder
        .spawn_scoped(s, move || enter_interp(stack_size, f))
        .expect("spawning an interpreter worker thread")
}

/// Spawns a detached interpreter worker: a thread whose stack is at least
/// `stack_size` bytes, marked as [`spawn_interp_scoped`] marks its
/// threads. For threads that outlive their spawner.
///
/// # Errors
///
/// If the operating system refuses the thread, for example because it
/// cannot reserve a stack that large.
pub fn spawn_interp<R, F>(stack_size: usize, f: F) -> io::Result<JoinHandle<R>>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let (builder, stack_size) = interp_builder(stack_size);
    builder.spawn(move || enter_interp(stack_size, f))
}

/// A thread builder for an interpreter worker, and the stack size it
/// gets (at least [`MIN_STACK_SIZE`]).
fn interp_builder(stack_size: usize) -> (Builder, usize) {
    let stack_size = stack_size.max(MIN_STACK_SIZE);
    let builder = Builder::new()
        .name("ent-interp".into())
        .stack_size(stack_size);
    (builder, stack_size)
}

/// Runs `f` as the first frame of a fresh `stack_size`-byte thread,
/// marking where that stack ends.
fn enter_interp<R>(stack_size: usize, f: impl FnOnce() -> R) -> R {
    STACK_LOW.with(|low| low.set(stack_address().saturating_sub(stack_size)));
    f()
}

/// How far [`release_idle_stack`] stays above [`STACK_LOW`] and below the
/// caller's frame. `STACK_LOW` can sit below the thread's own stack by
/// its TLS block and start-up frames; the top of the stack is where every
/// run works, so it stays resident.
const RELEASE_MARGIN: usize = 1 << 20;

/// Hands the pages of this interpreter thread's stack that lie more than
/// a margin below the caller's frame back to the host (Linux only). A
/// deep run touched them and nothing live sits there now; they read as
/// zero when touched again, as fresh stack pages do. Does nothing off an
/// interpreter thread or on a stack under two margins deep.
pub fn release_idle_stack() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_DONTNEED: c_int = 4;
        // A multiple of every page size Linux uses.
        const ALIGN: usize = 64 << 10;
        let low = STACK_LOW.with(Cell::get);
        if low == 0 {
            return;
        }
        let start = (low + RELEASE_MARGIN).next_multiple_of(ALIGN);
        let end = stack_address().saturating_sub(RELEASE_MARGIN) / ALIGN * ALIGN;
        if start < end {
            // SAFETY: `[start, end)` lies inside this thread's own stack
            // mapping: a margin above `STACK_LOW`, which is at most the TLS
            // block and start-up frames below the stack's real end, and a
            // margin below this frame, under which only this call's own
            // frames are live. Frames that have returned hold nothing a
            // reference can reach, so discarding their pages loses no data.
            // A failed call (an error return) changes nothing.
            unsafe {
                madvise(start as *mut c_void, end - start, MADV_DONTNEED);
            }
        }
    }
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
    fn a_detached_worker_runs_nested_calls_in_place() {
        let handle = spawn_interp(MIN_STACK_SIZE, || {
            let outer_id = std::thread::current().id();
            let inner_id = with_interp_stack(BUILTIN_STACK_SIZE, || std::thread::current().id());
            (outer_id, inner_id)
        });
        let (outer_id, inner_id) = handle
            .expect("spawn a worker")
            .join()
            .expect("worker panicked");
        assert_eq!(outer_id, inner_id, "a spawned worker must not respawn");
        assert_ne!(outer_id, std::thread::current().id());
    }

    /// Burns about `depth` KiB of stack and returns a value every frame
    /// contributed to.
    fn deep(depth: u32) -> u64 {
        let frame = std::hint::black_box([depth as u8; 1024]);
        if depth == 0 {
            return 1;
        }
        deep(depth - 1) + u64::from(frame[depth as usize % 1024])
    }

    #[test]
    fn a_released_stack_runs_deep_again() {
        let sums = spawn_interp(32 << 20, || {
            let first = deep(8 << 10);
            release_idle_stack();
            (first, deep(8 << 10))
        });
        let (first, again) = sums
            .expect("spawn a worker")
            .join()
            .expect("worker panicked");
        assert_eq!(first, again);
        // Off an interpreter thread there is nothing to release.
        release_idle_stack();
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
