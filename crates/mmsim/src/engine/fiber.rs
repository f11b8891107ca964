//! Stackful fibers: the suspendable rank tasks of the event engine.
//!
//! The algorithm closures the engine executes are plain blocking code
//! (`recv` does not return until a matching message exists), so
//! multiplexing thousands of virtual ranks onto one scheduler thread
//! requires suspending a rank *mid-call* and resuming it later with its
//! whole stack intact — a stackful coroutine.  This module provides the
//! minimal primitive: a [`Fiber`] owns a heap-allocated stack and an
//! entry closure; [`Fiber::resume`] runs it until it calls [`suspend`]
//! (or returns), and control transfers are plain userspace jumps — no
//! syscalls, no futexes, no host-scheduler involvement.
//!
//! ## The x86-64 switch
//!
//! On x86-64 the switch is ~12 instructions of `global_asm!`: push the
//! SysV callee-saved registers, swap `rsp`, pop, `ret`.  A new fiber's
//! stack is seeded so the first resume "returns" into a trampoline that
//! moves the entry-function argument into `rdi` and calls it; the
//! seeded frame zeroes `rbp` so frame-pointer walks terminate cleanly
//! inside a fiber, and keeps `rsp` on the ABI alignment.  Entry
//! functions never unwind across the assembly: the closure runs under
//! `catch_unwind`, exactly like a pool worker's job body.
//!
//! On other architectures the same API is backed by a parked OS thread
//! per fiber (resume/suspend become condvar handoffs).  Semantics are
//! identical — exactly one of {scheduler, fiber} runs at a time, with a
//! happens-before edge at every switch — only the switch cost differs.
//!
//! ## Stack reuse
//!
//! Stacks come from a process-wide pool ([`STACK_POOL`]), mirroring the
//! worker pool's thread reuse: a p = 16384 sweep re-leases the same
//! 16384 stacks run after run instead of re-faulting fresh pages.  The
//! pool is capped so one huge run does not pin its high-water mark of
//! memory forever.  Stacks are lazily committed (fresh mappings are
//! zero pages until touched), so the default 1 MiB reservation costs
//! only the few KiB a rank actually uses.  On x86-64 each stack is its
//! own `mmap` with a `PROT_NONE` guard page below it: an overflowing
//! rank dies by SIGSEGV rather than corrupting the heap.  That is two
//! kernel mappings per stack, about 32k at p = 16384 — under Linux's
//! default `vm.max_map_count` of 65530.
//!
//! ## Safety contract
//!
//! The scheduler must drive every fiber to completion before dropping
//! it: dropping a *suspended* fiber frees a stack whose frames still
//! own live values.  That is memory-safe here (a suspended fiber is
//! never resumed again, and nothing outside the fiber points into its
//! stack) but leaks the frames' resources, so [`Fiber::drop`] leaks the
//! stack allocation too rather than recycling potentially-watched
//! memory — and debug builds flag it.  The event engine cancels parked
//! fibers (resume-with-cancel, unwinding them cleanly) before teardown,
//! so the leak path is unreachable short of an engine bug.

use std::sync::{Mutex, OnceLock};

/// Parse an `MMSIM_FIBER_STACK_KB` value (`None` = variable unset) into
/// a fiber stack size in bytes.  Pure, so tests can cover the parsing
/// without racing on process-global environment state.
///
/// # Panics
/// Panics unless the value is a positive integer KiB count of at least
/// 64 (smaller stacks cannot hold the entry trampoline plus a panic
/// unwind).
pub(crate) fn parse_stack_bytes(raw: Option<&str>) -> usize {
    match raw {
        Some(raw) => {
            let kb: usize = raw.trim().parse().unwrap_or_else(|_| {
                panic!("MMSIM_FIBER_STACK_KB must be a positive integer KiB count, got {raw:?}")
            });
            assert!(
                kb >= 64,
                "MMSIM_FIBER_STACK_KB must be at least 64 KiB, got {kb}"
            );
            kb << 10
        }
        // Matches the worker pool's 1 MiB: algorithm closures keep
        // their blocks on the heap, so this is generous.
        None => 1 << 20,
    }
}

/// Fiber stack size in bytes, from `MMSIM_FIBER_STACK_KB` (read once
/// per process and cached, like the deadlock timeout), default 1 MiB.
pub(crate) fn stack_bytes() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| parse_stack_bytes(std::env::var("MMSIM_FIBER_STACK_KB").ok().as_deref()))
}

/// Retired fiber stacks, reused across runs.  Capped: a single huge run
/// parks at most `STACK_POOL_CAP` stacks here; the rest are freed and
/// re-allocated (cheaply, as untouched lazy pages) by the next big run.
static STACK_POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());
const STACK_POOL_CAP: usize = 2048;

fn lease_stack(bytes: usize) -> Stack {
    let mut pool = STACK_POOL.lock().expect("fiber stack pool poisoned");
    // Size-exact reuse; other sizes (tests construct odd ones) stay
    // parked for their own leases.
    if let Some(pos) = pool.iter().position(|stack| stack.len() == bytes) {
        return pool.swap_remove(pos);
    }
    drop(pool);
    stack::alloc(bytes)
}

fn release_stack(stack: Stack) {
    let mut pool = STACK_POOL.lock().expect("fiber stack pool poisoned");
    if pool.len() < STACK_POOL_CAP {
        pool.push(stack);
    }
}

// =====================================================================
// x86-64 stacks: one anonymous mapping each, its lowest page PROT_NONE,
// so a rank that overflows its stack faults (SIGSEGV) instead of
// writing into whatever memory lies below.
// =====================================================================
#[cfg(target_arch = "x86_64")]
mod stack {
    use std::ffi::{c_int, c_long, c_void};

    // Linux x86-64 values.  std already links libc, so the three
    // functions below resolve without a crate.
    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;

    /// Guard size: one base page.
    pub(super) const GUARD: usize = 4096;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// `len` usable bytes directly above a `PROT_NONE` guard page, in a
    /// mapping of their own that is unmapped on drop.  Pages are
    /// committed lazily, so the default 1 MiB costs only what a rank
    /// touches.
    pub(crate) struct Stack {
        base: *mut c_void,
        len: usize,
    }

    // SAFETY: `Stack` exclusively owns its mapping and `base` is never
    // shared.  Only the pool moves stacks between threads, and it holds
    // only stacks of finished fibers, which nothing runs on.
    unsafe impl Send for Stack {}

    pub(crate) fn alloc(len: usize) -> Stack {
        let total = len + GUARD;
        // SAFETY: a fresh private anonymous mapping at an address the
        // kernel picks touches no existing memory.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                total,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a {total}-byte fiber stack failed: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack { base, len };
        // SAFETY: `[base, base + GUARD)` is the first page of the
        // mapping just created, which nothing else references yet.
        let rc = unsafe { mprotect(base, GUARD, PROT_NONE) };
        assert!(
            rc == 0,
            "mprotect of a fiber stack guard page failed: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    impl Stack {
        pub(crate) fn len(&self) -> usize {
            self.len
        }

        /// One past the highest usable byte.
        pub(crate) fn top(&self) -> usize {
            self.base as usize + GUARD + self.len
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: `[base, base + len + GUARD)` is exactly the
            // mapping `alloc` created, and dropping its owner ends every
            // use of it (a fiber frees its stack only once finished).
            // A failure would only leak the mapping, so it is ignored.
            unsafe { munmap(self.base, self.len + GUARD) };
        }
    }
}

// The portable fallback's stacks belong to its OS threads; the pool
// keeps plain heap buffers.
#[cfg(not(target_arch = "x86_64"))]
mod stack {
    pub(crate) type Stack = Box<[u8]>;

    pub(crate) fn alloc(bytes: usize) -> Stack {
        // Deliberately uninitialised: zeroing would fault in every page
        // of the reservation up front, while the allocator's fresh mmap
        // pages are already demand-zeroed by the kernel.  The buffer is
        // never read as values.
        #[allow(clippy::uninit_vec)] // the lint guards reads of uninit *values*; none occur
        {
            let mut stack = Vec::<u8>::with_capacity(bytes);
            // SAFETY: `u8` is a plain byte; the contents are never read
            // as values, and `Vec`/`Box` drop logic never inspects them.
            unsafe { stack.set_len(bytes) };
            stack.into_boxed_slice()
        }
    }
}

use stack::Stack;

/// Sizes of the stacks currently parked in the pool (test
/// observability; x86-64 only — the portable fallback's stacks belong
/// to its OS threads).
#[cfg(all(test, target_arch = "x86_64"))]
fn pooled_stacks() -> Vec<usize> {
    STACK_POOL
        .lock()
        .expect("fiber stack pool poisoned")
        .iter()
        .map(|stack| stack.len())
        .collect()
}

// =====================================================================
// x86-64: userspace context switch.
// =====================================================================
#[cfg(target_arch = "x86_64")]
mod imp {
    use super::{lease_stack, release_stack, Stack};
    use std::cell::Cell;

    std::arch::global_asm!(
        // fn mmsim_fiber_switch(save: *mut usize /* rdi */,
        //                       load: *const usize /* rsi */)
        //
        // Saves the SysV callee-saved register set and stack pointer of
        // the caller into `*save`, installs the stack pointer from
        // `*load`, restores the register set saved there, and returns —
        // on the *other* stack.  Caller-saved registers need no help:
        // from the compiler's view this is an ordinary `extern "C"`
        // call.  `endbr64` keeps the entry valid under CET-IBT (a NOP
        // elsewhere).
        ".text",
        ".globl mmsim_fiber_switch",
        ".hidden mmsim_fiber_switch",
        ".type mmsim_fiber_switch, @function",
        ".align 16",
        "mmsim_fiber_switch:",
        "endbr64",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov qword ptr [rdi], rsp",
        "mov rsp, qword ptr [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size mmsim_fiber_switch, . - mmsim_fiber_switch",
    );

    std::arch::global_asm!(
        // First-resume trampoline.  A fresh fiber's seeded stack makes
        // `mmsim_fiber_switch` "return" here with the entry function in
        // `rbx` and its argument in `r12` (both callee-saved, so they
        // survive the switch's pops), and `rsp ≡ 0 (mod 16)` — the call
        // below then gives the entry the ABI-required alignment.  The
        // entry never returns (it switches away for good); `ud2` makes
        // a violation loud instead of a stack walk into the fake frame.
        ".text",
        ".globl mmsim_fiber_start",
        ".hidden mmsim_fiber_start",
        ".type mmsim_fiber_start, @function",
        ".align 16",
        "mmsim_fiber_start:",
        "endbr64",
        "mov rdi, r12",
        "call rbx",
        "ud2",
        ".size mmsim_fiber_start, . - mmsim_fiber_start",
    );

    extern "C" {
        fn mmsim_fiber_switch(save: *mut usize, load: *const usize);
        fn mmsim_fiber_start();
    }

    thread_local! {
        /// The fiber currently running on this thread (null between
        /// resumes); what [`suspend`] switches out of.
        static CURRENT: Cell<*mut Inner> = const { Cell::new(std::ptr::null_mut()) };
    }

    /// Control block of one fiber.  Boxed and never moved: `CURRENT`
    /// and the seeded stack hold its address across switches.
    struct Inner {
        /// Saved stack pointer of the suspended side.
        fiber_rsp: usize,
        /// Saved stack pointer of the scheduler while the fiber runs.
        sched_rsp: usize,
        entry: Option<Box<dyn FnOnce()>>,
        finished: bool,
        stack: Option<Stack>,
    }

    pub(crate) struct Fiber {
        inner: Box<Inner>,
    }

    /// The call `mmsim_fiber_start` makes: unbox and run the entry
    /// closure (panics contained), mark the fiber finished, and switch
    /// back to the scheduler permanently.
    unsafe extern "C" fn fiber_entry(inner: *mut Inner) {
        {
            let inner = &mut *inner;
            let entry = inner.entry.take().expect("fiber entry already taken");
            // The engine's job body catches everything itself; this
            // outer catch guarantees no unwind ever crosses the
            // assembly frames even if that changes.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry));
            inner.finished = true;
        }
        mmsim_fiber_switch(
            std::ptr::addr_of_mut!((*inner).fiber_rsp),
            std::ptr::addr_of!((*inner).sched_rsp),
        );
        unreachable!("finished fiber resumed");
    }

    impl Fiber {
        pub(crate) fn new(stack_bytes: usize, entry: Box<dyn FnOnce()>) -> Self {
            let stack = lease_stack(stack_bytes);
            let mut inner = Box::new(Inner {
                fiber_rsp: 0,
                sched_rsp: 0,
                entry: Some(entry),
                finished: false,
                stack: None,
            });
            // Seed the stack (see the trampoline comment): from the
            // 16-aligned top downward — the trampoline as the switch's
            // return target, then the six pop slots (rbp, rbx = entry
            // fn, r12 = argument, r13–r15 = 0).  Seven words, so the
            // switch's `ret` leaves `rsp` at the 16-aligned top: the
            // trampoline's `call` then gives the entry function the
            // ABI state (`rsp ≡ 8 (mod 16)` at its first instruction)
            // that compiled code — and the SSE-aligned panic machinery
            // it may invoke — depends on.
            let top = stack.top() & !15usize;
            let arg: *mut Inner = &mut *inner;
            let seed: [usize; 7] = [
                0,                                       // r15
                0,                                       // r14
                0,                                       // r13
                arg as usize,                            // r12 → rdi
                fiber_entry as *const () as usize,       // rbx → call target
                0,                                       // rbp: frame-walk terminator
                mmsim_fiber_start as *const () as usize, // switch's `ret` target
            ];
            let base = (top - seed.len() * 8) as *mut usize;
            // SAFETY: the seed region lies inside the owned stack's
            // usable bytes ([top-56, top) with top ≤ its end), and `arg`
            // stays valid because `Inner` is boxed and never moved.
            unsafe { std::ptr::copy_nonoverlapping(seed.as_ptr(), base, seed.len()) };
            inner.fiber_rsp = base as usize;
            inner.stack = Some(stack);
            Self { inner }
        }

        /// Run the fiber until it suspends or its entry returns.
        /// Returns `true` once the fiber has finished (after which
        /// resuming again is a bug).
        pub(crate) fn resume(&mut self) -> bool {
            assert!(!self.inner.finished, "resumed a finished fiber");
            let inner: *mut Inner = &mut *self.inner;
            let prev = CURRENT.with(|c| c.replace(inner));
            // SAFETY: `inner` is a live boxed control block whose
            // seeded (or previously saved) `fiber_rsp` points into its
            // own stack allocation; the switch protocol guarantees the
            // fiber switches back through `sched_rsp` exactly once per
            // resume.
            unsafe {
                mmsim_fiber_switch(
                    std::ptr::addr_of_mut!((*inner).sched_rsp),
                    std::ptr::addr_of!((*inner).fiber_rsp),
                );
            }
            CURRENT.with(|c| c.set(prev));
            self.inner.finished
        }

        pub(crate) fn finished(&self) -> bool {
            self.inner.finished
        }
    }

    impl Drop for Fiber {
        fn drop(&mut self) {
            let stack = self.inner.stack.take().expect("fiber stack already taken");
            if self.inner.finished {
                release_stack(stack);
            } else {
                // Suspended frames still own values; freeing the stack
                // is memory-safe (the fiber can never run again) but
                // skips their destructors, so the mapping is leaked
                // rather than recycled.  Unreachable short of an
                // engine bug — the scheduler cancels parked fibers.
                debug_assert!(false, "dropped a suspended fiber (engine bug)");
                std::mem::forget(stack);
            }
        }
    }

    /// Switch from the running fiber back to its scheduler.  The next
    /// [`Fiber::resume`] returns control to just after this call.
    ///
    /// # Panics
    /// Panics when called outside a fiber.
    pub(crate) fn suspend() {
        let inner = CURRENT.with(Cell::get);
        assert!(
            !inner.is_null(),
            "fiber::suspend called outside a running fiber"
        );
        // SAFETY: inside a resume, `inner` is the live control block of
        // the running fiber and `sched_rsp` holds the scheduler context
        // saved by that resume.
        unsafe {
            mmsim_fiber_switch(
                std::ptr::addr_of_mut!((*inner).fiber_rsp),
                std::ptr::addr_of!((*inner).sched_rsp),
            );
        }
    }
}

// =====================================================================
// Portable fallback: one parked OS thread per fiber.  Condvar handoffs
// preserve the exactly-one-side-runs protocol (and its happens-before
// edges), so the event scheduler behaves identically — only slower.
// =====================================================================
#[cfg(not(target_arch = "x86_64"))]
mod imp {
    use super::lease_stack;
    use std::sync::{Arc, Condvar, Mutex};

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Turn {
        Scheduler,
        Fiber,
        Finished,
    }

    struct Shared {
        turn: Mutex<Turn>,
        handoff: Condvar,
    }

    impl Shared {
        fn give_turn(&self, to: Turn) {
            *self.turn.lock().expect("fiber handoff poisoned") = to;
            self.handoff.notify_all();
        }

        fn await_turn(&self, want: Turn) -> Turn {
            let mut turn = self.turn.lock().expect("fiber handoff poisoned");
            while !(*turn == want || *turn == Turn::Finished) {
                turn = self.handoff.wait(turn).expect("fiber handoff poisoned");
            }
            *turn
        }
    }

    thread_local! {
        static CURRENT: std::cell::RefCell<Option<Arc<Shared>>> =
            const { std::cell::RefCell::new(None) };
    }

    /// Moves a non-`Send` entry closure onto the fiber thread.  Sound
    /// for the same reason scoped threads are: the handoff protocol
    /// gives every access a happens-before edge, and exactly one side
    /// runs at a time.
    struct AssertSend<T>(T);
    unsafe impl<T> Send for AssertSend<T> {}

    pub(crate) struct Fiber {
        shared: Arc<Shared>,
        finished: bool,
    }

    impl Fiber {
        pub(crate) fn new(stack_bytes: usize, entry: Box<dyn FnOnce()>) -> Self {
            // Keep the stack pool exercised (and sizes honoured) even
            // though the real stack belongs to the OS thread.
            drop(lease_stack(stack_bytes.min(1 << 16)));
            let shared = Arc::new(Shared {
                turn: Mutex::new(Turn::Scheduler),
                handoff: Condvar::new(),
            });
            let theirs = Arc::clone(&shared);
            let entry = AssertSend(entry);
            std::thread::Builder::new()
                .name("mmsim-fiber".into())
                .stack_size(stack_bytes)
                .spawn(move || {
                    let entry = entry;
                    theirs.await_turn(Turn::Fiber);
                    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&theirs)));
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry.0));
                    CURRENT.with(|c| *c.borrow_mut() = None);
                    theirs.give_turn(Turn::Finished);
                })
                .expect("failed to spawn fallback fiber thread");
            Self {
                shared,
                finished: false,
            }
        }

        pub(crate) fn resume(&mut self) -> bool {
            assert!(!self.finished, "resumed a finished fiber");
            self.shared.give_turn(Turn::Fiber);
            if self.shared.await_turn(Turn::Scheduler) == Turn::Finished {
                self.finished = true;
            }
            self.finished
        }

        pub(crate) fn finished(&self) -> bool {
            self.finished
        }
    }

    pub(crate) fn suspend() {
        let shared = CURRENT.with(|c| c.borrow().clone());
        let shared = shared.expect("fiber::suspend called outside a running fiber");
        shared.give_turn(Turn::Scheduler);
        shared.await_turn(Turn::Fiber);
    }
}

pub(crate) use imp::{suspend, Fiber};

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn runs_to_completion_without_suspending() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let inner = Rc::clone(&log);
        let entry: Box<dyn FnOnce()> = Box::new(move || inner.borrow_mut().push(42));
        // SAFETY: the fiber completes before `log` is dropped — resume
        // below runs it to the end within this scope.
        let entry: Box<dyn FnOnce()> = unsafe { std::mem::transmute(entry) };
        let mut fiber = Fiber::new(stack_bytes(), entry);
        assert!(!fiber.finished());
        assert!(fiber.resume());
        assert!(fiber.finished());
        assert_eq!(*log.borrow(), vec![42]);
    }

    #[test]
    fn suspend_and_resume_interleave() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let inner = Rc::clone(&log);
        let entry: Box<dyn FnOnce()> = Box::new(move || {
            inner.borrow_mut().push(1);
            suspend();
            inner.borrow_mut().push(3);
            suspend();
            inner.borrow_mut().push(5);
        });
        // SAFETY: driven to completion below, within `log`'s lifetime.
        let entry: Box<dyn FnOnce()> = unsafe { std::mem::transmute(entry) };
        let mut fiber = Fiber::new(stack_bytes(), entry);
        assert!(!fiber.resume());
        log.borrow_mut().push(2);
        assert!(!fiber.resume());
        log.borrow_mut().push(4);
        assert!(fiber.resume());
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn panicking_entry_is_contained_and_finishes() {
        let entry: Box<dyn FnOnce()> = Box::new(|| panic!("inside fiber"));
        let mut fiber = Fiber::new(stack_bytes(), entry);
        assert!(fiber.resume(), "a panicked fiber still finishes");
    }

    #[test]
    fn many_fibers_interleave_deterministically() {
        // 64 fibers each append (id, round) twice with a suspend in
        // between; resuming them round-robin must interleave exactly.
        const N: usize = 64;
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut fibers: Vec<Fiber> = (0..N)
            .map(|id| {
                let inner = Rc::clone(&log);
                let entry: Box<dyn FnOnce()> = Box::new(move || {
                    inner.borrow_mut().push((id, 0));
                    suspend();
                    inner.borrow_mut().push((id, 1));
                });
                // SAFETY: all fibers are driven to completion below.
                let entry: Box<dyn FnOnce()> = unsafe { std::mem::transmute(entry) };
                Fiber::new(stack_bytes(), entry)
            })
            .collect();
        for f in &mut fibers {
            assert!(!f.resume());
        }
        for f in &mut fibers {
            assert!(f.resume());
        }
        let expect: Vec<(usize, usize)> = (0..N)
            .map(|id| (id, 0))
            .chain((0..N).map(|id| (id, 1)))
            .collect();
        assert_eq!(*log.borrow(), expect);
    }

    #[test]
    fn deep_call_stacks_survive_suspension() {
        fn descend(depth: usize, acc: u64) -> u64 {
            if depth == 0 {
                suspend();
                acc
            } else {
                // Non-tail so every level keeps a live frame across
                // the suspension point.
                descend(depth - 1, acc + depth as u64) + 1
            }
        }
        let out = Rc::new(Cell::new(0u64));
        let inner = Rc::clone(&out);
        let entry: Box<dyn FnOnce()> = Box::new(move || inner.set(descend(100, 0)));
        // SAFETY: driven to completion below.
        let entry: Box<dyn FnOnce()> = unsafe { std::mem::transmute(entry) };
        let mut fiber = Fiber::new(stack_bytes(), entry);
        assert!(!fiber.resume());
        assert!(fiber.resume());
        assert_eq!(out.get(), (1..=100u64).sum::<u64>() + 100);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn finished_stacks_return_to_the_pool() {
        // A size no other test leases, so parallel tests (which share
        // the process-wide pool) cannot take it out from under us.
        const UNIQUE: usize = 192 << 10;
        let mut fiber = Fiber::new(UNIQUE, Box::new(|| {}));
        assert!(fiber.resume());
        drop(fiber);
        let parked = pooled_stacks().contains(&UNIQUE);
        assert!(parked, "finished fiber must park its stack for reuse");
        // And the next same-size lease gets it back.
        let mut again = Fiber::new(UNIQUE, Box::new(|| {}));
        assert!(again.resume());
        assert!(!pooled_stacks().contains(&UNIQUE));
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_page_below_each_stack_is_a_guard() {
        let stack = stack::alloc(64 << 10);
        let guard = stack.top() - stack.len() - stack::GUARD;
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        let line = maps
            .lines()
            .find(|l| l.starts_with(&format!("{guard:x}-")))
            .unwrap_or_else(|| panic!("no mapping starts at {guard:#x}"));
        let end = format!("{:x}", guard + stack::GUARD);
        assert!(line.split_whitespace().next() == Some(&format!("{guard:x}-{end}")));
        assert!(line.contains(" ---p "), "guard page is accessible: {line}");
    }

    /// A second filter on the child's command line: it matches no test
    /// name, and its presence tells the test it is the child.
    #[cfg(target_arch = "x86_64")]
    const OVERFLOW_CHILD: &str = "fiber-overflow-child";

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn overflowing_a_fiber_stack_dies_by_signal() {
        use std::os::unix::process::ExitStatusExt;

        if std::env::args().any(|a| a == OVERFLOW_CHILD) {
            fn recurse(depth: u64) -> u64 {
                if std::hint::black_box(depth) == u64::MAX {
                    return 0;
                }
                let frame = std::hint::black_box([depth; 32]);
                recurse(depth + 1).wrapping_add(frame[(depth % 32) as usize])
            }
            let mut fiber = Fiber::new(
                64 << 10,
                Box::new(|| {
                    std::hint::black_box(recurse(0));
                }),
            );
            fiber.resume();
            // Unreachable unless the overflow went unnoticed.
            std::process::exit(0);
        }
        let name = module_path!()
            .split_once("::")
            .map(|(_, path)| format!("{path}::overflowing_a_fiber_stack_dies_by_signal"))
            .unwrap();
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([name.as_str(), "--exact", "--test-threads=1", OVERFLOW_CHILD])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("running 1 test"),
            "the child must run exactly this test: {stdout}"
        );
        assert!(
            out.status.signal().is_some(),
            "the child must die by signal, got {:?}; stderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn stack_size_parsing() {
        assert_eq!(parse_stack_bytes(None), 1 << 20);
        assert_eq!(parse_stack_bytes(Some("256")), 256 << 10);
        assert_eq!(parse_stack_bytes(Some(" 64 ")), 64 << 10);
        for junk in ["abc", "-5", "1.5", "", "0", "63"] {
            let result = std::panic::catch_unwind(|| parse_stack_bytes(Some(junk)));
            assert!(result.is_err(), "{junk:?} must be rejected");
        }
    }
}
