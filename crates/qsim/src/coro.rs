//! Stackful coroutines: the execution contexts simulated processes run on.
//!
//! Every simulated process gets a [`Coroutine`]: a private stack plus one
//! saved stack pointer. All coroutines of a simulation run on the OS thread
//! that calls [`crate::Simulation::run`], and moving between the scheduler
//! and a process is a user-space register swap (`qsim_switch`, a dozen
//! instructions) rather than an OS context switch.
//!
//! Invariants the kernel relies on:
//!
//! - **Unwinding never crosses a switch.** The entry function runs the
//!   body under `catch_unwind` on the coroutine's own stack; a panic comes
//!   back to the resumer as a value ([`Outcome`]), never as an unwind.
//! - **Only the resumer resumes.** [`Coroutine::resume`] is called by the
//!   scheduler loop of the simulation that owns the coroutine, and
//!   [`Coroutine::suspend`] only from inside the running body, so the
//!   `Cell`s below are never touched from two threads at once.
//! - **A finished coroutine holds no memory.** Its stack is unmapped as
//!   soon as the body's outcome reaches the resumer.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("qsim's coroutine process backend supports x86_64 Linux only");

use std::any::Any;
use std::cell::Cell;
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::kernel::Go;

/// Usable stack per process: 2 MiB, the default stack of a spawned std
/// thread, so code that runs on a thread also fits in a process.
const STACK_SIZE: usize = 2 << 20;
/// Size of the inaccessible guard page below each stack.
const PAGE: usize = 4096;

/// How a body ended: `Ok` on return, the panic payload on a panic.
pub(crate) type Outcome = Result<(), Box<dyn Any + Send>>;

/// A process body, handed a strong reference to its own coroutine.
pub(crate) type Body = Box<dyn FnOnce(Arc<Coroutine>) + Send>;

// `qsim_switch(save, to, arg) -> arg`: push the callee-saved registers,
// store `rsp` in `*save`, load `to` as the new `rsp`, pop the registers
// saved there and return into that context with `arg` in `rax`. The
// MXCSR and x87 control words are callee-saved too, but nothing in the
// simulator changes them, so they are left alone.
//
// `qsim_trampoline` is where a fresh coroutine's first switch "returns"
// to: `rax` holds the first resume argument and `rbx` the coroutine
// pointer written into the initial frame by `Coroutine::new`. The
// undefined return address ends backtraces here.
std::arch::global_asm!(
    ".text",
    ".globl qsim_switch",
    ".type qsim_switch,@function",
    ".p2align 4",
    "qsim_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "mov rax, rdx",
    "ret",
    ".size qsim_switch, .-qsim_switch",
    "",
    ".globl qsim_trampoline",
    ".type qsim_trampoline,@function",
    ".p2align 4",
    "qsim_trampoline:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, rax",
    "mov rsi, rbx",
    "call {entry}",
    "ud2",
    ".cfi_endproc",
    ".size qsim_trampoline, .-qsim_trampoline",
    entry = sym coro_entry,
);

extern "C" {
    fn qsim_switch(save: *mut usize, to: usize, arg: usize) -> usize;
    fn qsim_trampoline();
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
/// Marks the mapping as a stack: recent kernels then never back it with
/// a transparent huge page, which would make every process cost 2 MiB of
/// RSS on the first touch.
const MAP_STACK: i32 = 0x20000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// One process stack: a guard page followed by [`STACK_SIZE`] bytes,
/// mapped straight from the kernel so that only touched pages count
/// towards RSS and the whole range goes back to the kernel on drop.
/// (A 2 MiB `std::alloc` block would instead land in malloc's main arena
/// once freed and stay resident.)
struct Stack {
    base: *mut c_void,
}

// SAFETY: a `Stack` exclusively owns its mapping.
unsafe impl Send for Stack {}

impl Stack {
    fn new() -> Stack {
        let len = PAGE + STACK_SIZE;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: a fresh anonymous mapping aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                flags,
                -1,
                0,
            )
        };
        if base == MAP_FAILED {
            panic!(
                "cannot map a simulated process stack: {}",
                std::io::Error::last_os_error()
            );
        }
        // SAFETY: the first page of the mapping just created.
        if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
            panic!(
                "cannot protect a simulated process stack guard page: {}",
                std::io::Error::last_os_error()
            );
        }
        Stack { base }
    }

    /// Highest address of the stack (exclusive); page-aligned.
    fn top(&self) -> usize {
        self.base as usize + PAGE + STACK_SIZE
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping made in `Stack::new`, no longer executing.
        unsafe { munmap(self.base, PAGE + STACK_SIZE) };
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum State {
    /// Created, body not yet entered.
    Fresh,
    /// Executing on its own stack.
    Running,
    /// Parked inside [`Coroutine::suspend`].
    Suspended,
    /// Body returned or panicked; the stack is gone.
    Done,
}

/// A body plus the stack it runs on. See the module docs.
pub(crate) struct Coroutine {
    /// Saved stack pointer of whichever side is *not* running: the
    /// coroutine's own while it is fresh or suspended, the resumer's while
    /// it runs. One slot serves both directions because `qsim_switch`
    /// reads the target before it stores the current `rsp`.
    sp: Cell<usize>,
    state: Cell<State>,
    body: Cell<Option<Body>>,
    outcome: Cell<Option<Outcome>>,
    stack: Cell<Option<Stack>>,
}

// SAFETY: every field is a `Cell`. `sp`, `state` and `outcome` are only
// touched inside `resume`, `suspend` and the entry function, all on the
// thread running the owning simulation (see the module docs). `body` and
// `stack` are also dropped by whoever drops an unstarted simulation, when
// no other thread can reach the coroutine; `Body` is `Send`, and a
// `Stack` is plain memory.
unsafe impl Sync for Coroutine {}

impl Coroutine {
    /// A fresh coroutine whose first [`resume`](Coroutine::resume) enters
    /// `body` (or, if that first resume says [`Go::Shutdown`], drops it
    /// unrun).
    pub(crate) fn new(body: Body) -> Arc<Coroutine> {
        let stack = Stack::new();
        // Initial frame, as `qsim_switch` pops it: r15 r14 r13 r12 rbx rbp,
        // then the return address. The trampoline starts with
        // `rsp == top`, so `entry` sees the ABI's call alignment.
        let sp = stack.top() - 7 * 8;
        let coro = Arc::new(Coroutine {
            sp: Cell::new(sp),
            state: Cell::new(State::Fresh),
            body: Cell::new(Some(body)),
            outcome: Cell::new(None),
            stack: Cell::new(Some(stack)),
        });
        let frame = [
            0,
            0,
            0,
            0,
            Arc::as_ptr(&coro) as usize,
            0,
            qsim_trampoline as *const () as usize,
        ];
        // SAFETY: the top 56 bytes of the stack just mapped.
        unsafe { std::ptr::copy_nonoverlapping(frame.as_ptr(), sp as *mut usize, frame.len()) };
        coro
    }

    /// Run the coroutine until it suspends (`None`) or its body ends
    /// (`Some(outcome)`, after which the stack is already unmapped).
    ///
    /// The caller must hold a strong reference for the duration, and must
    /// not hold any lock the body might take.
    pub(crate) fn resume(&self, go: Go) -> Option<Outcome> {
        let state = self.state.get();
        assert!(
            matches!(state, State::Fresh | State::Suspended),
            "resumed a {state:?} coroutine"
        );
        self.state.set(State::Running);
        // SAFETY: `sp` holds the coroutine's saved context (its initial
        // frame or the point where it last suspended), on a stack that
        // stays mapped until the body ends.
        unsafe { qsim_switch(self.sp.as_ptr(), self.sp.get(), go as usize) };
        let outcome = self.outcome.take()?;
        self.state.set(State::Done);
        self.stack.take();
        Some(outcome)
    }

    /// Give control back to the resumer; returns the command passed to the
    /// next [`resume`](Coroutine::resume).
    pub(crate) fn suspend(&self) -> Go {
        assert_eq!(
            self.state.get(),
            State::Running,
            "a process may only park from inside its own body"
        );
        self.state.set(State::Suspended);
        // SAFETY: the coroutine is running, so `sp` holds the resumer's
        // context, which is suspended inside `resume`.
        let go = unsafe { qsim_switch(self.sp.as_ptr(), self.sp.get(), 0) };
        Go::from_raw(go)
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        if self.state.get() == State::Suspended {
            // Only reachable when a run is abandoned mid-way (the kernel
            // panicked). Freeing the stack would discard live frames
            // without running their destructors; leak it instead.
            std::mem::forget(self.stack.take());
        }
    }
}

/// First Rust frame on every coroutine stack; never returns.
extern "C" fn coro_entry(go: usize, coro: *const Coroutine) -> ! {
    // SAFETY: `Coroutine::new` put a pointer to the coroutine in the
    // initial frame, and the resumer holds a strong reference while the
    // coroutine runs; the extra count taken here moves into the body.
    let (me, coro) = unsafe {
        Arc::increment_strong_count(coro);
        (Arc::from_raw(coro), &*coro)
    };
    let body = coro.body.take().expect("coroutine entered twice");
    let run = Go::from_raw(go) == Go::Run;
    // Dropping an unrun body can panic too, so both paths are caught.
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        if run {
            body(me)
        }
    }));
    coro.outcome.set(Some(outcome));
    // SAFETY: as in `suspend`. The resumer unmaps this stack and never
    // switches back, so nothing below may own anything.
    unsafe { qsim_switch(coro.sp.as_ptr(), coro.sp.get(), 0) };
    unreachable!("a finished coroutine was resumed")
}
