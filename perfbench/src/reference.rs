//! A fixed reference kernel that measures how fast the host runs right
//! now, so that timings can be scaled to one host speed.
//!
//! On a shared host, other tenants' work slows this process in phases
//! that last from seconds to minutes, by up to half on a 2-vCPU guest.
//! A median over a 30 s window follows those phases, so the same code
//! reads differently from window to window. The kernel runs right after
//! each timed `Scenario::run`, and the run's wall time is scaled by
//! `REFERENCE_S / kernel time`: a run that was slowed with the host
//! reads as if the host ran at the kernel's nominal speed.
//!
//! The kernel is a miniature of the simulator's own hot path: a binary
//! heap of timed events, a hash map of per-id state with small vectors
//! that grow and drain, and a short string formatted per event. Its
//! slowdowns tracked the runs' more closely than those of a DRAM pointer
//! chase or of a mix of hash-map inserts, a sort and boxed allocations.
//! It uses only `std`, its inputs are fixed, and no change to the
//! repository's crates can change its work. It keeps its buffers between
//! calls, so after the first call it does not allocate, and the heap the
//! last run left behind does not change its time.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The kernel's nominal time: scaled timings read as host seconds on a
/// host that runs the kernel in exactly this long (a typical time on a
/// 2-vCPU Xeon guest).
pub const REFERENCE_S: f64 = 0.015;

/// Events the kernel pops.
const EVENTS: usize = 60_000;

/// Ids with an event in the heap at any time.
const IDS: u32 = 4096;

/// The kernel's buffers, kept between calls. Fixed hash keys, so every
/// process does the same work.
#[derive(Default)]
struct Buffers {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: HashMap<u32, Vec<u64>, BuildHasherDefault<DefaultHasher>>,
    text: String,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::default();
}

/// Runs the kernel once and returns its wall time in seconds.
pub fn kernel_s() -> f64 {
    BUFFERS.with(|b| {
        let Buffers { heap, state, text } = &mut *b.borrow_mut();
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        heap.clear();
        state.values_mut().for_each(Vec::clear);
        heap.extend((0..IDS).map(|id| Reverse((next() % 1000, id))));
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((now, id)) = heap.pop().expect("one event per id");
            let log = state.entry(id).or_default();
            log.push(now);
            if log.len() > 16 {
                acc = acc.wrapping_add(log.drain(..8).sum::<u64>());
            }
            text.clear();
            write!(text, "{id}:{now}").expect("writing to a String");
            acc = acc.wrapping_add(text.len() as u64);
            heap.push(Reverse((now + 1 + next() % 1000, id)));
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    })
}
