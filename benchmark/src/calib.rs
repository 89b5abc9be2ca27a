//! The calibrated clock: reference kernels interleaved with the ops.
//!
//! The sandbox this benchmark runs in is a small shared guest whose speed
//! drifts by ±10 % between ten-second windows and by more between hours
//! (README, "Noise"), which no estimator over one run's own samples
//! removes. So every op is followed by two benchmark-owned reference
//! kernels, each run for about 4 % of the op's wall time, and every reported
//! *time* is divided by a speed factor φ — the geometric mean of the
//! kernels' measured cost over their nominal cost. An op's time is divided
//! by the φ measured right after that op, a phase's time (the timed passes,
//! the set-ups) by the φ of all its ticks together. On ten alternating
//! rounds of all five workloads this cut the run-to-run coefficient of
//! variation of throughput from 6–9 % to 1.3–4.4 % and that of the median
//! op time from 8–14 % to 1.5–4.7 % (README).
//!
//! The kernels never call product code, so a product change cannot move
//! φ: a mini discrete-event loop (binary heap, hash map, ring queues)
//! stands for the engine, and a JSON-lines format-and-scan loop
//! (formatting, splitting, integer parsing) stands for the artifact paths.
//! Neither allocates once warm: a kernel that did was once slowed 2× for a
//! whole run by the heap state `cached_rerun` leaves behind.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::alloc;
use crate::spans::{self, Counts, Ctx};

/// Nominal cost of one `kernel_des` call, µs: its median over fifty runs on
/// the sandbox the first result was taken on. It only fixes the scale of
/// the calibrated clock — φ is 1 on a machine in that state.
pub const DES_NOMINAL_US: f64 = 90.0;
/// Nominal cost of one `kernel_json` call, µs (same fifty runs).
pub const JSON_NOMINAL_US: f64 = 57.0;
/// Each kernel gets `1 / DUTY_DIVISOR` of the preceding op's wall time.
const DUTY_DIVISOR: u64 = 25;

/// Working state of the kernels, one per thread, built on first use.
struct State {
    heap: BinaryHeap<(Reverse<u64>, u32)>,
    queues: Vec<VecDeque<(u64, u32)>>,
    flows: HashMap<u32, (u64, f64)>,
    x: u64,
    now: u64,
    text: String,
}

impl State {
    fn new() -> State {
        let mut heap = BinaryHeap::with_capacity(256);
        for i in 0..48u32 {
            heap.push((Reverse(u64::from(i) * 37), i));
        }
        State {
            heap,
            queues: (0..8).map(|_| VecDeque::with_capacity(64)).collect(),
            flows: HashMap::new(),
            x: 0x9e37_79b9_7f4a_7c15,
            now: 0,
            text: String::with_capacity(1 << 16),
        }
    }

    fn next_random(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }
}

/// Engine-like work: pop the next event, touch a flow table, enqueue on a
/// link, reschedule. Allocation-free, so the state of the process heap —
/// which the workloads leave very different — cannot slow it.
fn kernel_des(s: &mut State) -> u64 {
    let mut acc = 0u64;
    for _ in 0..2_000 {
        let x = s.next_random();
        let (Reverse(at), id) = s.heap.pop().expect("the heap holds 48 events");
        s.now = at;
        let flow = s.flows.entry(id & 15).or_insert((0, 0.0));
        flow.0 += 1140;
        flow.1 = flow.1 * 0.99 + (x & 1023) as f64 * 0.01;
        let queue = &mut s.queues[id as usize & 7];
        queue.push_back((at, id));
        if queue.len() > 24 {
            let (t, _) = queue.pop_front().expect("the queue is non-empty");
            acc = acc.wrapping_add(t);
        }
        s.heap.push((Reverse(at + 1 + (x & 4095)), id));
    }
    acc ^ s.flows.len() as u64
}

/// Artifact-like work: format 200 event lines into a reused buffer, then
/// split them into fields and parse the numbers. Allocation-free too.
fn kernel_json(s: &mut State) -> u64 {
    s.text.clear();
    for i in 0..200u64 {
        let x = s.next_random();
        writeln!(
            s.text,
            "{{\"t\":{},\"kind\":\"packet_enqueue\",\"link\":{},\"flow\":{},\"pkt\":{},\"bytes\":{},\"queue_bytes\":{}}}",
            s.now + i,
            i & 7,
            10 + (i & 1),
            x & 0xff_ffff,
            1140,
            x & 0xffff
        )
        .expect("writing to a String cannot fail");
    }
    let mut acc = 0u64;
    for line in s.text.lines() {
        let mut fields = [("", 0u64); 8];
        let parts = line.trim_matches(|c| c == '{' || c == '}').split(',');
        for (slot, part) in fields.iter_mut().zip(parts) {
            if let Some((key, value)) = part.split_once(':') {
                *slot = (
                    key.trim_matches('"'),
                    value.parse().unwrap_or(value.len() as u64),
                );
            }
        }
        acc = acc.wrapping_add(fields.iter().map(|(k, v)| k.len() as u64 + v).sum::<u64>());
    }
    acc
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Sums over every tick since the last [`take`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reading {
    /// Nanoseconds spent in `kernel_des`.
    pub des_ns: f64,
    /// Calls of `kernel_des`.
    pub des_calls: f64,
    /// Nanoseconds spent in `kernel_json`.
    pub json_ns: f64,
    /// Calls of `kernel_json`.
    pub json_calls: f64,
}

impl Reading {
    /// Measured cost of one `kernel_des` call, µs.
    pub fn des_us(&self) -> f64 {
        self.des_ns / self.des_calls / 1e3
    }

    /// Measured cost of one `kernel_json` call, µs.
    pub fn json_us(&self) -> f64 {
        self.json_ns / self.json_calls / 1e3
    }

    /// The speed factor φ: how many times slower than the reference machine
    /// this stretch of time ran (1.0 when nothing was measured).
    pub fn factor(&self) -> f64 {
        if self.des_calls == 0.0 || self.json_calls == 0.0 {
            return 1.0;
        }
        ((self.des_us() / DES_NOMINAL_US) * (self.json_us() / JSON_NOMINAL_US)).sqrt()
    }

    /// Wall nanoseconds the kernels took, summed over threads.
    pub fn total_ns(&self) -> f64 {
        self.des_ns + self.json_ns
    }

    /// Both readings together.
    pub fn plus(&self, other: &Reading) -> Reading {
        Reading {
            des_ns: self.des_ns + other.des_ns,
            des_calls: self.des_calls + other.des_calls,
            json_ns: self.json_ns + other.json_ns,
            json_calls: self.json_calls + other.json_calls,
        }
    }
}

static READING: Mutex<Reading> = Mutex::new(Reading {
    des_ns: 0.0,
    des_calls: 0.0,
    json_ns: 0.0,
    json_calls: 0.0,
});

/// Allocation calls made by the kernels (to be left out of op counts).
static KERNEL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocation calls the kernels have made so far, process-wide.
pub fn kernel_allocs() -> u64 {
    KERNEL_ALLOCS.load(Ordering::Relaxed)
}

/// Run one kernel for at least `budget_ns`; returns (nanoseconds, calls).
fn spend(kernel: fn(&mut State) -> u64, budget_ns: u64) -> (f64, f64) {
    STATE.with(|state| {
        let mut state = state.borrow_mut();
        let state = state.get_or_insert_with(State::new);
        let t = Instant::now();
        let mut calls = 0.0;
        loop {
            black_box(kernel(state));
            calls += 1.0;
            let spent = t.elapsed().as_nanos() as u64;
            if spent >= budget_ns {
                return (spent as f64, calls);
            }
        }
    })
}

/// Sample the machine's speed right after an op that took `op_wall_ns`:
/// both kernels, each for about 4 % of that time (at least one call).
pub fn tick(ctx: Ctx, op_wall_ns: u64) -> Reading {
    let g = spans::enter(ctx, "bench.calibration", "");
    let allocs0 = alloc::local();
    let budget = op_wall_ns / DUTY_DIVISOR;
    let (des_ns, des_calls) = spend(kernel_des, budget);
    let (json_ns, json_calls) = spend(kernel_json, budget);
    KERNEL_ALLOCS.fetch_add(alloc::local() - allocs0, Ordering::Relaxed);
    let this = Reading {
        des_ns,
        des_calls,
        json_ns,
        json_calls,
    };
    {
        let mut total = READING
            .lock()
            .expect("the calibration reading is plain numbers");
        *total = total.plus(&this);
    }
    g.finish(Counts::none().with("calls", (des_calls + json_calls) as u64));
    this
}

/// The reading accumulated so far, without resetting it.
pub fn peek() -> Reading {
    *READING
        .lock()
        .expect("the calibration reading is plain numbers")
}

/// Take the reading accumulated since the last call and start afresh.
pub fn take() -> Reading {
    std::mem::take(
        &mut *READING
            .lock()
            .expect("the calibration reading is plain numbers"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic_and_ticks_accumulate() {
        let (mut a, mut b) = (State::new(), State::new());
        assert_eq!(kernel_des(&mut a), kernel_des(&mut b));
        assert_eq!(kernel_json(&mut a), kernel_json(&mut b));
        assert_eq!(a.text, b.text);
        assert!(a.text.lines().count() == 200);

        let (ns, calls) = spend(kernel_des, 2_000_000);
        assert!(ns >= 2_000_000.0 && calls >= 1.0);
        let (_, calls) = spend(kernel_json, 0);
        assert_eq!(calls, 1.0, "a zero budget still measures once");
    }

    #[test]
    fn factor_is_the_geometric_mean_of_the_two_slowdowns() {
        let r = Reading {
            des_ns: 10.0 * 1.5 * DES_NOMINAL_US * 1e3,
            des_calls: 10.0,
            json_ns: 4.0 * 1.5 * JSON_NOMINAL_US * 1e3,
            json_calls: 4.0,
        };
        assert!((r.factor() - 1.5).abs() < 1e-12);
        assert_eq!(Reading::default().factor(), 1.0);
        let skewed = Reading {
            des_ns: 4.0 * DES_NOMINAL_US * 1e3,
            des_calls: 1.0,
            json_ns: JSON_NOMINAL_US * 1e3,
            json_calls: 1.0,
        };
        assert!((skewed.factor() - 2.0).abs() < 1e-12);
    }
}
