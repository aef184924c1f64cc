//! The allocation contract of the transient's time step (DESIGN.md §13.3):
//! an accepted step on the dense tier allocates nothing, so a transient's
//! allocation count does not grow with its step count. What may still
//! grow is the result itself: the accepted times and the row-major state
//! vector each double their capacity about `log2(steps)` times.
//!
//! A counting global allocator measures this. Its counter is a const
//! thread-local, so the test threads that the harness runs side by side
//! each count only their own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ssn_lab::core::oracle::reference_config;
use ssn_lab::spice::parser::parse_deck_file;
use ssn_lab::spice::synth::{ssn_equivalent_circuit, ssn_tran_options, SsnSynthParams};
use ssn_lab::spice::{transient, Circuit, TranOptions, TranResult};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every `alloc`, `alloc_zeroed` and `realloc` of the calling
/// thread, then defers to the system allocator.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a const
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs one transient and returns it with the allocations it made.
fn counted_transient(circuit: &Circuit, opts: TranOptions) -> (TranResult, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = transient(circuit, opts).expect("transient runs");
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// Asserts that refining `opts`'s step cap by `refine` adds at most
/// `2 ⌈log2 steps⌉` allocations, `steps` being the fine run's count.
fn assert_flat_in_steps(what: &str, circuit: &Circuit, opts: TranOptions, refine: f64) {
    let fine_opts = TranOptions {
        dt_max: opts.dt_max / refine,
        ..opts.clone()
    };
    let (coarse, coarse_allocs) = counted_transient(circuit, opts);
    let (fine, fine_allocs) = counted_transient(circuit, fine_opts);
    let steps = fine.len();
    assert!(
        steps as f64 > coarse.len() as f64 * refine / 2.0,
        "{what}: refining the cap {refine}x took {} to only {steps} steps",
        coarse.len()
    );
    let allowance = 2 * u64::from(steps.next_power_of_two().trailing_zeros());
    assert!(
        fine_allocs <= coarse_allocs + allowance,
        "{what}: {coarse_allocs} allocations at {} steps ({} Newton iterations) but \
         {fine_allocs} at {steps} steps ({} Newton iterations); at most {allowance} more \
         are allowed for the growing result",
        coarse.len(),
        coarse.newton_iterations(),
        fine.newton_iterations()
    );
}

/// The oracle's linearized SSN circuit at the paper's reference point, at
/// its own cap `t_r/200` and at `t_r/20000`: factor-cache hits and misses
/// both stay off the heap.
#[test]
fn linear_transient_allocations_do_not_grow_with_steps() {
    let s = reference_config().validate().expect("reference is valid");
    let p = SsnSynthParams {
        bank_gm: s.n_drivers() as f64 * s.asdm().k().value(),
        sigma: s.asdm().sigma(),
        v0: s.asdm().v0().value(),
        vdd: s.vdd().value(),
        inductance: s.inductance().value(),
        capacitance: s.capacitance().value(),
        rise_time: s.rise_time().value(),
    };
    let circuit = ssn_equivalent_circuit(&p).expect("circuit builds");
    assert_flat_in_steps("linear SSN circuit", &circuit, ssn_tran_options(&p), 100.0);
}

/// The pad-ring deck (MOSFETs and diodes: a fresh factorization on every
/// Newton iteration) at its own `.tran` step and at a 16x finer cap.
#[test]
fn nonlinear_transient_allocations_do_not_grow_with_newton_iterations() {
    let deck = parse_deck_file(concat!(env!("CARGO_MANIFEST_DIR"), "/decks/pad_ring.sp"))
        .expect("deck parses");
    let opts = deck.tran.expect("deck has a .tran card").to_options();
    assert_flat_in_steps("decks/pad_ring.sp", &deck.circuit, opts, 16.0);
}
