//! The forward step allocates nothing: a counting global allocator
//! watches 1,000 steps of the audio-visual highlight net (Fig. 10/11),
//! exact and under the fully factored Boyen–Koller projection, and checks
//! that batch filtering allocates one vector per slice — the belief it
//! returns — beside a fixed set of buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use f1_bayes::bk::Clusters;
use f1_bayes::engine::Engine;
use f1_bayes::evidence::EvidenceSeq;
use f1_bayes::paper::audio_visual_dbn;

/// Counts the allocations of the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only a
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // and the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `len` slices of varied feature values for the 17 evidence nodes.
fn evidence(nodes: &[usize], len: usize) -> EvidenceSeq {
    let rows: Vec<Vec<f64>> = (0..len)
        .map(|t| {
            (0..17)
                .map(|k| ((t * 7 + k * 3) % 10) as f64 / 10.0 + 0.05)
                .collect()
        })
        .collect();
    EvidenceSeq::from_matrix(nodes, &rows)
}

#[test]
fn a_thousand_steps_allocate_nothing() {
    let (net, _) = audio_visual_dbn(true).unwrap();
    let ev = evidence(&net.feature_nodes, 1002);
    let singletons = Clusters::singletons(&net.dbn);
    for clusters in [None, Some(singletons.as_slices())] {
        let mut state = Engine::new(&net.dbn).unwrap().stepper(clusters).unwrap();
        // Slice 0 runs the prior; slice 1 fills the net's one transition
        // matrix, its only allocation.
        let warm_up = allocations_during(|| {
            state.step(&ev, 0).unwrap();
            state.step(&ev, 1).unwrap();
        });
        assert_eq!(warm_up, 1);
        let steps = allocations_during(|| {
            for t in 2..1002 {
                state.step(&ev, t).unwrap();
            }
        });
        assert_eq!(steps, 0, "clusters {clusters:?}");
        assert_eq!(state.slices(), 1002);
    }
}

#[test]
fn filter_allocates_one_belief_per_slice() {
    let (net, _) = audio_visual_dbn(true).unwrap();
    let engine = Engine::new(&net.dbn).unwrap();
    let (short, long) = (
        evidence(&net.feature_nodes, 500),
        evidence(&net.feature_nodes, 1000),
    );
    engine.filter(&short, None).unwrap();
    let a = allocations_during(|| drop(engine.filter(&short, None).unwrap()));
    let b = allocations_during(|| drop(engine.filter(&long, None).unwrap()));
    assert_eq!(b - a, 500);
}
