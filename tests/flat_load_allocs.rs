//! Zero-copy loading really is zero-copy: heap allocations during a flat
//! v2 load are O(sections) — a small constant per file — independent of
//! how many nodes or labels the index holds. This is the
//! load-path contract that makes continental cold starts I/O-bound.
//!
//! This file must hold only these tests: it installs a counting global
//! allocator and the counts would be polluted by concurrent tests.

use fannr::hublabel::HubLabels;
use fannr::roadnet::Graph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation-counting wrapper around the system allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers all allocation to `System`; only adds a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations since process start.
fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations performed by `f`, excluding anything before/after.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

fn write_index(nodes: usize, tag: &str) -> (PathBuf, Graph) {
    let g = fannr::workload::synth::road_network(nodes, &mut fannr::workload::rng(11));
    let labels = HubLabels::build(&g).unwrap();
    let dir = std::env::temp_dir().join(format!("fannr-allocs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    g.write_flat(&dir.join("graph.v2")).unwrap();
    labels.write_flat(&dir.join("labels.v2")).unwrap();
    (dir, g)
}

#[test]
fn v2_load_allocations_are_constant_in_index_size() {
    // Two indexes an order of magnitude apart in size.
    let (small_dir, small_g) = write_index(400, "s");
    let (large_dir, large_g) = write_index(4000, "l");
    assert!(large_g.num_nodes() >= 8 * small_g.num_nodes());

    let load_all = |dir: &PathBuf| {
        let g = Graph::read_flat(&dir.join("graph.v2")).unwrap();
        let l = HubLabels::read_flat(&dir.join("labels.v2")).unwrap();
        (g, l)
    };

    // Warm up (File/BufReader one-time setup, test-harness noise).
    let _ = load_all(&small_dir);

    let (small_allocs, small_loaded) = allocs_during(|| load_all(&small_dir));
    let (large_allocs, large_loaded) = allocs_during(|| load_all(&large_dir));

    // Loaded indexes are real: spot-check a query structure.
    assert_eq!(small_loaded.0.num_nodes(), small_g.num_nodes());
    assert_eq!(large_loaded.0.num_nodes(), large_g.num_nodes());
    assert!(large_loaded.1.total_label_entries() > small_loaded.1.total_label_entries());

    // O(sections): a generous fixed budget per load (2 files, about a
    // dozen sections total, plus one buffer each), and — the real contract —
    // no growth with index size.
    assert!(
        small_allocs <= 256,
        "small v2 load made {small_allocs} allocations"
    );
    assert!(
        large_allocs <= small_allocs + 32,
        "v2 load allocations scale with index size: {small_allocs} -> {large_allocs}"
    );

    std::fs::remove_dir_all(&small_dir).ok();
    std::fs::remove_dir_all(&large_dir).ok();
}
