//! The counting allocator counts exactly. One test per file: a second
//! test would allocate on its own thread while this one counts.

use ncc_benchmark::alloc::{count_allocs, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn counts_a_known_number_of_boxes() {
    let mut boxes: Vec<Box<u64>> = Vec::with_capacity(37);
    let ((), n) = count_allocs(|| boxes.extend((0..37u64).map(Box::new)));
    assert_eq!(boxes.len(), 37);
    assert_eq!(n, 37, "one allocation per box, none for the sized vector");
    let ((), outside) = count_allocs(|| ());
    assert_eq!(outside, 0);
    drop(Box::new(1u8)); // not counted: counting is off out here
    assert_eq!(count_allocs(|| ()).1, 0);
}
