//! A `ByteCursor` checks an `f64`-run or length claim against the bytes
//! that remain before it allocates: a rejected claim leaves the heap
//! untouched. One `#[test]` only — the counting allocator is process-wide.

use masc_bitio::cursor::ByteCursor;
use masc_testkit::alloc::Counting;

#[global_allocator]
static HEAP: Counting = Counting::new();

#[test]
fn rejected_claims_allocate_nothing() {
    let bytes = [0u8; 64];
    // A varint length of 65 536 with two bytes behind it.
    let framed = [0x80u8, 0x80, 0x04, 1, 2];
    let base = HEAP.reset_peak();
    let mut cur = ByteCursor::new(&bytes);
    for n in [9, 1000, 1 << 20, 1 << 40] {
        assert!(cur.read_f64s(n).is_err());
    }
    assert!(ByteCursor::new(&framed).read_prefixed().is_err());
    assert_eq!(HEAP.peak(), base, "a rejected claim allocated");

    let run = cur.read_f64s(8).unwrap();
    assert_eq!(run.len(), 8);
    assert!(HEAP.peak() - base >= 64, "the accepted run is counted");
}
