//! Per-line allocation of the tokenizer, counted by a `#[global_allocator]`
//! that this test binary alone installs: once its scratch argument
//! vector has grown, tokenizing a complete-call line allocates nothing,
//! and the streaming parser adds no allocation per line either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use st_model::Interner;
use st_strace::record::{parse_line, Line};
use st_strace::{parse_str, write_case, StreamParser, WriteOptions};

/// Counts the allocations of the calling thread (the test harness runs
/// tests on threads of their own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The strace text `stinspect simulate ior-ssf-fpp --paper --emit-strace`
/// writes, one string per trace file.
fn paper_texts() -> Vec<String> {
    let log = st_source::sim::workload_log("ior-ssf-fpp", true).expect("known workload");
    log.cases()
        .iter()
        .map(|case| {
            let mut out = Vec::new();
            write_case(case, log.interner(), &mut out, &WriteOptions::default()).unwrap();
            String::from_utf8(out).unwrap()
        })
        .collect()
}

#[test]
fn tokenizing_complete_calls_does_not_allocate() {
    let texts = paper_texts();
    let lines: Vec<&str> = texts.iter().flat_map(|t| t.lines()).collect();
    let mut args = Vec::new();
    // Warm-up: the scratch vector grows to the widest argument list.
    for line in &lines {
        parse_line(line, &mut args);
    }
    let (count, calls) = allocations(|| {
        lines
            .iter()
            .filter(|line| matches!(parse_line(line, &mut args), Some(Line::Call(_))))
            .count()
    });
    assert!(calls > 70_000, "only {calls} complete calls");
    assert_eq!(count, 0, "{count} allocations over {calls} complete calls");
}

#[test]
fn stream_parser_allocates_nothing_per_line() {
    let texts = paper_texts();
    let interner = Interner::new_shared();
    // Intern every string first: the measured pass only looks them up.
    for text in &texts {
        parse_str(text, &interner);
    }
    let lines: Vec<&str> = texts.iter().flat_map(|t| t.lines()).collect();
    let mut parser = StreamParser::new(Arc::clone(&interner));
    let (count, ()) = allocations(|| lines.iter().for_each(|line| parser.feed_line(line)));
    assert!(parser.events_parsed() > 70_000);
    // Only the doubling of the event vector allocates.
    assert!(count < 64, "{count} allocations over {} lines", lines.len());
}
