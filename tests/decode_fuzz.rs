//! The SSTM payload decoder is a trust boundary: store artifacts and
//! handed-over IP models arrive as untrusted bytes. This binary feeds
//! `decode_model` 2,000 seeded byte strings — half random bytes after
//! the layout version byte, half a valid payload's prefix followed by
//! random bytes — and requires each to be rejected with an error or to
//! decode into a model whose delay matrix computes. A counting global
//! allocator records the largest single allocation each case makes, and
//! no case may ask for more than 64 MiB at once: a decoder that sizes a
//! buffer from an unchecked length fails here instead of exhausting
//! memory in production.

use hier_ssta::core::codec::{decode_model, encode_model, MODEL_CODEC_VERSION};
use hier_ssta::core::{ExtractOptions, ModuleContext, SstaConfig};
use hier_ssta::netlist::generators;
use proptest::test_runner::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The largest single allocation any case may request.
const ALLOCATION_CAP: usize = 64 << 20;

thread_local! {
    /// Largest allocation or reallocation size requested on this thread
    /// since the last [`reset_largest`].
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each request's size on the calling
/// thread.
struct Counting;

fn note(size: usize) {
    // `try_with` fails only while the thread's locals are torn down;
    // allocations then go unrecorded.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates a
// thread-local `Cell` with a const initializer, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` contract passes through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` contract passes through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn reset_largest() {
    LARGEST.with(|largest| largest.set(0));
}

fn largest() -> usize {
    LARGEST.with(Cell::get)
}

fn random_bytes(rng: &mut TestRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn arbitrary_payload_bytes_are_rejected_or_decode_to_a_usable_model() {
    let ctx = ModuleContext::characterize(
        generators::iscas85("c432").expect("benchmark"),
        &SstaConfig::paper(),
    )
    .expect("characterize");
    let model = ctx
        .extract_model(&ExtractOptions::default())
        .expect("extract");
    let valid = encode_model(&model);
    reset_largest();
    let pristine = decode_model(&valid).expect("the unmodified payload decodes");
    pristine.delay_matrix().expect("its delay matrix computes");
    assert!(largest() <= ALLOCATION_CAP);

    let mut rng = TestRng::deterministic("decode_fuzz");
    let (mut rejected, mut decoded) = (0, 0);
    for case in 0..2000 {
        let bytes = if case % 2 == 0 {
            // A string failing the version byte tests nothing more.
            let len = 1 + (rng.next_u64() % 4096) as usize;
            let mut bytes = random_bytes(&mut rng, len);
            bytes[0] = MODEL_CODEC_VERSION;
            bytes
        } else {
            let cut = (rng.next_u64() % (valid.len() as u64 + 1)) as usize;
            let tail = (rng.next_u64() % 256) as usize;
            let mut bytes = valid[..cut].to_vec();
            bytes.extend(random_bytes(&mut rng, tail));
            bytes
        };

        reset_largest();
        match decode_model(&bytes) {
            Err(_) => rejected += 1,
            Ok(model) => {
                model
                    .delay_matrix()
                    .unwrap_or_else(|e| panic!("case {case}: decoded model fails: {e}"));
                decoded += 1;
            }
        }
        assert!(
            largest() <= ALLOCATION_CAP,
            "case {case}: one allocation of {} bytes ({} input bytes)",
            largest(),
            bytes.len()
        );
    }
    assert_eq!(rejected + decoded, 2000);
    assert!(rejected > 0, "no malformed input was rejected");
}
