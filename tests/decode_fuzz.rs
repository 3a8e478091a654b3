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

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{largest, reset_largest};
use hier_ssta::core::codec::{decode_model, encode_model, MODEL_CODEC_VERSION};
use hier_ssta::core::{ExtractOptions, ModuleContext, SstaConfig};
use hier_ssta::netlist::generators;
use proptest::test_runner::TestRng;

/// The largest single allocation any case may request.
const ALLOCATION_CAP: usize = 64 << 20;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

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
