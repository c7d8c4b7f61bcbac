//! The bulk codec of doubles, `encode_f64s` / `decode_f64s`: bit-exact
//! round trips of every class of value, named panics on payloads that do not
//! fit their destination, and byte equality with the per-element encoder it
//! replaced, kept here as the oracle.

use mpmd_am as am;
use proptest::prelude::*;

/// The encoder both runtimes used before: eight bytes appended at a time.
fn oracle_encode(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn round_trip_bits(bits: &[u64]) {
    let vals: Vec<f64> = bits.iter().map(|b| f64::from_bits(*b)).collect();
    let mut wire = Vec::new();
    am::encode_f64s(&mut wire, &vals);
    assert_eq!(
        wire,
        oracle_encode(&vals),
        "wire bytes differ from the oracle's"
    );
    let mut back = vec![0.0; vals.len()];
    am::decode_f64s(&wire, &mut back);
    let got: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, bits, "a value changed its bits on the way");
}

#[test]
fn special_values_round_trip_bit_for_bit() {
    round_trip_bits(&[
        0x7ff8_0000_0000_0000, // quiet NaN
        0xfff8_0000_dead_beef, // quiet NaN, sign and payload set
        0x7ff0_0000_0000_0001, // signalling NaN
        0x7ff4_0000_0000_0000, // signalling NaN, high payload bit
        (-0.0f64).to_bits(),
        0.0f64.to_bits(),
        1,                     // smallest subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
        0x8000_0000_0000_0001, // negative subnormal
        f64::MIN_POSITIVE.to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        f64::MAX.to_bits(),
        std::f64::consts::PI.to_bits(),
    ]);
}

#[test]
fn the_empty_slice_round_trips() {
    round_trip_bits(&[]);
    let mut wire = vec![7u8];
    am::encode_f64s(&mut wire, &[]);
    assert_eq!(wire, [7], "an empty encode appends nothing");
}

#[test]
fn encode_appends_behind_what_the_buffer_holds() {
    let mut wire = vec![1, 2, 3];
    am::encode_f64s(&mut wire, &[1.5, -2.0]);
    assert_eq!(&wire[..3], &[1, 2, 3]);
    assert_eq!(&wire[3..], &oracle_encode(&[1.5, -2.0])[..]);
}

#[test]
#[should_panic(expected = "bulk payload not a whole number of f64s: 12 bytes")]
fn a_ragged_payload_panics() {
    am::decode_f64s(&[0; 12], &mut [0.0; 1]);
}

#[test]
#[should_panic(expected = "bulk payload holds 3 f64s, its destination 2")]
fn a_payload_longer_than_its_destination_panics() {
    am::decode_f64s(&[0; 24], &mut [0.0; 2]);
}

#[test]
#[should_panic(expected = "bulk payload holds 1 f64s, its destination 2")]
fn a_payload_shorter_than_its_destination_panics() {
    am::decode_f64s(&[0; 8], &mut [0.0; 2]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any bit patterns, any length: the codec writes the oracle's bytes and
    /// reads back the very bits it was given.
    #[test]
    fn codec_matches_the_per_element_encoder(
        bits in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        round_trip_bits(&bits);
    }
}
