//! Argument marshalling.
//!
//! "In CC++ the arguments of a remote method invocation can be arbitrary
//! objects and each object defines its own serialization methods. Thus, in
//! general, the compiler must invoke a method to serialize each argument
//! into the outgoing message buffer and, on message reception, the stub must
//! similarly invoke a method to extract each argument... this flexibility
//! incurs at least one extra copying of the data as well as the overhead of
//! calling the serialization methods."
//!
//! [`MarshalBuf`] / [`UnmarshalBuf`] perform the real serialization into a
//! byte buffer and charge [`CcxxCosts::serialize_per_elem`] per element plus
//! the per-byte copy cost, exactly where the paper accounts them.

use crate::state::CcxxState;
use bytes::Bytes;
use mpmd_am as am;
use mpmd_fabric::Fabric;
use mpmd_sim::Bucket;

/// A type that knows how to serialize itself into an RMI message buffer.
pub trait Marshal: Sized {
    /// Append the wire representation.
    fn write(&self, out: &mut Vec<u8>);
    /// Parse the wire representation.
    fn read(input: &mut &[u8]) -> Self;
    /// Number of serialization-method invocations this value costs (arrays
    /// cost one per element — the CC++ compiler "can only inline these calls
    /// in simple cases").
    fn elems(&self) -> usize {
        1
    }
}

macro_rules! marshal_prim {
    ($t:ty, $bytes:expr) => {
        impl Marshal for $t {
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read(input: &mut &[u8]) -> Self {
                let (head, rest) = input.split_at($bytes);
                *input = rest;
                <$t>::from_le_bytes(head.try_into().unwrap())
            }
        }
    };
}

marshal_prim!(u32, 4);
marshal_prim!(u64, 8);
marshal_prim!(i32, 4);
marshal_prim!(i64, 8);
marshal_prim!(f64, 8);

impl Marshal for bool {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn read(input: &mut &[u8]) -> Self {
        let (head, rest) = input.split_at(1);
        *input = rest;
        head[0] != 0
    }
}

impl Marshal for Vec<f64> {
    fn write(&self, out: &mut Vec<u8>) {
        write_f64s(out, self);
    }
    fn read(input: &mut &[u8]) -> Self {
        let raw = read_f64s(input);
        let mut vals = vec![0.0; raw.len() / 8];
        am::decode_f64s(raw, &mut vals);
        vals
    }
    fn elems(&self) -> usize {
        self.len()
    }
}

/// The wire form of a double array, flat or not: its length, then the
/// doubles, appended in one reservation.
fn write_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    out.reserve(8 + 8 * vals.len());
    (vals.len() as u64).write(out);
    am::encode_f64s(out, vals);
}

/// Take one double array off the front of `input`, its doubles still in
/// wire form.
fn read_f64s<'a>(input: &mut &'a [u8]) -> &'a [u8] {
    let n = u64::read(input);
    let bytes = usize::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(8))
        .filter(|b| *b <= input.len())
        .unwrap_or_else(|| panic!("marshalled array of {n} f64s overruns its payload"));
    let (raw, rest) = input.split_at(bytes);
    *input = rest;
    raw
}

/// A flat double array whose serialization the compiler has inlined: one
/// serialization-method call for the whole array, only the byte copy scales.
/// "The CC++ compiler can only inline these calls in simple cases" — a
/// contiguous array of doubles is such a case; the LU block transfers use
/// it, whereas the Table 4 `ARRAYOFDOUBLE` bulk transfers (a user class) pay
/// per-element serialization ([`Vec<f64>`]'s `Marshal`).
#[derive(Clone, Debug, PartialEq)]
pub struct FlatF64s(pub Vec<f64>);

impl Marshal for FlatF64s {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
    }
    fn read(input: &mut &[u8]) -> Self {
        FlatF64s(Vec::<f64>::read(input))
    }
    fn elems(&self) -> usize {
        1
    }
}

/// Outgoing argument buffer. Dropping an unsent buffer is fine (the charges
/// were real work done).
pub struct MarshalBuf {
    bytes: Vec<u8>,
    elems: usize,
}

impl MarshalBuf {
    /// An empty argument buffer.
    pub fn new() -> Self {
        MarshalBuf {
            bytes: Vec::new(),
            elems: 0,
        }
    }

    /// Serialize one argument, charging its marshalling cost.
    pub fn push<T: Marshal, F: Fabric>(&mut self, ctx: &F, value: &T) -> &mut Self {
        let _sp = ctx.span("rmi.marshal");
        let before = self.bytes.len();
        value.write(&mut self.bytes);
        self.charge(ctx, value.elems(), before)
    }

    /// Serialize `vals` as a `Vec<f64>` argument — as a [`FlatF64s`] with
    /// `flat` — without building one, charging what [`push`](Self::push)
    /// charges for it. The bytes are the same either way: only the charge
    /// tells an inlined serialization from one call per element.
    pub(crate) fn push_f64s<F: Fabric>(&mut self, ctx: &F, vals: &[f64], flat: bool) -> &mut Self {
        let _sp = ctx.span("rmi.marshal");
        let before = self.bytes.len();
        write_f64s(&mut self.bytes, vals);
        self.charge(ctx, if flat { 1 } else { vals.len() }, before)
    }

    /// Charge the marshalling of `elems` elements, written since `before`.
    fn charge<F: Fabric>(&mut self, ctx: &F, elems: usize, before: usize) -> &mut Self {
        let c = &CcxxState::get(ctx).cfg().costs;
        let grew = self.bytes.len() - before;
        ctx.charge(
            Bucket::Runtime,
            c.serialize_per_elem * elems as u64 + c.copy_charge(grew),
        );
        self.elems += elems;
        self
    }

    /// Total marshalled size.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Marshalled element count.
    pub fn elems(&self) -> usize {
        self.elems
    }

    /// Freeze into a wire payload.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.bytes)
    }
}

impl Default for MarshalBuf {
    fn default() -> Self {
        Self::new()
    }
}

/// Incoming argument reader; charges the symmetric extraction costs.
pub struct UnmarshalBuf<'a> {
    input: &'a [u8],
}

impl<'a> UnmarshalBuf<'a> {
    /// Wrap a received payload.
    pub fn new(data: &'a Bytes) -> Self {
        UnmarshalBuf { input: data }
    }

    /// Extract the next argument, charging its unmarshalling cost.
    pub fn next<T: Marshal, F: Fabric>(&mut self, ctx: &F) -> T {
        let _sp = ctx.span("rmi.unmarshal");
        let before = self.input.len();
        let v = T::read(&mut self.input);
        self.charge(ctx, v.elems(), before);
        v
    }

    /// Extract a `Vec<f64>` argument — a [`FlatF64s`] with `flat` — with its
    /// doubles still in wire form, for [`am::decode_f64s`] to put straight
    /// where they go; charges what [`next`](Self::next) charges for it.
    pub(crate) fn next_f64s<F: Fabric>(&mut self, ctx: &F, flat: bool) -> &'a [u8] {
        let _sp = ctx.span("rmi.unmarshal");
        let before = self.input.len();
        let raw = read_f64s(&mut self.input);
        self.charge(ctx, if flat { 1 } else { raw.len() / 8 }, before);
        raw
    }

    /// Charge the unmarshalling of `elems` elements, read since `before`
    /// bytes were left.
    fn charge<F: Fabric>(&self, ctx: &F, elems: usize, before: usize) {
        let c = &CcxxState::get(ctx).cfg().costs;
        let consumed = before - self.input.len();
        ctx.charge(
            Bucket::Runtime,
            c.serialize_per_elem * elems as u64 + c.copy_charge(consumed),
        );
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Marshal + PartialEq + std::fmt::Debug>(v: T) {
        let mut out = Vec::new();
        v.write(&mut out);
        let mut inp = out.as_slice();
        assert_eq!(T::read(&mut inp), v);
        assert!(inp.is_empty(), "trailing bytes after read");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u32);
        round_trip(u32::MAX);
        round_trip(-5i32);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(-0.0f64);
        round_trip(std::f64::consts::E);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn vec_round_trip_and_elem_count() {
        let v = vec![1.0, 2.5, -3.5];
        assert_eq!(v.elems(), 3);
        round_trip(v);
        round_trip(Vec::<f64>::new());
    }

    #[test]
    fn mixed_sequence_round_trip() {
        let mut out = Vec::new();
        7u32.write(&mut out);
        (-1.25f64).write(&mut out);
        vec![9.0, 8.0].write(&mut out);
        true.write(&mut out);
        let mut inp = out.as_slice();
        assert_eq!(u32::read(&mut inp), 7);
        assert_eq!(f64::read(&mut inp), -1.25);
        assert_eq!(Vec::<f64>::read(&mut inp), vec![9.0, 8.0]);
        assert!(bool::read(&mut inp));
        assert!(inp.is_empty());
    }
}
