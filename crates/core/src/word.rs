//! Word encoding for transactional values.
//!
//! `partstm` is a *word-based* STM, like TinySTM: the unit of transactional
//! storage is a 64-bit word held in an `AtomicU64`. Any type that can be
//! reversibly packed into a `u64` can live in a [`crate::PVar`]. This keeps
//! every shared access a single atomic operation — there are no torn reads
//! and no `UnsafeCell` in the value path.

/// A value that can be stored in a transactional word.
///
/// # Contract
///
/// `from_word(to_word(v))` must equal `v` for every value of the type.
/// Implementations must not read memory through the word (it is data, not a
/// pointer); use arena [`crate::Handle`]s for references between
/// transactional objects.
pub trait TxWord: Copy + 'static {
    /// Pack the value into a 64-bit word.
    fn to_word(self) -> u64;
    /// Unpack a value previously produced by [`TxWord::to_word`].
    fn from_word(w: u64) -> Self;
}

macro_rules! impl_txword_int {
    ($($t:ty),* $(,)?) => {$(
        impl TxWord for $t {
            #[inline(always)]
            fn to_word(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn from_word(w: u64) -> Self {
                w as $t
            }
        }
    )*};
}

impl_txword_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl TxWord for bool {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w != 0
    }
}

impl TxWord for f32 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        f32::from_bits(w as u32)
    }
}

impl TxWord for f64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        f64::from_bits(w)
    }
}

impl TxWord for char {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        // A word written via `to_word` is always a valid scalar value.
        char::from_u32(w as u32).unwrap_or('\u{fffd}')
    }
}

impl TxWord for () {
    #[inline(always)]
    fn to_word(self) -> u64 {
        0
    }
    #[inline(always)]
    fn from_word(_: u64) -> Self {}
}

/// Packs two `u32` halves into one word; handy for small compound fields
/// (e.g. a count plus a small index) that must change atomically.
impl TxWord for (u32, u32) {
    #[inline(always)]
    fn to_word(self) -> u64 {
        ((self.0 as u64) << 32) | self.1 as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        ((w >> 32) as u32, w as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: TxWord + PartialEq + core::fmt::Debug>(v: T) {
        assert_eq!(T::from_word(v.to_word()), v);
    }

    #[test]
    fn unsigned_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
    }

    #[test]
    fn signed_roundtrips_preserve_sign() {
        roundtrip(-1i8);
        roundtrip(i8::MIN);
        roundtrip(i16::MIN);
        roundtrip(-123456i32);
        roundtrip(i64::MIN);
        roundtrip(-1isize);
    }

    #[test]
    fn float_roundtrips() {
        roundtrip(0.0f32);
        roundtrip(-1.5f32);
        roundtrip(f32::INFINITY);
        roundtrip(1.0e300f64);
        roundtrip(-0.0f64);
        // NaN: bit pattern must survive even though NaN != NaN.
        let w = f64::NAN.to_word();
        assert!(f64::from_word(w).is_nan());
    }

    #[test]
    fn bool_char_unit() {
        roundtrip(true);
        roundtrip(false);
        roundtrip('x');
        roundtrip('\u{1F980}');
        roundtrip(());
    }

    #[test]
    fn pair_roundtrip() {
        roundtrip((0u32, 0u32));
        roundtrip((u32::MAX, 1u32));
        roundtrip((7u32, u32::MAX));
    }
}
