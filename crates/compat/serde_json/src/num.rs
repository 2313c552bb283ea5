//! Number text for the writer, byte for byte what the standard library
//! prints: [`write_f64`] matches `format!("{f:?}")` and
//! [`write_u64`] / [`write_i64`] match `format!("{v}")`.
//!
//! A float gets the shortest decimal that parses back to the same bits,
//! found by Ryu's `d2d` (Adams, "Ryū: fast float-to-string conversion",
//! PLDI 2018) with 125-bit multipliers of 5^±q. One detail follows the
//! standard library rather than Ryu's reference code: a tie between two
//! shortest candidates rounds up, not to even. Each number is laid out in
//! a stack buffer and pushed as one ASCII slice.

use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Significant bits of each multiplier.
const POW5_BITS: i32 = 125;
/// Entries of [`Tables::pow5`]: the `e2 < 0` branch reads 5^i for i ≤ 325.
const POW5_LEN: usize = 326;
/// Entries of [`Tables::pow5_inv`]: the `e2 ≥ 0` branch reads q ≤ 290.
const POW5_INV_LEN: usize = 291;

/// "00", "01", …, "99" back to back.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes `v` as `{}` does.
pub(crate) fn write_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let start = put_digits(&mut buf, 20, v);
    push_ascii(out, &buf[start..]);
}

/// Writes `v` as `{}` does.
pub(crate) fn write_i64(out: &mut String, v: i64) {
    let mut buf = [0u8; 20];
    let mut start = put_digits(&mut buf, 20, v.unsigned_abs());
    if v < 0 {
        start -= 1;
        buf[start] = b'-';
    }
    push_ascii(out, &buf[start..]);
}

/// Writes a finite `f` as `{:?}` does, and a non-finite one as `null`
/// (JSON has no Inf or NaN; the real serde_json writes `null` too).
pub(crate) fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // The longest text is exponent form: sign, 17 digits, the point, and
    // `e-324`.
    let mut buf = [0u8; 32];
    let mut n = 0;
    if f.is_sign_negative() {
        buf[0] = b'-';
        n = 1;
    }
    if f == 0.0 {
        buf[n..n + 3].copy_from_slice(b"0.0");
        push_ascii(out, &buf[..n + 3]);
        return;
    }
    let (mantissa, exp10) = shortest(f.to_bits());
    let mut digits = [0u8; 20];
    let start = put_digits(&mut digits, 20, mantissa);
    let digits = &digits[start..];
    let len = digits.len();
    if !(1e-4..1e16).contains(&f.abs()) {
        // `d[.ddd]e[-]x`.
        buf[n] = digits[0];
        n += 1;
        if len > 1 {
            buf[n] = b'.';
            buf[n + 1..n + len].copy_from_slice(&digits[1..]);
            n += len;
        }
        buf[n] = b'e';
        n += 1;
        let sci = exp10 + len as i32 - 1;
        if sci < 0 {
            buf[n] = b'-';
            n += 1;
        }
        let e = u64::from(sci.unsigned_abs());
        n += match e {
            0..=9 => 1,
            10..=99 => 2,
            _ => 3,
        };
        put_digits(&mut buf, n, e);
    } else {
        // Decimal with at least one fractional digit; `point` digits
        // stand before the decimal point.
        let point = exp10 + len as i32;
        if point <= 0 {
            let zeros = point.unsigned_abs() as usize;
            buf[n..n + 2].copy_from_slice(b"0.");
            buf[n + 2..n + 2 + zeros].fill(b'0');
            n += 2 + zeros;
            buf[n..n + len].copy_from_slice(digits);
            n += len;
        } else if (point as usize) < len {
            let point = point as usize;
            buf[n..n + point].copy_from_slice(&digits[..point]);
            buf[n + point] = b'.';
            buf[n + point + 1..n + len + 1].copy_from_slice(&digits[point..]);
            n += len + 1;
        } else {
            let zeros = point as usize - len;
            buf[n..n + len].copy_from_slice(digits);
            buf[n + len..n + len + zeros].fill(b'0');
            n += len + zeros;
            buf[n..n + 2].copy_from_slice(b".0");
            n += 2;
        }
    }
    push_ascii(out, &buf[..n]);
}

fn push_ascii(out: &mut String, ascii: &[u8]) {
    out.push_str(std::str::from_utf8(ascii).expect("number text is ASCII"));
}

/// Writes the decimal digits of `v` to end just before `buf[end]`, two at
/// a time, and returns the index of the first.
fn put_digits(buf: &mut [u8], mut end: usize, mut v: u64) -> usize {
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        end -= 1;
        buf[end] = b'0' + v as u8;
    }
    end
}

/// The shortest `(digits, e10)` with `digits · 10^e10` inside the
/// rounding interval of the finite, non-zero double `bits`, and of those
/// the one nearest to it (Ryu's `d2d`).
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // Two extra bits of exponent leave room for the half-gaps below.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            ieee_mantissa | (1 << MANTISSA_BITS),
        )
    };
    // An even mantissa wins the tie when its boundaries parse, so they
    // belong to its interval.
    let accept_bounds = m2 % 2 == 0;
    // The value and its interval's bounds, in units of 2^e2. The lower
    // half-gap is half as wide at a power of two with a normal exponent
    // (Ryu's reference code exempts `f64::MIN_POSITIVE`, whose digits
    // come out the same either way).
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0);
    let tables = tables();

    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let mul = tables.pow5_inv[q as usize];
        let shift = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        // At most one of the three is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let mul = tables.pow5[i as usize];
        let shift = q - (pow5_bits(i) - POW5_BITS);
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate.
    // Rounding half up, as the standard library does, needs only the last
    // digit dropped, not whether the ones below it were all zero.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The lower bound itself is a candidate: keep dropping the zeros
        // it ends in.
        while vm % 10 == 0 {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Step up if `vr` is outside the interval or rounds up.
    let outside = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
    (vr + u64::from(outside || last_removed >= 5), e10 + removed)
}

/// ⌊m · mul / 2^shift⌋ for `shift ≥ 64`.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// ⌊log10 2^e⌋ for 0 ≤ e ≤ 1650.
fn log10_pow2(e: i32) -> i32 {
    (e * 78_913) >> 18
}

/// ⌊log10 5^e⌋ for 0 ≤ e ≤ 2620.
fn log10_pow5(e: i32) -> i32 {
    (e * 732_923) >> 20
}

/// The bit length of 5^e for 0 ≤ e ≤ 3528.
fn pow5_bits(e: i32) -> i32 {
    ((e * 1_217_359) >> 19) + 1
}

fn multiple_of_pow5(mut v: u64, p: i32) -> bool {
    let mut count = 0;
    while v % 5 == 0 {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// Ryu's multipliers, computed once from exact integers.
struct Tables {
    /// The top [`POW5_BITS`] bits of 5^i.
    pow5: [u128; POW5_LEN],
    /// ⌊2^(bits(5^q) − 1 + [`POW5_BITS`]) / 5^q⌋ + 1.
    pow5_inv: [u128; POW5_INV_LEN],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = Tables {
            pow5: [0; POW5_LEN],
            pow5_inv: [0; POW5_INV_LEN],
        };
        // 5^i, little-endian 64-bit limbs.
        let mut pow = vec![1u64];
        for (i, slot) in tables.pow5.iter_mut().enumerate() {
            let bits = pow5_bits(i as i32);
            *slot = if bits >= POW5_BITS {
                bits_from(&pow, (bits - POW5_BITS) as usize)
            } else {
                bits_from(&pow, 0) << (POW5_BITS - bits)
            };
            let mut carry = 0u128;
            for limb in &mut pow {
                let x = u128::from(*limb) * 5 + carry;
                *limb = x as u64;
                carry = x >> 64;
            }
            if carry != 0 {
                pow.push(carry as u64);
            }
        }
        // ⌊2^top / 5^q⌋. Since ⌊⌊x / a⌋ / b⌋ = ⌊x / ab⌋, shifting it right
        // by `top − k` gives ⌊2^k / 5^q⌋ for every k ≤ top.
        let top = (pow5_bits(POW5_INV_LEN as i32 - 1) - 1 + POW5_BITS) as usize;
        let mut inv = vec![0u64; top / 64 + 1];
        inv[top / 64] = 1 << (top % 64);
        for (q, slot) in tables.pow5_inv.iter_mut().enumerate() {
            let k = (pow5_bits(q as i32) - 1 + POW5_BITS) as usize;
            *slot = bits_from(&inv, top - k) + 1;
            let mut rem = 0u128;
            for limb in inv.iter_mut().rev() {
                let x = (rem << 64) | u128::from(*limb);
                *limb = (x / 5) as u64;
                rem = x % 5;
            }
        }
        tables
    })
}

/// The low 128 bits of `limbs >> shift`.
fn bits_from(limbs: &[u64], shift: usize) -> u128 {
    let limb = |i: usize| u128::from(limbs.get(i).copied().unwrap_or(0));
    let (word, bit) = (shift / 64, shift % 64);
    let low = limb(word) | (limb(word + 1) << 64);
    if bit == 0 {
        low
    } else {
        (low >> bit) | (limb(word + 2) << (128 - bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::fmt::Write as _;

    /// Compares [`write_f64`] with `{:?}` through two reused buffers.
    #[derive(Default)]
    struct Floats {
        ours: String,
        std: String,
    }

    impl Floats {
        fn check(&mut self, f: f64) {
            self.ours.clear();
            self.std.clear();
            write_f64(&mut self.ours, f);
            if f.is_finite() {
                write!(self.std, "{f:?}").expect("writing to a String");
            } else {
                self.std.push_str("null");
            }
            assert_eq!(self.ours, self.std, "bits {:#018x}", f.to_bits());
        }

        /// `f`, its negation, and one ulp to either side of both.
        fn check_around(&mut self, f: f64) {
            for g in [f, -f] {
                let bits = g.to_bits();
                for b in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)] {
                    self.check(f64::from_bits(b));
                }
            }
        }
    }

    #[test]
    fn floats_match_debug_on_the_edges() {
        let mut floats = Floats::default();
        for f in [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            // The layout thresholds.
            1e-4,
            1e16,
            // Exact ties between two shortest candidates, which round up:
            // 2^50 + 0.25 prints `1125899906842624.3`, not `….2`.
            2f64.powi(50) + 0.25,
            2f64.powi(50) + 0.75,
        ] {
            floats.check_around(f);
        }
        // Every power of two: each binary exponent, so every table entry.
        for exponent in 0..2047u64 {
            floats.check_around(f64::from_bits(exponent << MANTISSA_BITS));
        }
        // Every k·10^p, where the shortest digits are fewest.
        for p in -324..=308 {
            for k in 1..=9 {
                let f: f64 = format!("{k}e{p}").parse().expect("a float literal");
                floats.check_around(f);
            }
        }
        for i in 0..100_000 {
            floats.check(f64::from(i));
            floats.check(f64::from(i) / 1000.0);
            floats.check(-f64::from(i) / 1000.0);
        }
    }

    #[test]
    fn floats_match_debug_on_random_bits() {
        let mut floats = Floats::default();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1_000_000 {
            floats.check(f64::from_bits(rng.gen::<u64>()));
        }
    }

    /// The long sweep; CI runs it in release with `--ignored`.
    #[test]
    #[ignore = "60M values, 9–14 s; kept out of the quick tier-1 run"]
    fn floats_match_debug_on_50m_random_bits_and_q_values() {
        let mut floats = Floats::default();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..50_000_000 {
            floats.check(f64::from_bits(rng.gen::<u64>()));
        }
        // Q-values: AutoFL's rewards and their running estimates.
        for _ in 0..10_000_000 {
            floats.check(rng.gen_range(-100.0..100.0));
        }
    }

    #[test]
    fn integers_match_display() {
        let (mut ours, mut std) = (String::new(), String::new());
        let mut check = |write: &dyn Fn(&mut String), display: &dyn std::fmt::Display| {
            ours.clear();
            std.clear();
            write(&mut ours);
            write!(std, "{display}").expect("writing to a String");
            assert_eq!(ours, std);
        };
        let mut edges = vec![0, 1, u64::MAX, i64::MAX as u64, i64::MIN as u64];
        for power in (0..20).map(|p| 10u64.pow(p)) {
            edges.extend([power - 1, power, power + 1]);
        }
        let mut rng = SmallRng::seed_from_u64(3);
        // Random values at every length.
        edges.extend((0..100_000).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64)));
        for v in edges {
            check(&|out| write_u64(out, v), &v);
            let signed = v as i64;
            check(&|out| write_i64(out, signed), &signed);
        }
    }
}
