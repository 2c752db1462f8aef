//! Microsecond time values.
//!
//! `strace -tt` records wall-clock timestamps with microsecond precision
//! (`08:55:54.153994`) and `-T` records call durations in seconds with six
//! fractional digits (`<0.000203>`). Both map losslessly onto a `u64`
//! microsecond count, which avoids floating-point drift when summing
//! millions of durations (Eq. 7 of the paper).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// A time value (instant-within-day or duration) in microseconds.
///
/// The paper does not require synchronized clocks across hosts
/// (Sec. IV-B); instants are therefore only comparable *within* a host.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero microseconds.
    pub const ZERO: Micros = Micros(0);

    /// Builds a value from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Micros(secs * MICROS_PER_SEC)
    }

    /// Builds a value from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000)
    }

    /// Builds a value from (possibly fractional) seconds, rounding to the
    /// nearest microsecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            Micros(0)
        } else {
            Micros((secs * MICROS_PER_SEC as f64).round() as u64)
        }
    }

    /// This value in seconds as a float (used for data-rate math, Eq. 11).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Micros) -> Option<Micros> {
        self.0.checked_add(rhs.0).map(Micros)
    }

    /// Parses a `strace -tt` time-of-day stamp `HH:MM:SS.ffffff`.
    ///
    /// The fractional part may have one to six digits (strace prints six).
    /// Returns `None` on any malformed field.
    pub fn parse_time_of_day(s: &str) -> Option<Micros> {
        let bytes = s.as_bytes();
        // Minimal shape: H:M:S — but strace always prints HH:MM:SS[.ffffff],
        // whose fields sit at fixed offsets (the field checks below reject
        // every stamp the general split would).
        let (hh, mm, ss, frac) = if let [_, _, b':', _, _, b':', _, _, b'.', ..] = bytes {
            (&bytes[..2], &bytes[3..5], &bytes[6..8], Some(&bytes[9..]))
        } else {
            let (hh, rest) = split_field(bytes, b':')?;
            let (mm, rest) = split_field(rest, b':')?;
            match memchr(rest, b'.') {
                Some(i) => (hh, mm, &rest[..i], Some(&rest[i + 1..])),
                None => (hh, mm, rest, None),
            }
        };
        let hh = parse_u64(hh)?;
        let mm = parse_u64(mm)?;
        let ss = parse_u64(ss)?;
        if hh > 23 || mm > 59 || ss > 60 {
            return None;
        }
        let mut micros = ((hh * 60 + mm) * 60 + ss) * MICROS_PER_SEC;
        if let Some(frac) = frac {
            if frac.is_empty() || frac.len() > 6 {
                return None;
            }
            let val = parse_u64(frac)?;
            // Scale "15" (two digits) to 150000 micros, etc.
            let scale = 10u64.pow(6 - frac.len() as u32);
            micros += val * scale;
        }
        Some(Micros(micros))
    }

    /// Formats as a `strace -tt` time-of-day stamp (`HH:MM:SS.ffffff`),
    /// wrapping at 24 h.
    pub fn format_time_of_day(self) -> String {
        let total = self.0 % (24 * 3600 * MICROS_PER_SEC);
        let micros = total % MICROS_PER_SEC;
        let secs = total / MICROS_PER_SEC;
        format!(
            "{:02}:{:02}:{:02}.{:06}",
            secs / 3600,
            (secs / 60) % 60,
            secs % 60,
            micros
        )
    }

    /// Parses a `strace -T` duration field body, e.g. `0.000203`
    /// (the `<` `>` delimiters must already be stripped). `None` when
    /// the value does not fit in `u64` microseconds.
    pub fn parse_duration(s: &str) -> Option<Micros> {
        let (secs, frac) = match memchr(s.as_bytes(), b'.') {
            Some(i) => (&s[..i], Some(&s[i + 1..])),
            None => (s, None),
        };
        let secs = parse_u64(secs.as_bytes())?;
        let mut micros = secs.checked_mul(MICROS_PER_SEC)?;
        if let Some(frac) = frac {
            if frac.is_empty() || frac.len() > 6 {
                return None;
            }
            let val = parse_u64(frac.as_bytes())?;
            micros = micros.checked_add(val * 10u64.pow(6 - frac.len() as u32))?;
        }
        Some(Micros(micros))
    }

    /// Formats as a `strace -T` duration body with six fractional digits.
    pub fn format_duration(self) -> String {
        format!("{}.{:06}", self.0 / MICROS_PER_SEC, self.0 % MICROS_PER_SEC)
    }
}

#[inline]
fn memchr(haystack: &[u8], needle: u8) -> Option<usize> {
    haystack.iter().position(|&b| b == needle)
}

fn split_field(bytes: &[u8], sep: u8) -> Option<(&[u8], &[u8])> {
    let i = memchr(bytes, sep)?;
    Some((&bytes[..i], &bytes[i + 1..]))
}

fn parse_u64(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() {
        return None;
    }
    let mut val: u64 = 0;
    for &b in bytes {
        if !b.is_ascii_digit() {
            return None;
        }
        val = val.checked_mul(10)?.checked_add((b - b'0') as u64)?;
    }
    Some(val)
}

impl Add for Micros {
    type Output = Micros;
    #[inline]
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    #[inline]
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl SubAssign for Micros {
    #[inline]
    fn sub_assign(&mut self, rhs: Micros) {
        self.0 -= rhs.0;
    }
}

impl Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        Micros(iter.map(|m| m.0).sum())
    }
}

impl fmt::Debug for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_strace_timestamp() {
        let t = Micros::parse_time_of_day("08:55:54.153994").unwrap();
        assert_eq!(t.0, ((8 * 60 + 55) * 60 + 54) * MICROS_PER_SEC + 153_994);
    }

    #[test]
    fn parses_timestamp_without_fraction() {
        let t = Micros::parse_time_of_day("00:00:01").unwrap();
        assert_eq!(t, Micros::from_secs(1));
    }

    #[test]
    fn single_digit_fields_take_the_general_split() {
        let t = Micros::parse_time_of_day("8:5:4.000001").unwrap();
        assert_eq!(t.0, ((8 * 60 + 5) * 60 + 4) * MICROS_PER_SEC + 1);
    }

    #[test]
    fn parses_short_fraction_scaled() {
        let t = Micros::parse_time_of_day("00:00:00.5").unwrap();
        assert_eq!(t.0, 500_000);
    }

    #[test]
    fn rejects_malformed_timestamps() {
        for s in [
            "",
            "8:55",
            "aa:bb:cc",
            "25:00:00",
            "08:61:00",
            "08:55:54.",
            "08:55:54.1234567",
            // Fixed-width shape with a separator where a digit belongs.
            "0::55:54.123456",
            "08:5.:54.123456",
            "08:55:5..123456",
            "08:55:54..23456",
        ] {
            assert!(Micros::parse_time_of_day(s).is_none(), "accepted {s:?}");
        }
    }

    #[test]
    fn timestamp_roundtrip() {
        let t = Micros::parse_time_of_day("16:56:40.452431").unwrap();
        assert_eq!(t.format_time_of_day(), "16:56:40.452431");
    }

    #[test]
    fn parses_duration() {
        assert_eq!(Micros::parse_duration("0.000203").unwrap().0, 203);
        assert_eq!(Micros::parse_duration("1.5").unwrap().0, 1_500_000);
        assert_eq!(Micros::parse_duration("12").unwrap().0, 12_000_000);
        assert!(Micros::parse_duration("").is_none());
        assert!(Micros::parse_duration("1.").is_none());
        assert!(Micros::parse_duration("x.1").is_none());
    }

    #[test]
    fn duration_that_overflows_u64_micros_is_rejected() {
        // u64::MAX µs is 18446744073709.551615 s.
        let max = Micros::parse_duration("18446744073709.551615").unwrap();
        assert_eq!(max, Micros(u64::MAX));
        // The seconds scale past u64 (this wrapped to 0.448384 s).
        assert!(Micros::parse_duration("18446744073710.000000").is_none());
        assert!(Micros::parse_duration("18446744073710").is_none());
        // The seconds fit; adding the fraction does not.
        assert!(Micros::parse_duration("18446744073709.551616").is_none());
        assert!(Micros::parse_duration("18446744073709.9").is_none());
    }

    #[test]
    fn duration_roundtrip() {
        let d = Micros(203);
        assert_eq!(d.format_duration(), "0.000203");
        assert_eq!(Micros::parse_duration(&d.format_duration()).unwrap(), d);
    }

    #[test]
    fn secs_f64_conversions() {
        assert_eq!(Micros::from_secs_f64(0.000203).0, 203);
        assert_eq!(Micros::from_secs_f64(-1.0).0, 0);
        assert!((Micros(1_500_000).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_sum() {
        let a = Micros(100);
        let b = Micros(50);
        assert_eq!(a + b, Micros(150));
        assert_eq!(a - b, Micros(50));
        assert_eq!(b.saturating_sub(a), Micros::ZERO);
        let total: Micros = [a, b, Micros(1)].into_iter().sum();
        assert_eq!(total, Micros(151));
    }

    #[test]
    fn format_wraps_at_midnight() {
        let t = Micros::from_secs(24 * 3600 + 61);
        assert_eq!(t.format_time_of_day(), "00:01:01.000000");
    }
}
